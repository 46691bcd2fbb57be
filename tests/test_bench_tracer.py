"""The benchmark tracer's layer table names functions that still exist.

``bench/tracer.py`` skips a traced name it cannot find, so a renamed
library function would read as a layer with zero calls and no error.
"""

import importlib
import importlib.util
from pathlib import Path

from harmlat import balls, evaluate_on_ball, growth, random_harmonic

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_exists_in_its_module():
    tracer = _load_tracer()
    missing = []
    for layer, module, names, *_ in tracer.LAYERS:
        mod = importlib.import_module("harmlat." + module)
        missing += [f"{layer}: harmlat.{module}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    assert tracer.LAYERS and missing == []


def test_traced_walk_rows_count_the_parity_rows(monkeypatch):
    # a cold report builds rows 0..N, and row n holds the reps of B_N's
    # orbit quotient with radius <= n and radius = n (mod 2)
    d, N = 3, 20
    monkeypatch.setattr(growth, "_walk_rows", {})
    u = evaluate_on_ball(random_harmonic(d, 4, 5), N)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        growth.growth_report(u)
    finally:
        tracer.remove()
    radii = list(map(sum, balls.orbit_table(d, N).reps))
    lengths = [sum(1 for r in radii if r <= n and r % 2 == n % 2) for n in range(N + 1)]
    assert list(map(len, growth._walk_rows[d])) == lengths
    assert tracer.counts["growth.walk_rows.rows_built"] == N + 1
    assert tracer.counts["growth.walk_rows.rows_reused"] == 0
    assert tracer.counts["growth.walk_rows.entries"] == sum(lengths)
