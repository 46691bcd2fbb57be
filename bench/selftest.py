"""Tiny-size self-test of the benchmark's own machinery (a few seconds).

    python3 bench/selftest.py

Shows that each correctness gate passes on true outputs and fires on a
corrupted expected value, that the cold-state guard fires on warm
caches, that a traced name which no longer exists reports 0 calls, that
the speed probe scales times by the probe speed of their own window, and
that BENCHMARK.json lists exactly the metrics the code reports.
"""

from __future__ import annotations

import json
import math
import signal
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent

import job  # noqa: E402

job.import_harmlat(BENCH.parent)

import harmlat  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import GateError  # noqa: E402


def expect_gate_error(check, *args, **kwargs) -> None:
    try:
        check(*args, **kwargs)
    except GateError:
        return
    raise AssertionError(f"{check.__name__} accepted a corrupted expectation")


def test_scan_gate() -> None:
    argv = ["conjecture", "scan", "--family", "S", "--k", "4", "--C", "1", "--eps", "1/10"]
    code, text = workloads.run_cli(argv + ["--n-from", "3", "--n-to", "5"])
    coeffs = workloads.scan_coefficients(4)
    workloads.check_scan(code, text, coeffs, range(3, 6))
    corrupted = list(coeffs)
    corrupted[2] += 1
    expect_gate_error(workloads.check_scan, code, text, corrupted, range(3, 6))
    expect_gate_error(workloads.check_scan, code, text, coeffs, range(3, 7))


def test_corpus_gate() -> None:
    reports, verdicts = [], []
    for d in (2, 3):
        for k in range(1, d + 1):
            name = f"u{k}_d{d}"
            poly = harmlat.monomial_uk(d, k)
            rep = harmlat.growth_report(harmlat.evaluate_on_ball(poly, 8))
            reports.append((name, poly, rep))
            v = harmlat.three_circles_check(rep, 2, 0, explore=True)
            verdicts.append((name, ("three-circles", v, False)))
    workloads.check_corpus(reports, verdicts, count=5)

    def off_by_one(d, k, n):
        return workloads.coordinate_product_growth(d, k, n) + (n == 5)

    expect_gate_error(workloads.check_corpus, reports, verdicts, expected=off_by_one, count=5)
    expect_gate_error(workloads.check_corpus, reports, verdicts, count=6)


def test_search_gate() -> None:
    code, text = workloads.run_cli(workloads.SEARCH_HIT_ARGV)
    workloads.check_search_hit(code, text)
    expect_gate_error(workloads.check_search_hit, code, text, witness=(17, 102))
    res = json.loads(text)
    res["verdict"]["margin"] = str(Fraction(res["binomials"][1]))  # far above the true slack
    expect_gate_error(workloads.check_search_hit, code, json.dumps(res))
    argv = ["search", "counterexample", "--C", "2", "--eps", "1/10", "--k-max", "10"]
    code, text = workloads.run_cli(argv)
    workloads.check_search_none(code, text, candidates=36)
    expect_gate_error(workloads.check_search_none, code, text, candidates=37)


def test_cold_guard_fires_on_warm_caches() -> None:
    harmlat.growth_report(harmlat.evaluate_on_ball(harmlat.sk_polynomial(2), 4))
    try:
        job.assert_cold()
    except job.ColdStateError:
        return
    raise AssertionError("the cold-state guard accepted warm caches")


def test_missing_traced_name_reports_zero() -> None:
    ghost = ("ghost", "growth", ["_no_such_function"], None, None)
    tracer.LAYERS.append(ghost)
    try:
        t = tracer.Tracer()
        t.install()
        harmlat.growth_report(harmlat.evaluate_on_ball(harmlat.sk_polynomial(2), 4))
        t.remove()
        metrics = t.metrics(1.0)
    finally:
        tracer.LAYERS.remove(ghost)
    assert metrics["ghost.self_s"] == 0 and t.counts["ghost.calls"] == 0, metrics
    assert t.counts["growth.growth_report.calls"] == 1, dict(t.counts)
    assert harmlat.growth.growth_report.__module__ == "harmlat.growth"  # unwrapped again
    reported = set(metrics) - {"ghost.self_s"} | {"trace.overhead_s"}
    listed = {row[0] for row in tracer.PER_LAYER}
    assert reported == listed, reported ^ listed


def test_pace_scales_by_the_window_probes() -> None:
    ref = pace.REFERENCE_S
    saved = pace._at[:], pace._took[:]
    try:
        del pace._at[:], pace._took[:]
        # probes at t = 0..9: twice the reference time, then half of it
        for t in range(10):
            pace._at.append(t)
            pace._took.append(2 * ref if t < 5 else ref / 2)
        assert pace.scale(0, 4) == (0.5, 5), pace.scale(0, 4)
        assert pace.scale(5, 9) == (2.0, 5), pace.scale(5, 9)
        factor, probes = pace.scale(0, 1)  # too few probes: all of them count
        assert math.isclose(factor, 1.25) and probes == 10, (factor, probes)
    finally:
        pace._at[:], pace._took[:] = saved
    pace.start()
    deadline = len(pace._took) + 3
    while len(pace._took) < deadline:
        pass
    pace.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_benchmark_json_matches_code() -> None:
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"], doc
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        row[:3] for row in tracer.PER_LAYER
    ]


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
