"""The benchmark tracer's layer table names functions that still exist.

``bench/tracer.py`` skips a traced name it cannot find, so a renamed
library function would read as a layer with zero calls and no error.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_exists_in_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, module, names, *_ in tracer.LAYERS:
        mod = importlib.import_module("harmlat." + module)
        missing += [f"{layer}: harmlat.{module}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    assert tracer.LAYERS and missing == []
