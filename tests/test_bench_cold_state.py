"""The benchmark's cold-state guard names caches that still exist.

``bench/job.py`` reads each ``COLD_STATE`` cache with ``getattr(..., None)``,
so a renamed cache would pass the guard without being checked.  The list
is read from the source with ``ast``, so the job module (and the host
probe it imports) is never run here.
"""

import ast
import importlib
from pathlib import Path

JOB = Path(__file__).resolve().parent.parent / "bench" / "job.py"


def _cold_state():
    for node in ast.parse(JOB.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["COLD_STATE"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/job.py assigns no COLD_STATE")


def test_every_cold_state_cache_exists_in_its_module():
    state = _cold_state()
    missing = [
        f"harmlat.{module}.{attr}" for module, attr in state
        if not isinstance(getattr(importlib.import_module("harmlat." + module), attr, None), dict)
    ]
    assert state and missing == []
