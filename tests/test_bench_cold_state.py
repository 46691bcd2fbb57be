"""The benchmark's cold-state guard names caches that still exist, and set-ups leave them cold.

``bench/job.py`` reads each ``COLD_STATE`` cache with ``getattr(..., None)``,
so a renamed cache would pass the guard without being checked.  The list
is read from the source with ``ast``, so the job module (and the host
probe it imports) is never run here.  The guard runs after a workload's
set-up, so a set-up that fills a ``harmlat`` cache fails every job of
that workload; each set-up is run here in a fresh interpreter and the
same caches are read after it.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
JOB = ROOT / "bench" / "job.py"

# Run a workload's build(0) as job.py's set-up does, then name every filled cache.
SETUP_CHILD = """
import json, sys
root, workload, cold_state = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/bench"]
import harmlat, harmlat.cli, workloads
workloads.WORKLOADS[workload][0](0)
warm = [
    f"{name}.{attr}"
    for name, mod in list(sys.modules.items()) if name.split(".")[0] == "harmlat"
    for attr, value in vars(mod).items()
    if hasattr(value, "cache_info") and value.cache_info().currsize
]
warm += [f"harmlat.{m}.{a}" for m, a in cold_state if getattr(sys.modules["harmlat." + m], a)]
print(json.dumps(warm))
"""


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


@pytest.mark.parametrize("workload", ["scan", "corpus", "search"])
def test_workload_setup_leaves_harmlat_caches_cold(workload):
    res = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(ROOT), workload, json.dumps(_cold_state())],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == []
