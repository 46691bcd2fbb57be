"""The benchmark's cheap workloads pass their own correctness gates.

``bench/workloads.py`` gates each timed job through a route the job does
not use (mpmath slacks, Newton sums, exact binomials).  Running the
``scan`` and ``search`` gates here makes a library change that breaks
them, such as an undecided scan row or a wrong witness, fail the suite
rather than only the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_workload_passes_its_gate(workloads):
    workloads.scan_gate(workloads.scan_run(workloads.scan_build(0)))


def test_search_workload_passes_its_gate(workloads):
    workloads.search_gate(workloads.search_run(workloads.search_build(0)))
