"""The benchmark's workloads pass their own correctness gates.

``bench/workloads.py`` gates each timed job through a route the job does
not use (mpmath slacks, Newton sums, exact binomials, closed forms).
Running the ``scan``, ``search`` and ``corpus`` gates here makes a
library change that breaks them, such as an undecided scan row, a wrong
witness or a wrong u_k growth, fail the suite rather than only the
benchmark.  The ``corpus`` gate reads the corpus fixture the other tests
share, so it adds only the verdict sweep.
"""

import importlib.util
from pathlib import Path

import pytest

from harmlat import evaluate_on_ball, sk_polynomial, sos_laplacian_power
from harmlat.growth import growth_polynomial

from conftest import CORPUS_RADIUS

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


def test_corpus_workload_passes_its_gate(workloads, corpus):
    # the shared corpus fixture is the workload's seed-0 input on the same ball, so
    # its reports and their sweep go straight into the gate: the u_k closed
    # form Q(n) = (k!/d^k) C(n, k) and every one of the 3,744 verdicts
    assert workloads.CORPUS_RADIUS == CORPUS_RADIUS
    reports = [(m.name, m.poly, m.report) for m in corpus]
    verdicts = [(name, check) for name, _, rep in reports for check in workloads._sweep(rep)]
    workloads.check_corpus(reports, verdicts)


def test_scan_gate_route_reads_no_orbit_kernel(workloads, monkeypatch):
    # the gate's iterated table Laplacians, and the sum-of-squares identity,
    # must stay independent of the orbit quotient the timed job runs on
    k = 12
    newton = growth_polynomial(sk_polynomial(k)).newton
    expected = list(newton) + [0] * (k + 1 - len(newton))

    def forbidden(*args, **kwargs):
        raise AssertionError("the table route reached the orbit route")

    for name in (
        "harmlat.balls.orbit_table",
        "harmlat.balls.point_orbit_indices",
        "harmlat.growth._orbit_walk_rows",
        "harmlat.growth._newton_via_laplacian",
    ):
        monkeypatch.setattr(name, forbidden)
    assert workloads.scan_coefficients(k) == expected
    u = evaluate_on_ball(sk_polynomial(k), k)
    assert [sos_laplacian_power(u, j) for j in range(k + 1)] == expected
