"""Shared exact-harmonic corpus for the test suite.

32 members: the coordinate products on Z^2 and Z^3, the discretized
planar harmonics S_0..S_8 and T_1..T_8, and ten reproducible random
harmonic polynomials (five each on Z^2 and Z^3, degree <= 6).  Each
member carries its full growth report on the ball of radius 80, so
inner radii up to 20 can be checked at outer radius 4n.
"""

import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import harmlat
from harmlat import (
    GrowthPolynomial,
    MultivariatePolynomial,
    RealEnclosure,
    evaluate_on_ball,
    growth_report,
    monomial_uk,
    random_harmonic,
    sk_polynomial,
    tk_polynomial,
)
from harmlat.balls import orbit_table
from harmlat.growth import _difference_triangle, _orbit_walk_rows

CORPUS_RADIUS = 80


@dataclass(frozen=True)
class CorpusMember:
    name: str
    poly: MultivariatePolynomial
    degree: int
    report: GrowthPolynomial


def growth_of(values) -> GrowthPolynomial:
    """The growth object of the table Q(0..N) = ``values``, whatever its values.

    Its a_k are the first entries of the table's forward-difference rows,
    taken as in :func:`harmlat.growth_report`; it covers n <= N.
    """
    newton = _difference_triangle([Fraction(v) for v in values])
    return GrowthPolynomial(None, tuple(newton), len(values) - 1)


def spread_walk_row(d, n):
    """Row n of the walk rows spread over every orbit rep of B_n, in the table's order.

    The row holds the reps of radius = n (mod 2) alone, in (radius, lex)
    order; the reps of the other radius parity read 0.
    """
    row = _orbit_walk_rows(d, n)[n]
    tab = orbit_table(d, n)
    reps = tab.reps[: tab.count_up_to(n)]
    ours = [i for i, rep in enumerate(reps) if sum(rep) % 2 == n % 2]
    assert len(row) == len(ours)
    full = [0] * len(reps)
    for i, w in zip(ours, row):
        full[i] = w
    return full


def _full_triangle(values):
    """Every forward-difference row of ``values``: row k holds Delta^k Q(n) for n <= N - k.

    The reference the library's a_k are checked against; it takes every
    difference directly and stops at no zero row.
    """
    rows, row = [], list(values)
    while row:
        rows.append(row)
        row = [b - a for a, b in zip(row, row[1:])]
    return rows


def _child_env():
    """The environment of a child that imports the same harmlat as this process."""
    src = str(Path(harmlat.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def corpus_polynomials():
    polys = []
    for d in (2, 3):
        for k in range(1, d + 1):
            polys.append((f"u{k}_d{d}", monomial_uk(d, k)))
    for k in range(0, 9):
        polys.append((f"S{k}", sk_polynomial(k)))
    for k in range(1, 9):
        polys.append((f"T{k}", tk_polynomial(k)))
    for seed in (101, 102, 103, 104, 105):
        polys.append((f"rand_d2_{seed}", random_harmonic(2, 6, seed)))
    for seed in (201, 202, 203, 204, 205):
        polys.append((f"rand_d3_{seed}", random_harmonic(3, 6, seed)))
    return polys


BUILD_SECONDS = {}


@pytest.fixture(scope="session")
def corpus():
    import time

    t0 = time.time()
    members = []
    for name, poly in corpus_polynomials():
        u = evaluate_on_ball(poly, CORPUS_RADIUS)
        members.append(CorpusMember(name, poly, poly.degree, growth_report(u)))
    assert len(members) >= 20
    BUILD_SECONDS["corpus"] = time.time() - t0
    return members


@pytest.fixture(scope="session")
def corpus_build_seconds(corpus):
    return BUILD_SECONDS["corpus"]


@pytest.fixture
def enclosures_built(monkeypatch):
    """The RealEnclosures built while the test runs, in order, seen by their order check."""
    built = []
    check = RealEnclosure.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(RealEnclosure, "__post_init__", counted)
    return built


@pytest.fixture
def evaluation_radii(monkeypatch):
    """The radius of every evaluate_on_ball call while the test runs, whichever module makes it."""
    radii = []

    def counted(P, R):
        radii.append(R)
        return evaluate_on_ball(P, R)

    for module in list(sys.modules.values()):
        if module.__name__.split(".")[0] == "harmlat":
            for name, value in list(vars(module).items()):
                if value is evaluate_on_ball:
                    monkeypatch.setattr(module, name, counted)
    return radii
