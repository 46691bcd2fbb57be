"""Independent checks of the orbit-quotient kernels and the shared caches.

The walk-count rows and the Laplacian cascade run as column passes over
the orbit quotient (``OrbitTable.cols``); here they are compared with
closed forms and with the sum-of-squares route, which share no code with
them.  A polynomial's table, its parity components on the orthant, is
compared with the pointwise values and with the per-cell route.  Verdicts
must not depend on the state of the constant caches, and every cache in
the package must be bounded.
"""

import importlib
import math
import pkgutil
import subprocess
import sys
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harmlat
from harmlat import (
    LatticeBall,
    LatticeFunction,
    MultivariatePolynomial,
    aspect_ratio_check,
    VanishingHypothesisError,
    correspondence,
    evaluate_on_ball,
    general_P_check,
    growth_polynomial,
    growth_report,
    monomial_uk,
    random_harmonic,
    ratio_125_check,
    sos_laplacian_power,
    three_circles_check,
    vanishing_ball_test,
)
from harmlat import balls, checks, growth, lattice, polynomials
from harmlat.balls import OrbitTable, orbit_table, unit_steps
from harmlat.growth import (
    _newton_via_laplacian, _orbit_square_sums, _orbit_walk_rows, harmonic_growth_polynomial,
)

from conftest import _child_env, spread_walk_row


def _harmlat_modules():
    return [
        importlib.import_module(f"harmlat.{info.name}")
        for info in pkgutil.iter_modules(harmlat.__path__)
    ]


def _lru_caches():
    found = {}
    for module in _harmlat_modules():
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                found[f"{value.__module__}.{name}"] = value
    return found


# -- walk rows against closed forms ---------------------------------------------


def _binom(n, k2):
    """C(n, k2/2) when k2 is even and 0 <= k2/2 <= n, else 0."""
    if k2 % 2 or not 0 <= k2 // 2 <= n:
        return 0
    return math.comb(n, k2 // 2)


def test_column_walk_rows_match_z2_product_formula():
    # rotating Z^2 by 45 degrees splits the walk into two independent
    # 1d walks: W(n, x, y) = C(n, (n+x+y)/2) C(n, (n+x-y)/2)
    N = 40
    tab = orbit_table(2, N)
    for n in range(N + 1):
        row = spread_walk_row(2, n)
        assert len(row) == tab.count_up_to(n)
        for (x, y), w in zip(tab.reps, row):
            assert w == _binom(n, n + x + y) * _binom(n, n + x - y), (n, x, y)


def test_column_walk_rows_match_z1_binomials():
    N = 60
    tab = orbit_table(1, N)
    for n in range(N + 1):
        want = [_binom(n, n + x) for (x,) in tab.reps[: tab.count_up_to(n)]]
        assert spread_walk_row(1, n) == want


@pytest.mark.parametrize(
    "d,R,larger", [(1, 0, 7), (1, 3, 4), (2, 1, 2), (2, 2, 9), (3, 4, 8), (4, 3, 6)]
)
def test_orbit_tables_agree_on_their_common_prefix(monkeypatch, d, R, larger):
    # tables built for R and for a larger radius agree on B_R, so walk rows
    # cached against the smaller table stay valid against the larger one
    small, large = OrbitTable(d, R), OrbitTable(d, larger)
    for tab in (small, large):
        for s, step in enumerate(unit_steps(d)):
            want = [
                tab.index.get(tuple(sorted(abs(a + b) for a, b in zip(rep, step))), -1)
                for rep in tab.reps
            ]
            assert tab.cols[s] == want
    m = small.count_up_to(R)
    assert len(small.reps) == m and small.prefix == large.prefix[: R + 1]
    assert small.reps == large.reps[:m] and small.sizes == large.sizes[:m]
    assert small.index == {rep: large.index[rep] for rep in large.reps[:m]}
    for col, big in zip(small.cols, large.cols):
        assert col == [k if 0 <= k < m else -1 for k in big[:m]]

    def rows_with(*tables):
        monkeypatch.setattr(growth, "_walk_rows", {})
        for tab in tables:
            monkeypatch.setattr(balls, "_orbit_tables", {d: tab})
            rows = _orbit_walk_rows(d, tab.radius)
        return rows

    assert rows_with(small) == rows_with(large)[: R + 1]
    assert rows_with(small, large) == rows_with(large)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_point_orbit_indices_equal_canonical_reps(d):
    # the block recursion against each point's sorted absolute values
    for R in range(8):
        index = orbit_table(d, R).index
        want = tuple(index[tuple(sorted(map(abs, p)))] for p in balls.ball_points(d, R))
        assert balls.point_orbit_indices(d, R) == want, (d, R)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_orthant_plan_equals_canonical_reps(d):
    # the block recursion against the points x >= 0 and their sorted values
    for R in range(8):
        index = orbit_table(d, R).index
        points = balls.ball_points(d, R)
        orbits = balls.point_orbit_indices(d, R, True)
        assert orbits == tuple(index[tuple(sorted(p))] for p in points if min(p) >= 0), (d, R)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_inner_ball_positions_equal_point_lookups(d):
    # the block recursion against each point's position in the larger ball
    for R in range(7):
        position = balls.ball_position(d, R)
        for N in range(R + 1):
            want = [position[p] for p in balls.ball_points(d, N)]
            assert balls.inner_ball_positions(d, R, N) == want, (d, R, N)


@st.composite
def parity_polynomials(draw):
    """(P, R): a rational polynomial in d <= 4 variables, degree <= 6, R <= 6.

    Each exponent of a coordinate with an imposed parity is moved up to it:
    in every coordinate, in the last one only, or in some.
    """
    d = draw(st.integers(1, 4))
    imposed = draw(st.sampled_from(["every", "last", "some"]))
    if imposed == "last":
        parity = [None] * (d - 1) + [draw(st.sampled_from([0, 1]))]
    else:
        choices = [0, 1] if imposed == "every" else [0, 1, None]
        parity = [draw(st.sampled_from(choices)) for _ in range(d)]
    exponent = st.lists(st.integers(0, 5), min_size=d, max_size=d).map(
        lambda a: tuple(e if p is None else e + (e - p) % 2 for e, p in zip(a, parity))
    )
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    terms = draw(st.dictionaries(exponent.filter(lambda a: sum(a) <= 6), coeffs, max_size=6))
    return MultivariatePolynomial(d, terms), draw(st.integers(0, 6))


def _signs(alpha):
    """The sign pattern of a term: -1 where its exponent is odd, 1 where even."""
    return tuple(-1 if a % 2 else 1 for a in alpha)


def _assert_orthant_route_is_pointwise(P, R):
    # the parity components on the orthant, run from their line seeds,
    # against P's own terms, the table they build against the pointwise
    # values, and their orbit square sums and growth report against the
    # per-cell route on a plain table of the same values
    u = evaluate_on_ball(P, R)
    ball = u.ball
    seeded, remaining, den = u._orthant
    parts = [(signs, lattice._lines(seeds, remaining)) for signs, seeds in seeded]
    patterns = {_signs(alpha) for alpha in P.terms}
    assert len(parts) == len(patterns) and {s for s, _ in parts} == patterns
    # a line z = 0..b reads its seeds of order <= b only; every other seed
    # is 0, and den shares no factor with any component, at any radius
    for _, seeds in seeded:
        assert all(order[j] == 0 for j, b in enumerate(remaining) for order in seeds[b + 1 :])
    assert math.gcd(den, *(n for _, nums in parts for n in nums)) == 1
    orthant = [p for p in ball.points if min(p) >= 0]
    for signs, nums in parts:
        component = MultivariatePolynomial(
            P.d, {a: c for a, c in P.terms.items() if _signs(a) == signs}
        )
        assert [F(n, den) for n in nums] == [component.evaluate(p) for p in orthant]
    squares = _orbit_square_sums(u)
    assert u._scaled is None
    want = LatticeFunction.from_values(ball, [P.evaluate(p) for p in ball.points])
    assert u.scaled_values() == want.scaled_values()
    assert u == want and hash(u) == hash(want)
    plain = LatticeFunction(ball, *u.scaled_values())
    assert plain._orthant is None
    plain_squares = _orbit_square_sums(plain)
    if len(parts) <= 1:  # one component is in lowest terms as evaluated
        assert squares == plain_squares
    # the streamed route against the per-cell route on u's own full table,
    # on B_R and below it; _assemble reduces a sum of two or more
    # components, so their denominators can differ
    _assert_streamed_sums_are_per_cell(P, u)
    (sums, den), (plain_sums, plain_den) = squares, plain_squares
    assert [F(s, den * den) for s in sums] == [F(s, plain_den**2) for s in plain_sums]
    assert growth_report(u).newton == growth_report(plain).newton


def _assert_streamed_sums_are_per_cell(P, full, radii=None):
    """The streamed orbit square sums of P's fresh table against ``full``'s per-cell ones.

    ``full`` is P's table on the same ball with its values built; the two
    are compared at every N in ``radii`` (default 0..R), exactly for one
    component and as Fractions otherwise.
    """
    fresh = evaluate_on_ball(P, full.R)
    one = len(fresh._orthant[0]) <= 1
    for N in range(full.R + 1) if radii is None else radii:
        (sums, den), (cell_sums, cell_den) = (_orbit_square_sums(v, N) for v in (fresh, full))
        if one:
            assert (sums, den) == (cell_sums, cell_den), N
        assert [F(s, den * den) for s in sums] == [F(s, cell_den**2) for s in cell_sums], N
    assert fresh._scaled is None and full._scaled is not None


@settings(max_examples=120, deadline=None)
@given(parity_polynomials())
# below the degree: den 2 divides every value on B_1 (x^3 y^2 / 2 + x is x
# there) but not the order-1 seed x^3 / 2 of the line x = 1, which no value reads
@example((MultivariatePolynomial(2, {(3, 2): F(1, 2), (1, 0): 1}), 1))
# (x^2 + x)/2 on B_4 of Z^1: each component keeps the denominator 2, and
# only their sum, an integer at every x, is reduced to denominator 1
@example((MultivariatePolynomial(1, {(2,): F(1, 2), (1,): F(1, 2)}), 4))
def test_orthant_route_equals_full_ball_route(case):
    # a parity imposed in every coordinate (one component), in z only, or
    # in some coordinates
    _assert_orthant_route_is_pointwise(*case)


# x times every y^a z^b, a + b <= 8: four components, all odd in x, so
# the lines x = 0 hold no nonzero value
_ODD_IN_X = MultivariatePolynomial(
    3, {(1, a, b): (-1) ** a * (a + 2 * b + 1) for a in range(9) for b in range(9 - a)}
)


@pytest.mark.parametrize(
    "P, R, zero_lines",
    [
        pytest.param(random_harmonic(3, 6, 202), 30, False, id="Z3-8-components"),
        pytest.param(random_harmonic(2, 6, 102), 80, False, id="Z2-4-components"),
        pytest.param(_ODD_IN_X, 40, True, id="Z3-odd-in-x"),
    ],
)
def test_long_lines_run_as_square_lines(monkeypatch, P, R, zero_lines):
    # past m + 1 values, and far enough to pay, a line of a table with
    # several components runs as the line of their summed squares, from
    # its values at z = -m..m; the orbit sums equal the per-cell route's
    # on the full table, on B_R and below it
    full = evaluate_on_ball(P, R)
    full.scaled_values()
    rows, differences = [], lattice._differences

    def recorded(row):
        rows.append(any(row))
        return differences(row)

    monkeypatch.setattr(growth, "_differences", recorded)
    _assert_streamed_sums_are_per_cell(P, full, (R, R - 1, R // 2, 2))
    assert any(rows) and zero_lines == (not all(rows))


@st.composite
def mixed_parity_polynomials(draw):
    """(P, R): terms of two or more parity patterns, rational coefficients, d <= 4, R <= deg + 2."""
    d = draw(st.integers(1, 4))
    deg = draw(st.integers(1, 6))
    R = draw(st.integers(0, deg + 2))
    exponent = st.lists(st.integers(0, deg), min_size=d, max_size=d).map(tuple)
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
    terms = draw(
        st.dictionaries(exponent.filter(lambda a: sum(a) <= deg), coeffs, min_size=2, max_size=8)
        .filter(lambda t: len({_signs(a) for a in t}) >= 2)
    )
    return MultivariatePolynomial(d, terms), R


@settings(max_examples=120, deadline=None)
@given(mixed_parity_polynomials())
@example((MultivariatePolynomial(1, {(2,): F(1, 2), (1,): F(1, 2)}), 4))
@example((MultivariatePolynomial(3, {(2, 1, 0): F(1, 2), (0, 1, 1): F(1, 2), (1, 0, 0): 1}), 1))
@example((MultivariatePolynomial.zero(3), 2))
@example((MultivariatePolynomial.zero(4), 0))
def test_parity_components_equal_pointwise_values(case):
    # two or more components over one denominator, below and above the
    # degree, and the zero polynomial (no component)
    _assert_orthant_route_is_pointwise(*case)


def test_growth_report_of_a_polynomial_reads_only_the_orthant(monkeypatch):
    # the report of a member with no parity squares the orthant's cells
    # only: the per-cell orbit plan is refused, and the full table is
    # never built
    P = random_harmonic(3, 6, 201)
    ball = LatticeBall(3, 12)
    want = growth_report(LatticeFunction.from_values(ball, [P.evaluate(p) for p in ball.points]))
    balls.point_orbit_indices.cache_clear()
    orthant_only = balls.point_orbit_indices

    def refuse_full(d, R, orthant=False):
        if not orthant:
            raise AssertionError("per-cell orbit plan built")
        return orthant_only(d, R, orthant)

    def refuse_unfold(*args):
        raise AssertionError("full table built")

    monkeypatch.setattr(balls, "point_orbit_indices", refuse_full)
    monkeypatch.setattr(lattice, "_unfold", refuse_unfold)
    u = evaluate_on_ball(P, 12)
    assert len(u._orthant[0]) > 1
    assert growth_report(u).newton == want.newton
    assert u._scaled is None


def _top_level_lines(monkeypatch, d, R):
    """The seeds of every run of the orthant lines of B_R of Z^d, R >= 1, while the test runs.

    Every module that holds the line runner is patched.  The seeds' own
    recursion runs the lines of the orthant of a ball of Z^(d-1), which
    has fewer, and is not recorded.
    """
    run, calls = lattice._line_runs, []
    lines = math.comb(R + d - 1, d - 1)

    def counted(seeds, remaining, *args):
        if len(remaining) == lines:
            calls.append(id(seeds))
        return run(seeds, remaining, *args)

    for module in _harmlat_modules():
        for name, value in list(vars(module).items()):
            if value is run:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_evaluation_runs_no_line_and_the_first_report_each_once(monkeypatch):
    # the table keeps each component's line seeds; its first report runs
    # each component's lines once, all side by side, and builds no full
    # table; reading the full table runs them once more, and a report of a
    # table whose full values are built squares those and runs none
    P = random_harmonic(3, 6, 201)
    calls = _top_level_lines(monkeypatch, 3, 12)
    u = evaluate_on_ball(P, 12)
    assert calls == []
    components = sorted(id(seeds) for _, seeds in u._orthant[0])
    assert len(components) == 8
    want = growth_report(u)
    assert sorted(calls) == components and u._scaled is None
    calls.clear()
    u.scaled_values()
    assert sorted(calls) == components
    calls.clear()
    assert growth_report(u) == want and calls == []


@pytest.mark.parametrize("reader", ["harmonic growth polynomial", "vanishing ball"])
def test_harmonicity_readers_run_each_component_once(monkeypatch, reader):
    # harmonicity reads the full table, so it is built first, and the
    # growth report squares its cells instead of running the lines again
    P = random_harmonic(3, 6, 201)
    R = 7 if reader == "harmonic growth polynomial" else 6  # B_(M+1); B_M
    parts = len(evaluate_on_ball(P, R)._orthant[0])
    want = growth_polynomial(P)
    calls = _top_level_lines(monkeypatch, 3, R)
    if reader == "harmonic growth polynomial":
        assert harmonic_growth_polynomial(P) == want
    else:
        with pytest.raises(VanishingHypothesisError):
            vanishing_ball_test(P)
    assert len(set(calls)) == len(calls) == parts > 1


# tracemalloc peak of one Z^3 member's report on B_60, with the orbit
# tables, walk rows and orthant orbit plan warm: of its evaluation and
# report, or (argument "report") of the report of an evaluated table
MEMORY_CHILD = """
import sys, tracemalloc
from harmlat import balls, evaluate_on_ball, growth_report, random_harmonic
from harmlat.growth import _orbit_walk_rows
P = random_harmonic(3, 6, 201)
balls.orbit_table(3, 60), _orbit_walk_rows(3, 60), balls.point_orbit_indices(3, 60, True)
if sys.argv[1] != "report":
    tracemalloc.start()
u = evaluate_on_ball(P, 60)
if not tracemalloc.is_tracing():
    tracemalloc.start()
growth_report(u)
print(tracemalloc.get_traced_memory()[1])
"""


def _traced_peak(stages):
    res = subprocess.run(
        [sys.executable, "-c", MEMORY_CHILD, stages],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return int(res.stdout)


def test_report_of_a_polynomial_holds_one_component_at_a_time():
    # random_harmonic(3, 6, 201) on B_60 has 8 parity components.
    # Evaluation and report peak at 14.4 MiB when the table kept every
    # component's orthant values, 7.8 MiB when the report ran and dropped
    # them one component at a time, and 3.7 MiB now that it runs one line
    # of each at a time
    assert _traced_peak("evaluation") < 11 * 2**20


def test_report_of_a_polynomial_holds_one_line_of_each_component():
    # the report alone: 5.2 MiB when it held the per-cell sum of the
    # squares and one component's orthant values, 1.0 MiB now that each
    # line's squares go straight into the orbit sums
    assert _traced_peak("report") < 2 * 2**20


def test_table_route_builds_no_point_tuples(monkeypatch):
    # evaluation, both growth routes and the full table's assembly read the
    # ball only through orbit indices: no cell's point tuple and no
    # point -> position map is built, for a random member (several parity
    # components) and for u_2 and a member odd in x and z and even in y
    # (one component each) alike
    members = [
        random_harmonic(3, 5, 17),
        monomial_uk(3, 2),
        correspondence(MultivariatePolynomial(3, {(3, 0, 1): 1, (1, 2, 1): -3})),
    ]
    tables = [evaluate_on_ball(P, 12) for P in members]
    assert [len(u._orthant[0]) for u in tables] == [8, 1, 1]
    wants = [growth_report(u) for u in tables]
    fulls = [u.scaled_values() for u in tables]
    balls.point_orbit_indices.cache_clear()

    def refuse(*args):
        raise AssertionError("point tuples built")

    monkeypatch.setattr(balls, "ball_points", refuse)
    monkeypatch.setattr(balls, "ball_position", refuse)
    tables = [evaluate_on_ball(P, 12) for P in members]
    assert [growth_report(u) for u in tables] == wants
    assert [u.scaled_values() for u in tables] == fulls


# -- cascade against the sum-of-squares identity ---------------------------------


@pytest.mark.parametrize("d,M,R,seed", [(2, 5, 7, 11), (2, 4, 6, 12), (3, 4, 5, 13), (3, 3, 5, 14)])
def test_column_cascade_matches_sum_of_squares(d, M, R, seed):
    u = evaluate_on_ball(random_harmonic(d, M, seed), R)
    cascade = _newton_via_laplacian(u)
    assert len(cascade) == R + 1
    for k in range(R + 1):
        assert cascade[k] == sos_laplacian_power(u, k), (d, seed, k)


# -- verdicts do not depend on the constant caches --------------------------------


def _corpus_checks(report):
    """The corpus acceptance sweep, one callable per verdict."""
    calls = []
    for eps in (F(0), F(1, 4), F(1, 2)):
        calls += [partial(three_circles_check, report, n, eps, explore=True) for n in range(1, 21)]
    calls += [partial(general_P_check, report, n, F(3, 2), F(1, 4)) for n in range(9, 21)]
    calls += [partial(general_P_check, report, n, 3, F(1, 4), explore=True) for n in (4, 6, 8)]
    for delta in (F(1, 8), F(1, 5)):
        calls += [partial(ratio_125_check, report, n, delta) for n in range(0, 16)]
    calls += [partial(aspect_ratio_check, report, n, 3, 2, F(1, 4)) for n in range(1, 14)]
    return calls


def _verdict_key(v):
    return (v.status, v.margin, v.lhs, v.main, v.error_term, v.precision_bits, v.hypothesis_met)


def test_corpus_verdicts_equal_with_cold_and_warm_caches(corpus):
    caches = [f for f in vars(checks).values() if hasattr(f, "cache_clear")]
    assert len(caches) >= 4
    sweeps = [(m.name, _corpus_checks(m.report)) for m in corpus]
    cold = {}
    for name, calls in sweeps:
        for i, call in enumerate(calls):
            for f in caches:
                f.cache_clear()
            cold[name, i] = _verdict_key(call())
    for call in sweeps[0][1]:  # the constants are the same for every member
        call()
    misses = [f.cache_info().misses for f in caches]
    for name, calls in sweeps:
        for i, call in enumerate(calls):
            assert _verdict_key(call()) == cold[name, i], (name, i)
    assert [f.cache_info().misses for f in caches] == misses  # every lookup was a hit


# -- bounded caches -----------------------------------------------------------------


def test_every_lru_cache_is_bounded():
    caches = _lru_caches()
    for name in (
        "harmlat.balls.ball_points",
        "harmlat.balls.ball_position",
        "harmlat.balls.laplacian_plan",
        "harmlat.balls.point_orbit_indices",
        "harmlat.checks.derive_alpha",
    ):
        assert name in caches
    unbounded = [n for n, f in caches.items() if f.cache_parameters()["maxsize"] is None]
    assert not unbounded
    assert all(f.cache_parameters()["maxsize"] <= 256 for f in caches.values())
