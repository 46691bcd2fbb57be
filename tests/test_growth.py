"""Walk counts, exact growth reports and the Monte Carlo oracle."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlat import (
    GrowthPolynomial,
    HarmError,
    LatticeBall,
    LatticeFunction,
    MultivariatePolynomial,
    OutOfRangeError,
    check_absolute_monotonicity,
    evaluate_on_ball,
    growth_polynomial,
    growth_report,
    laplacian_power,
    monomial_uk,
    random_harmonic,
    sk_polynomial,
)
from harmlat import growth
from harmlat.balls import ball_points, orbit_table, point_orbit_indices
from harmlat.growth import (
    _difference_triangle, _newton_via_laplacian, _orbit_square_sums, _orbit_walk_rows,
)

from conftest import _full_triangle, growth_of, spread_walk_row
from montecarlo import monte_carlo_Q


def brute_force_walk_counts(d, n):
    """Oracle: enumerate all (2d)^n walks."""
    steps = []
    for axis in range(d):
        for sign in (1, -1):
            steps.append(tuple(sign if j == axis else 0 for j in range(d)))
    counts = {}
    for seq in itertools.product(steps, repeat=n):
        pos = tuple(sum(c) for c in zip(*seq)) if seq else tuple([0] * d)
        counts[pos] = counts.get(pos, 0) + 1
    return counts


def brute_force_Q(u, n):
    """Oracle: expectation of u^2 over the enumerated n-step walks."""
    counts = brute_force_walk_counts(u.d, n)
    total = F(0)
    for x, w in counts.items():
        total += u.value(x) ** 2 * w
    return total / (2 * u.d) ** n


def padded(newton, N):
    """a_0..a_N from the a_k a growth object holds, the rest zero."""
    return list(newton) + [0] * (N + 1 - len(newton))


def walk_count_table(d, n):
    """Row n of _orbit_walk_rows(d, n) spread over B_n: {point: W(n, point)}, nonzero only."""
    row = spread_walk_row(d, n)
    counts = zip(ball_points(d, n), map(row.__getitem__, point_orbit_indices(d, n)))
    return {p: w for p, w in counts if w}


# -- walk-count rows -------------------------------------------------------------


def test_walk_counts_examples():
    for d, n, table in [
        (2, 0, {(0, 0): 1}),
        (1, 2, {(-2,): 1, (0,): 2, (2,): 1}),
        (2, 2, {(0, 0): 4, (1, 1): 2, (1, -1): 2, (-1, 1): 2, (-1, -1): 2,
                (2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1}),
    ]:
        assert walk_count_table(d, n) == brute_force_walk_counts(d, n) == table
        assert sum(table.values()) == (2 * d) ** n


@pytest.mark.parametrize("d,n", [(1, 6), (2, 5), (3, 4)])
def test_walk_counts_match_enumeration(d, n):
    assert walk_count_table(d, n) == brute_force_walk_counts(d, n)


def test_walk_count_invariants_up_to_60():
    # at the orbit level: normalization, parity and symmetry for n <= 60, d <= 3;
    # a row holds one radius-parity class of B_n, and each of its entries is positive
    for d in (1, 2, 3):
        rows = _orbit_walk_rows(d, 60)
        tab = orbit_table(d, 60)
        radii = list(map(sum, tab.reps))
        for n in range(0, 61):
            assert all(w > 0 for w in rows[n])
            assert len(rows[n]) == sum(1 for r in radii if r <= n and r % 2 == n % 2)
            row = spread_walk_row(d, n)
            total = sum(w * tab.sizes[i] for i, w in enumerate(row))
            assert total == (2 * d) ** n
            for i, w in enumerate(row):
                radius = sum(tab.reps[i])
                if (radius - n) % 2 != 0 or radius > n:
                    assert w == 0


def test_walk_rows_hold_only_reachable_orbits():
    # rows 0..80 hold the nonzero W(n, .) alone: one radius parity of B_n
    for d, entries in [(2, 23_821), (3, 176_792)]:
        rows = _orbit_walk_rows(d, 80)[:81]
        assert sum(map(len, rows)) == entries
        assert all(map(all, rows))


def test_walk_counts_symmetry_on_full_table():
    w = walk_count_table(3, 7)
    assert w == brute_force_walk_counts(3, 7)
    for x, c in w.items():
        flipped = tuple(-v for v in x)
        permuted = (x[2], x[0], x[1])
        assert w[flipped] == c
        assert w[permuted] == c


# -- growth values ------------------------------------------------------------------


def test_growth_constant_function():
    u = LatticeFunction.constant(LatticeBall(2, 6), 1)
    for n in range(0, 7):
        assert growth_report(u, n).Q(n) == 1


def test_growth_xy_n2():
    u = evaluate_on_ball(monomial_uk(2, 2), 3)
    assert growth_report(u, 2).Q(2) == F(1, 2)
    assert growth_report(u, 2).Q(2) == brute_force_Q(u, 2)


def test_growth_linear_d1():
    u = evaluate_on_ball(MultivariatePolynomial.variable(1, 0), 5)
    assert growth_report(u, 5).Q(5) == 5  # E X_n^2 = n for the one-dimensional walk


def test_growth_matches_brute_force_oracle():
    p = sk_polynomial(3)
    u = evaluate_on_ball(p, 5)
    for n in range(0, 6):
        assert growth_report(u, n).Q(n) == brute_force_Q(u, n)


def test_growth_out_of_range():
    u = LatticeFunction.constant(LatticeBall(2, 3), 1)
    with pytest.raises(OutOfRangeError):
        growth_report(u, 4)
    with pytest.raises(OutOfRangeError):
        growth_report(u, 2).Q(3)


@st.composite
def lattice_tables(draw):
    """(u, N): any rational table on B_R of Z^d, d <= 2, R <= 4; N <= R."""
    d = draw(st.integers(1, 2))
    R = draw(st.integers(0, 4 if d == 1 else 3))
    ball = LatticeBall(d, R)
    values = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    u = LatticeFunction.from_values(ball, draw(st.lists(values, min_size=ball.point_count,
                                                        max_size=ball.point_count)))
    return u, draw(st.integers(0, R))


@settings(max_examples=60, deadline=None)
@given(lattice_tables())
def test_report_q_is_the_walk_mean_of_u_squared(case):
    u, N = case
    rep = growth_report(u, N)
    assert rep.n_max == N
    for n in range(N + 1):
        assert rep.Q(n) == brute_force_Q(u, n)
    assert not rep.newton or rep.newton[-1] != 0  # the a_k end before the first zero row


def _mixed_parity_polynomial(d):
    """A rational polynomial on Z^d with terms of several parity patterns."""
    e = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    terms = {(0,) * d: 1, e[0]: F(-2, 3), tuple(2 * a for a in e[-1]): F(1, 2),
             (1,) * d: 3, tuple(3 * a for a in e[0]): F(-1, 5)}
    return MultivariatePolynomial(d, terms)


@pytest.mark.parametrize("d,R,below", [(1, 8, 3), (2, 7, 4), (3, 5, 2)])
@pytest.mark.parametrize("route", ["orthant", "cells"])
def test_report_equals_brute_force_walk_mean(d, R, below, route):
    # Q(n) = sum_x u(x)^2 W(n, x) / (2d)^n with W from every enumerated walk,
    # for a polynomial's table (parity components on the orthant) and for a
    # table of values (every cell)
    P = _mixed_parity_polynomial(d)
    u = evaluate_on_ball(P, R)
    if route == "cells":
        rng = random.Random(R)
        values = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(u.ball.point_count)]
        u = LatticeFunction.from_values(u.ball, values)
    assert (u._orthant is None) == (route == "cells")
    want = [brute_force_Q(u, n) for n in range(R + 1)]
    for N in (R, below):
        rep = growth_report(u, N)
        assert rep.n_max == N
        assert [rep.Q(n) for n in range(N + 1)] == want[: N + 1]


@pytest.mark.parametrize("route", ["cells", "orthant"])
def test_report_below_the_radius_squares_only_that_ball(monkeypatch, route):
    # a report to N < R squares the cells of B_N only, on both routes: its
    # square sums have one entry per orbit of B_N, equal those of the B_N
    # part of the table, and so do its a_k
    if route == "cells":
        rng = random.Random(4)
        ball = LatticeBall(3, 9)
        u = LatticeFunction.from_values(
            ball, [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ball.point_count)]
        )
    else:
        u = evaluate_on_ball(_mixed_parity_polynomial(3), 9)
    seen = []
    cascade = growth._newton_via_laplacian

    def spy(u, squares, N):
        seen.append(squares)
        return cascade(u, squares, N)

    monkeypatch.setattr(growth, "_newton_via_laplacian", spy)
    sums, den = _orbit_square_sums(u, 4)
    newton = growth_report(u, 4).newton
    assert (u._scaled is None) == (route == "orthant")  # a polynomial's table is not built
    part = LatticeFunction.from_values(LatticeBall(3, 4), map(u.value, ball_points(3, 4)))
    part_sums, part_den = _orbit_square_sums(part)
    assert len(sums) == orbit_table(3, 4).count_up_to(4) == len(part_sums) == len(seen[0][0])
    assert [F(s, den * den) for s in sums] == [F(s, part_den**2) for s in part_sums]
    assert newton == growth_report(part).newton


def test_report_refuses_disagreeing_routes(monkeypatch):
    u = evaluate_on_ball(sk_polynomial(3), 5)
    growth_report(u)
    monkeypatch.setattr(growth, "_newton_via_laplacian", lambda u, sums, N: [F(0)] * (N + 1))
    with pytest.raises(HarmError, match="disagree"):
        growth_report(u)


# -- growth reports ------------------------------------------------------------------


def test_report_constant():
    u = LatticeFunction.constant(LatticeBall(2, 5), F(3, 2))
    rep = growth_report(u)
    assert rep.newton == (F(9, 4),) and rep.n_max == 5


def test_report_linear_d1():
    u = evaluate_on_ball(MultivariatePolynomial.variable(1, 0), 8)
    rep = growth_report(u)
    assert rep.newton == (0, 1)
    for n in range(9):
        assert rep.Q(n) == n


def test_report_xy():
    u = evaluate_on_ball(monomial_uk(2, 2), 8)
    rep = growth_report(u)
    assert rep.newton == (0, 0, F(1, 2))


def test_report_newton_agreement_and_dual_route():
    for poly, R in [(sk_polynomial(4), 10), (monomial_uk(3, 2), 8)]:
        u = evaluate_on_ball(poly, R)
        rep = growth_report(u)
        # Newton series reproduces the values exactly
        for n in range(R + 1):
            assert rep.Q(n) == sum(
                a * math.comb(n, k) for k, a in enumerate(rep.newton)
            )
        # triangle coefficients equal iterated-Laplacian values
        newton = padded(rep.newton, R)
        assert _newton_via_laplacian(u) == newton
        origin = tuple([0] * poly.d)
        for k in range(0, 5):
            assert newton[k] == laplacian_power(u.square(), k).value(origin)


def test_quotient_cascade_matches_plain_laplacian_deep():
    # the symmetrized-orbit cascade must agree with plain table Laplacians
    # at every depth, including on an asymmetric d=3 input
    poly = random_harmonic(3, 4, 77)
    u = evaluate_on_ball(poly, 10)
    cascade = _newton_via_laplacian(u)
    square = u.square()
    for k in range(0, 11):
        assert cascade[k] == laplacian_power(square, k).value((0, 0, 0)), k


def test_report_triangle_recurrence():
    # every difference is read off the a_k: Delta^c Q(n) = sum_j a_(c+j) C(n, j)
    rep = growth_report(evaluate_on_ball(sk_polynomial(3), 7))
    for c, row in enumerate(_full_triangle([rep.Q(n) for n in range(8)])):
        assert row == [GrowthPolynomial(rep.d, rep.newton[c:]).Q(n) for n in range(len(row))]


def test_report_scaling():
    u = evaluate_on_ball(sk_polynomial(2), 6)
    v = u.scale(F(-3, 5))
    ru, rv = growth_report(u), growth_report(v)
    for n in range(7):
        assert rv.Q(n) == F(9, 25) * ru.Q(n)


def test_absolute_monotonicity_examples():
    binom3 = GrowthPolynomial(1, (F(0), F(0), F(0), F(1)), 10)  # Q(n) = C(n, 3)
    assert check_absolute_monotonicity(binom3).holds

    u = evaluate_on_ball(sk_polynomial(5), 12)
    assert check_absolute_monotonicity(growth_report(u)).holds

    bad = growth_of([1, 0, 1])
    res = check_absolute_monotonicity(bad)
    assert not res.holds
    assert res.first_violation == (1, 0)
    assert res.value == -1


def test_absolute_monotonicity_decides_a_complete_polynomial():
    # a complete object knows every a_k, so it is decided on every n >= 0
    assert check_absolute_monotonicity(growth_polynomial(sk_polynomial(3))).holds
    assert check_absolute_monotonicity(growth_polynomial(sk_polynomial(3), 2)).holds
    res = check_absolute_monotonicity(GrowthPolynomial(1, (F(1), F(2), F(-1, 3), F(-5))))
    assert (res.holds, res.first_violation, res.value) == (False, (2, 0), F(-1, 3))


def test_absolute_monotonicity_reads_only_the_a_k_of_its_range():
    # Q(0..1) reads a_0 and a_1 only; a_2 < 0 lies outside the range
    assert check_absolute_monotonicity(GrowthPolynomial(1, (F(1), F(2), F(-1)), 1)).holds
    res = check_absolute_monotonicity(growth_of([0, 0, -1]))  # a = (0, 0, -1)
    assert (res.holds, res.first_violation, res.value) == (False, (2, 0), -1)


@st.composite
def q_tables(draw):
    """Q(0..N), N <= 12: any rational table, or one with every a_k >= 0."""
    N = draw(st.integers(0, 12))
    floor = draw(st.sampled_from([0, -4]))
    fractions = st.fractions(min_value=floor, max_value=9, max_denominator=5)
    if floor < 0:
        return draw(st.lists(fractions, min_size=N + 1, max_size=N + 1))
    newton = draw(st.lists(fractions, min_size=N + 1, max_size=N + 1))
    return [sum(a * math.comb(n, k) for k, a in enumerate(newton)) for n in range(N + 1)]


@settings(max_examples=200, deadline=None)
@given(q_tables())
def test_absolute_monotonicity_matches_the_full_triangle(values):
    full = _full_triangle([F(v) for v in values])
    res = check_absolute_monotonicity(growth_of(values))
    assert res.holds == all(v >= 0 for row in full for v in row)
    if not res.holds:
        k = next(k for k, row in enumerate(full) if row[0] < 0)
        assert (res.first_violation, res.value) == ((k, 0), full[k][0])


def test_report_n_max_trimming():
    u = evaluate_on_ball(monomial_uk(2, 1), 9)
    rep = growth_report(u, n_max=5)
    assert rep.n_max == 5
    assert growth_report(u, n_max=0).newton == ()  # u(0) = 0: no difference row at all


@pytest.mark.parametrize(
    "u",
    [
        evaluate_on_ball(sk_polynomial(5), 14),
        evaluate_on_ball(random_harmonic(3, 4, 31), 9),
        # not harmonic: the cascade never reaches an all-zero order
        evaluate_on_ball(MultivariatePolynomial(2, {(3, 1): 1, (0, 2): F(-2, 3), (1, 0): 5}), 12),
    ],
)
def test_report_below_radius_equals_truncated_full_report(u):
    full = growth_report(u)
    for N in range(u.R):
        rep = growth_report(u, N)
        assert [rep.Q(n) for n in range(N + 1)] == [full.Q(n) for n in range(N + 1)]
        assert padded(rep.newton, N) == padded(full.newton, u.R)[: N + 1]
        assert _newton_via_laplacian(u, N=N) == _newton_via_laplacian(u)[: N + 1]
        assert (rep.d, rep.n_max) == (full.d, N)


# -- growth polynomial of polynomial inputs -------------------------------------------------


@pytest.mark.parametrize(
    "P",
    [
        random_harmonic(2, 4, 11),
        random_harmonic(2, 5, 12),
        random_harmonic(3, 3, 13),
        random_harmonic(3, 4, 14),
        # not harmonic: Q(n) = sum a_k C(n, k) holds for any polynomial
        MultivariatePolynomial.variable(2, 0) * MultivariatePolynomial.variable(2, 0)
        + MultivariatePolynomial.variable(2, 1).scale(F(1, 3)),
    ],
)
def test_polynomial_report_matches_walk_route_beyond_2deg(P):
    N = 2 * P.degree + 7
    fast = growth_polynomial(P, N)
    u = evaluate_on_ball(P, N)
    walk = growth_report(u)
    assert [fast.Q(n) for n in range(N + 1)] == [walk.Q(n) for n in range(N + 1)]
    assert fast.newton == walk.newton
    assert fast.to_json(N, include_newton=True) == walk.to_json(N, include_newton=True)
    assert padded(fast.newton, N) == _newton_via_laplacian(u)


@pytest.mark.parametrize("N", [0, 3, 8, 15])
def test_polynomial_report_takes_no_differences(monkeypatch, N):
    P = random_harmonic(2, 5, 12)
    walk = growth_report(evaluate_on_ball(P, N))
    grown = growth_polynomial(P)

    def refuse(values):
        raise AssertionError("a growth polynomial knows its a_k; it takes no differences")

    monkeypatch.setattr(growth, "_difference_triangle", refuse)
    assert grown.to_json(N, include_newton=True) == walk.to_json(N, include_newton=True)


@st.composite
def growth_inputs(draw):
    """(P, N): P random harmonic or any rational, d <= 3, deg <= 4; N <= 2 deg + 5."""
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        P = random_harmonic(d, draw(st.integers(0, 4)), draw(st.integers(0, 10**6)))
    else:
        exponents = st.lists(st.integers(0, 4), min_size=d, max_size=d).filter(
            lambda a: sum(a) <= 4
        )
        coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6)
        terms = draw(st.dictionaries(exponents.map(tuple), coeffs, max_size=6))
        P = MultivariatePolynomial(d, terms)
    return P, draw(st.integers(0, 2 * max(P.degree, 0) + 5))


@settings(max_examples=60, deadline=None)
@given(growth_inputs())
def test_growth_polynomial_matches_walk_route(case):
    P, N = case
    walk = growth_report(evaluate_on_ball(P, N))
    full, part = growth_polynomial(P), growth_polynomial(P, N)
    values = [walk.Q(n) for n in range(N + 1)]
    assert [full.Q(n) for n in range(N + 1)] == values
    assert [part.Q(n) for n in range(N + 1)] == values
    assert part.to_json(N, include_newton=True) == walk.to_json(N, include_newton=True)
    # growth_polynomial reads B_{M+1} only; the tail a_{M+1..N}, N <= 2M + 5, is checked here
    assert len(walk.newton) <= max(P.degree, 0) + 1


@pytest.mark.parametrize("n_max", [None, 0, 3, 5, 6, 7, 30])
def test_growth_polynomial_enumerates_b_min_n_max_deg_plus_one(monkeypatch, n_max):
    P = random_harmonic(2, 6, 5)  # M = 6, so M + 1 = 7
    radii = []

    def spy(P, R):
        radii.append(R)
        return evaluate_on_ball(P, R)

    monkeypatch.setattr(growth, "evaluate_on_ball", spy)
    grown = growth_polynomial(P, n_max)
    assert radii == [7 if n_max is None else min(n_max, 7)]
    assert grown.n_max == (None if radii[0] == 7 else n_max)


def test_partial_growth_polynomial_refuses_q_beyond_its_range():
    P = sk_polynomial(4)  # M = 4: a partial object for n_max <= 4
    part = growth_polynomial(P, 3)
    assert part.n_max == 3 and len(part.newton) == 4
    assert part.Q(3) == growth_polynomial(P).Q(3)
    with pytest.raises(OutOfRangeError):
        part.Q(4)
    with pytest.raises(OutOfRangeError):
        part.to_json(4)
    with pytest.raises(OutOfRangeError):
        part.continuous(1)
    assert growth_polynomial(P, 4).n_max == 4
    assert growth_polynomial(P, 5).n_max is None
    with pytest.raises(OutOfRangeError):
        growth_polynomial(P).Q(-1)


@pytest.mark.parametrize(
    "values",
    [
        [F(n * n * n - 2 * n, 3) for n in range(12)],  # a cubic: rows past 3 are zero
        [F(7)] * 9,
        [F(0)] * 5,
        [F(1)],
        [F(2) ** n for n in range(10)],  # no zero row
        [F(1, n + 1) for n in range(10)],
        [F(n % 3) for n in range(11)],
    ],
)
def test_early_stop_triangle_equals_full_triangle(values):
    newton, full = _difference_triangle(values), _full_triangle(values)
    assert newton == [row[0] for row in full[: len(newton)]]
    assert newton[-1:] != [0]  # the last a_k returned is nonzero
    assert not any(map(any, full[len(newton) :]))


# -- continuous-time growth ----------------------------------------------------------------


def test_continuous_growth_examples():
    c = MultivariatePolynomial.constant(2, F(5, 3))
    assert growth_polynomial(c).continuous_coeffs == (F(25, 9),)

    x = MultivariatePolynomial.variable(1, 0)
    assert growth_polynomial(x).continuous_coeffs == (F(0), F(1))

    xy = monomial_uk(2, 2)
    assert growth_polynomial(xy).continuous_coeffs == (F(0), F(0), F(1, 4))
    assert growth_polynomial(MultivariatePolynomial.zero(2)).continuous_json() == {
        "kind": "continuous_growth",
        "coeffs": ["0"],
    }


def test_continuous_growth_coefficients_nonnegative_and_scaled():
    p = sk_polynomial(4)
    qc = growth_polynomial(p)
    assert all(c >= 0 for c in qc.continuous_coeffs)
    qc2 = growth_polynomial(p.scale(3))
    assert tuple(9 * c for c in qc.continuous_coeffs) == qc2.continuous_coeffs


def test_continuous_growth_evaluation():
    qc = GrowthPolynomial(1, (F(1), F(0), F(4)))  # Qc(t) = 1 + 2 t^2
    assert qc.continuous(F(1, 2)) == F(3, 2)


# -- Monte Carlo oracle -------------------------------------------------------------------------


def test_monte_carlo_constant_exact():
    u = LatticeFunction.constant(LatticeBall(2, 5), 1)
    est = monte_carlo_Q(u, 3, 1000, seed=1)
    assert est.mean == 1
    assert est.stderr == 0.0


def test_monte_carlo_deterministic():
    u = evaluate_on_ball(monomial_uk(2, 2), 12)
    a = monte_carlo_Q(u, 6, 20000, seed=9)
    b = monte_carlo_Q(u, 6, 20000, seed=9)
    assert a == b
    c = monte_carlo_Q(u, 6, 20000, seed=10)
    assert a.mean != c.mean


def test_monte_carlo_agrees_with_exact_value():
    u = evaluate_on_ball(monomial_uk(2, 2), 12)
    est = monte_carlo_Q(u, 10, 200_000, seed=42)
    exact = growth_report(u, 10).Q(10)
    assert abs(float(est.mean - exact)) <= 5 * est.stderr
