"""Lattice functions, the probabilistic Laplacian and the sum-of-squares identity."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlat import (
    DomainTooSmallError,
    HarmonicityError,
    InvalidGeneratorError,
    InvalidParameterError,
    LatticeBall,
    LatticeFunction,
    ResourceLimitError,
    UsageError,
    directional_difference,
    evaluate_on_ball,
    is_harmonic,
    laplacian,
    laplacian_power,
    monomial_uk,
    sk_polynomial,
    sos_laplacian_power,
)
from harmlat.balls import ball_point_count, ball_points, unit_steps


def table(d, R, fn):
    ball = LatticeBall(d, R)
    return LatticeFunction.from_values(ball, [fn(p) for p in ball.points])


def naive_laplacian_value(u, x):
    """Independent oracle: direct neighbor average minus center."""
    d = u.d
    acc = F(0)
    for s in unit_steps(d):
        acc += u.value(tuple(a + b for a, b in zip(x, s)))
    return acc / (2 * d) - u.value(x)


# -- balls -------------------------------------------------------------------


def test_ball_point_count_matches_enumeration():
    for d in (1, 2, 3, 4):
        for R in (0, 1, 2, 5):
            assert ball_point_count(d, R) == len(ball_points(d, R))


def test_ball_points_are_lex_sorted_and_within_radius():
    pts = ball_points(2, 3)
    assert list(pts) == sorted(pts)
    assert all(abs(x) + abs(y) <= 3 for x, y in pts)
    assert len(pts) == 25


def test_dimension_guard():
    with pytest.raises(InvalidParameterError):
        LatticeBall(9, 1)
    with pytest.raises(InvalidParameterError):
        LatticeBall(0, 1)


# -- laplacian ----------------------------------------------------------------


def test_laplacian_of_constant_is_zero():
    for d in (1, 2, 3):
        u = LatticeFunction.constant(LatticeBall(d, 3), F(7, 3))
        assert laplacian(u).is_zero()


def test_laplacian_of_x_squared_d1():
    # ((x+1)^2 + (x-1)^2)/2 - x^2 = 1
    u = table(1, 2, lambda p: F(p[0] ** 2))
    L = laplacian(u)
    assert L.values() == [F(1)] * 3
    assert not is_harmonic(u)


def test_laplacian_of_xy_d2_vanishes():
    u = table(2, 3, lambda p: F(p[0] * p[1]))
    L = laplacian(u)
    assert L.is_zero()
    # spot-check against the direct 4-neighbor oracle
    for x in ball_points(2, 2):
        assert naive_laplacian_value(u, x) == 0


def test_laplacian_matches_naive_oracle_on_arbitrary_table():
    u = table(2, 3, lambda p: F(p[0] ** 3 - 2 * p[1] + 1, 3))
    L = laplacian(u)
    for x in ball_points(2, 2):
        assert L.value(x) == naive_laplacian_value(u, x)


@st.composite
def tables(draw):
    """A random exact table on B_R of Z^d, d <= 3, 1 <= R <= 4."""
    ball = LatticeBall(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    values = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return LatticeFunction.from_values(
        ball, draw(st.lists(values, min_size=ball.point_count, max_size=ball.point_count))
    )


@settings(max_examples=60, deadline=None)
@given(tables())
def test_table_operators_match_pointwise_oracles(u):
    L = laplacian(u)
    diffs = {s: directional_difference(u, s) for s in unit_steps(u.d)}
    for x in ball_points(u.d, u.R - 1):
        assert L.value(x) == naive_laplacian_value(u, x)
        for s, diff in diffs.items():
            assert diff.value(x) == u.value(tuple(a + b for a, b in zip(x, s))) - u.value(x)


def test_laplacian_domain_guard():
    u = LatticeFunction.constant(LatticeBall(2, 0), 1)
    with pytest.raises(DomainTooSmallError):
        laplacian(u)
    with pytest.raises(DomainTooSmallError):
        is_harmonic(u)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.fractions(min_value=-10, max_value=10), min_size=13, max_size=13),
    st.lists(st.fractions(min_value=-10, max_value=10), min_size=13, max_size=13),
    st.fractions(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5),
)
def test_laplacian_linearity(vals_u, vals_v, a, b):
    ball = LatticeBall(2, 2)
    u = LatticeFunction.from_values(ball, vals_u)
    v = LatticeFunction.from_values(ball, vals_v)
    combo = u.scale(a).add(v.scale(b))
    assert laplacian(combo) == laplacian(u).scale(a).add(laplacian(v).scale(b))


# -- laplacian powers -----------------------------------------------------------


def test_laplacian_power_identity_at_zero():
    u = table(1, 3, lambda p: F(p[0]))
    assert laplacian_power(u, 0) == u


def test_laplacian_power_x2_twice_vanishes():
    u = table(1, 4, lambda p: F(p[0] ** 2))
    assert laplacian_power(u, 2).is_zero()


def test_laplacian_power_of_harmonic_square_nonnegative():
    u = evaluate_on_ball(monomial_uk(2, 2), 6)
    for k in range(0, 5):
        w = laplacian_power(u.square(), k)
        assert all(v >= 0 for v in w.values())


def test_laplacian_power_of_harmonic_square_nonnegative_full_depth():
    u = evaluate_on_ball(sk_polynomial(3), 8)
    square = u.square()
    for k in range(0, 9):
        assert all(v >= 0 for v in laplacian_power(square, k).values()), k


def test_laplacian_power_domain_guard():
    u = table(1, 2, lambda p: F(p[0]))
    with pytest.raises(DomainTooSmallError):
        laplacian_power(u, 3)
    with pytest.raises(InvalidParameterError):
        laplacian_power(u, -1)


# -- directional differences -------------------------------------------------------


def test_directional_difference_examples():
    c = LatticeFunction.constant(LatticeBall(2, 2), F(5))
    assert directional_difference(c, (1, 0)).is_zero()

    u = table(1, 3, lambda p: F(p[0]))
    assert directional_difference(u, (1,)).values() == [F(1)] * 5

    xy = table(2, 3, lambda p: F(p[0] * p[1]))
    diff = directional_difference(xy, (0, 1))  # x(y+1) - xy = x
    for p in ball_points(2, 2):
        assert diff.value(p) == p[0]


def test_directional_difference_rejects_bad_generator():
    u = table(2, 2, lambda p: F(0))
    with pytest.raises(InvalidGeneratorError):
        directional_difference(u, (1, 1))
    with pytest.raises(InvalidGeneratorError):
        directional_difference(u, (2, 0))


def test_difference_of_harmonic_is_harmonic():
    u = evaluate_on_ball(sk_polynomial(4), 8)
    for s in unit_steps(2):
        assert is_harmonic(directional_difference(u, s))


# -- sum of squares ------------------------------------------------------------------


def test_sos_k0_is_square_at_origin():
    u = table(2, 2, lambda p: F(3 * p[0] - p[1] + 2, 2))  # affine, harmonic, u(0) = 1
    assert is_harmonic(u)
    assert sos_laplacian_power(u, 0) == u.value((0, 0)) ** 2 == 1
    w = evaluate_on_ball(monomial_uk(2, 1), 2)
    assert sos_laplacian_power(w, 0) == 0


def test_sos_d1_linear():
    u = table(1, 2, lambda p: F(p[0]))
    assert sos_laplacian_power(u, 1) == 1  # (1/2)(1^2 + (-1)^2)


def test_sos_xy_k2():
    u = evaluate_on_ball(monomial_uk(2, 2), 4)
    assert sos_laplacian_power(u, 2) == F(1, 2)
    assert laplacian_power(u.square(), 2).value((0, 0)) == F(1, 2)


@pytest.mark.parametrize(
    "poly,radius",
    [
        (monomial_uk(2, 2), 5),
        (sk_polynomial(3), 5),
        (sk_polynomial(4), 5),
        (monomial_uk(3, 3), 5),
    ],
)
def test_sos_equals_laplacian_power_at_origin(poly, radius):
    u = evaluate_on_ball(poly, radius)
    origin = tuple([0] * poly.d)
    for k in range(0, 5):
        assert sos_laplacian_power(u, k) == laplacian_power(u.square(), k).value(origin)


def test_sos_rejects_non_harmonic():
    u = table(1, 3, lambda p: F(p[0] ** 2))
    with pytest.raises(HarmonicityError):
        sos_laplacian_power(u, 1)


# -- harmonicity test ------------------------------------------------------------------


def test_is_harmonic_examples():
    assert is_harmonic(LatticeFunction.constant(LatticeBall(2, 2), 5))
    assert not is_harmonic(table(1, 2, lambda p: F(p[0] ** 2)))
    assert is_harmonic(table(2, 3, lambda p: F(p[0] ** 2 - p[1] ** 2)))


# -- representation and wire format ------------------------------------------------------


def test_values_stored_exactly_and_equality_pointwise():
    ball = LatticeBall(1, 1)
    u = LatticeFunction.from_values(ball, [F(1, 3), F(2, 6), F(1)])
    v = LatticeFunction.from_values(ball, [F(2, 6), F(1, 3), F(3, 3)])
    assert u == v
    w = LatticeFunction.from_values(ball, [F(1, 3), F(1, 3), F(999, 1000)])
    assert u != w


def test_json_round_trip():
    u = table(2, 2, lambda p: F(3 * p[0] - p[1], 7))
    obj = u.to_json()
    assert obj["d"] == 2 and obj["R"] == 2
    v = LatticeFunction.from_json(obj)
    assert u == v


def test_json_missing_point_requires_sparse():
    obj = {"d": 1, "R": 1, "entries": [[0, "1"]]}
    with pytest.raises(UsageError):
        LatticeFunction.from_json(obj)
    u = LatticeFunction.from_json(obj, sparse=True)
    assert u.value((0,)) == 1 and u.value((1,)) == 0


def test_json_rejects_outside_points_and_duplicates():
    with pytest.raises(UsageError):
        LatticeFunction.from_json({"d": 1, "R": 1, "entries": [[5, "1"]]}, sparse=True)
    with pytest.raises(UsageError):
        LatticeFunction.from_json(
            {"d": 1, "R": 0, "entries": [[0, "1"], [0, "2"]]}, sparse=True
        )


def test_json_cell_cap_checked_before_enumeration(monkeypatch):
    # the small case first: without the guard it fails fast instead of enumerating B_100000
    monkeypatch.setenv("HARM_MAX_CELLS", "4")
    with pytest.raises(ResourceLimitError):
        LatticeFunction.from_json({"d": 1, "R": 2, "entries": [[0, "1"]]}, sparse=True)
    monkeypatch.delenv("HARM_MAX_CELLS")
    huge = {"d": 2, "R": 100000, "entries": [[0, 0, "1"]]}
    with pytest.raises(ResourceLimitError):
        LatticeFunction.from_json(huge, sparse=True)
    with pytest.raises(ResourceLimitError):
        LatticeFunction.from_json(huge)
