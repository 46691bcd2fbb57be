"""Polynomial algebra, the F_k basis, discretization and the planar families."""

import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmlat import (
    HarmonicityError,
    InvalidParameterError,
    LatticeBall,
    LatticeFunction,
    MultivariatePolynomial,
    continuous_laplacian,
    correspondence,
    discrete_laplacian,
    evaluate_on_ball,
    fk_polynomial,
    harmonic_kernel_basis,
    is_harmonic,
    monomial_uk,
    random_harmonic,
    sk_polynomial,
    tk_polynomial,
)
from harmlat.balls import ball_points
from harmlat.polynomials import _remaining, _seeds, _surjection_counts, is_harmonic_poly

X2 = MultivariatePolynomial.variable(2, 0)
Y2 = MultivariatePolynomial.variable(2, 1)


def re_im_zk(k):
    """Oracle: real and imaginary parts of (x + iy)^k by iterated multiplication."""
    re = MultivariatePolynomial.constant(2, 1)
    im = MultivariatePolynomial.zero(2)
    for _ in range(k):
        re, im = re * X2 - im * Y2, re * Y2 + im * X2
    return re, im


# -- formal Laplacians ----------------------------------------------------------


def test_continuous_laplacian_examples():
    assert continuous_laplacian(X2 * X2 - Y2 * Y2).is_zero()
    assert continuous_laplacian(X2 * X2) == MultivariatePolynomial.constant(2, 2)
    p = X2 * X2 * X2 - 3 * (X2 * (Y2 * Y2))
    assert continuous_laplacian(p).is_zero()


def test_discrete_laplacian_consistent_with_lattice_operator():
    p = X2 * X2 * X2 + 2 * (X2 * Y2) - Y2
    formal = discrete_laplacian(p)
    u = evaluate_on_ball(p, 4)
    from harmlat import laplacian

    L = laplacian(u)
    for point in LatticeBall(2, 3).points:
        assert formal.evaluate(point) == L.value(point)


# -- the F_k basis -----------------------------------------------------------------


def test_fk_small_cases():
    f1 = fk_polynomial(1)
    assert f1 == MultivariatePolynomial.variable(1, 0)
    f2 = fk_polynomial(2)
    x = MultivariatePolynomial.variable(1, 0)
    assert f2 == (x * x - F(1, 4)) * F(1, 2)
    assert f2.evaluate([1]) == F(3, 8)
    f3 = fk_polynomial(3)
    assert f3 == (x + 1) * x * (x - 1) * F(1, 6)


def fk_by_linear_factors(k):
    """Oracle: F_k as the product of its k linear factors, by polynomial products."""
    x = MultivariatePolynomial.variable(1, 0)
    poly = MultivariatePolynomial.constant(1, 1)
    for j in range(k):
        poly = poly * (x + F(k - 1, 2) - j)
    return poly.scale(F(1, math.factorial(k)))


def fk_product_by_multiplication(alpha):
    """Oracle: F_alpha(x) = prod_l F_{alpha_l}(x_l) through MultivariatePolynomial products."""
    d = len(alpha)
    out = MultivariatePolynomial.constant(d, 1)
    for axis, a in enumerate(alpha):
        terms = {}
        for (e,), c in fk_by_linear_factors(a).terms.items():
            key = [0] * d
            key[axis] = e
            terms[tuple(key)] = c
        out = out * MultivariatePolynomial(d, terms)
    return out


def test_fk_integer_recurrence_matches_linear_factor_products():
    for k in range(41):
        assert fk_polynomial(k) == fk_by_linear_factors(k), k


def test_families_match_linear_factor_products():
    for k in range(0, 41, 3):
        s = MultivariatePolynomial.zero(2)
        for j in range(k // 2 + 1):
            s = s + fk_product_by_multiplication((k - 2 * j, 2 * j)).scale((-1) ** j)
        assert sk_polynomial(k) == s, k
    for k in range(1, 41, 3):
        t = MultivariatePolynomial.zero(2)
        for j in range((k - 1) // 2 + 1):
            t = t + fk_product_by_multiplication((k - 2 * j - 1, 2 * j + 1)).scale((-1) ** j)
        assert tk_polynomial(k) == t, k
    for d, M, seed in ((2, 5, 3), (3, 4, 4)):
        basis = harmonic_kernel_basis(d, M)
        P = sum((b.scale(i - 3) for i, b in enumerate(basis)), MultivariatePolynomial.zero(d))
        expected = MultivariatePolynomial.zero(d)
        for alpha, c in P.terms.items():
            weight = c * math.prod(map(math.factorial, alpha))
            expected = expected + fk_product_by_multiplication(alpha).scale(weight)
        assert correspondence(P) == expected


def test_fk_degree_and_leading_coefficient():
    for k in range(0, 13):
        p = fk_polynomial(k)
        assert p.degree == k
        assert p.terms[(k,)] == F(1, math.factorial(k))


def test_fk_laplacian_recursion():
    # lattice Laplacian in one variable halves the index by two
    for k in range(2, 13):
        lhs = discrete_laplacian(fk_polynomial(k))
        rhs = fk_polynomial(k - 2).scale(F(1, 2))
        assert lhs == rhs
    assert discrete_laplacian(fk_polynomial(0)).is_zero()
    assert discrete_laplacian(fk_polynomial(1)).is_zero()


def test_fk_forward_difference_identity():
    for k in range(1, 13):
        fk = fk_polynomial(k)
        forward = fk.shift(0, 1) - fk
        shifted = fk_polynomial(k - 1).shift(0, F(1, 2))
        assert forward == shifted


# -- discretization --------------------------------------------------------------------


def test_correspondence_examples():
    assert correspondence(X2) == X2
    p = X2 * X2 - Y2 * Y2
    assert correspondence(p) == p
    cubic = X2 * X2 * X2 - 3 * (X2 * (Y2 * Y2))
    assert correspondence(cubic) == sk_polynomial(3).scale(6)


def test_correspondence_rejects_non_harmonic_with_residual():
    with pytest.raises(HarmonicityError) as info:
        correspondence(X2 * X2)
    assert info.value.value == MultivariatePolynomial.constant(2, 2)


def test_correspondence_linear():
    p = X2 * X2 - Y2 * Y2
    q = X2 * Y2
    a, b = F(3, 2), F(-5, 7)
    combo = p.scale(a) + q.scale(b)
    assert correspondence(combo) == correspondence(p).scale(a) + correspondence(q).scale(b)


def test_correspondence_outputs_are_lattice_harmonic():
    for seed in (11, 12):
        for d in (2, 3):
            P = random_harmonic(d, 5, seed)
            assert is_harmonic_poly(P)
            assert is_harmonic(evaluate_on_ball(P, P.degree + 4))


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 3),
    degree=st.integers(0, 5),
    seed=st.integers(0, 2**32),
    alpha=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    coeff=st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
def test_table_harmonicity_equals_the_formal_laplacian(d, degree, seed, alpha, coeff):
    # a random harmonic polynomial, then one monomial added to it (coeff 0 adds nothing)
    P = random_harmonic(d, degree, seed)
    for poly in (P, P + MultivariatePolynomial(d, {tuple(alpha[:d]): coeff})):
        assert is_harmonic_poly(poly) == discrete_laplacian(poly).is_zero()


def test_re_im_discretization_gives_sk_tk():
    for k in range(1, 11):
        re, im = re_im_zk(k)
        assert correspondence(re) == sk_polynomial(k).scale(math.factorial(k))
        assert correspondence(im) == tk_polynomial(k).scale(math.factorial(k))


# -- planar families ---------------------------------------------------------------------


def test_sk_tk_small_cases():
    assert sk_polynomial(2) == (X2 * X2 - Y2 * Y2) * F(1, 2)
    assert tk_polynomial(1) == Y2
    assert sk_polynomial(0) == MultivariatePolynomial.constant(2, 1)


def test_s6_harmonic_on_large_ball():
    u = evaluate_on_ball(sk_polynomial(6), 20)
    assert is_harmonic(u)


def test_sk_tk_formal_harmonicity_and_degree():
    for k in range(0, 9):
        assert is_harmonic_poly(sk_polynomial(k))
        assert sk_polynomial(k).degree == k
    for k in range(1, 9):
        assert is_harmonic_poly(tk_polynomial(k))
        assert tk_polynomial(k).degree == k


def test_monomial_uk():
    assert monomial_uk(2, 1) == X2
    assert monomial_uk(2, 2) == X2 * Y2
    assert is_harmonic(evaluate_on_ball(monomial_uk(2, 2), 3))
    assert is_harmonic(evaluate_on_ball(monomial_uk(3, 3), 4))
    with pytest.raises(InvalidParameterError):
        monomial_uk(2, 3)


# -- evaluation ---------------------------------------------------------------------------


def test_evaluate_on_ball_examples():
    z = evaluate_on_ball(MultivariatePolynomial.zero(2), 2)
    assert z.is_zero()
    xy = evaluate_on_ball(monomial_uk(2, 2), 1)
    assert xy.values() == [F(0)] * 5
    f2 = evaluate_on_ball(fk_polynomial(2), 2)
    assert f2.values() == [F(15, 8), F(3, 8), F(-1, 8), F(3, 8), F(15, 8)]


def test_evaluate_on_ball_order_matches_pointwise_evaluation():
    p = X2 * X2 * Y2 - 3 * Y2 + F(1, 2) * X2
    u = evaluate_on_ball(p, 4)
    for point in LatticeBall(2, 4).points:
        assert u.value(point) == p.evaluate(point)
    q = random_harmonic(3, 4, 99)
    v = evaluate_on_ball(q, 3)
    for point in LatticeBall(3, 3).points:
        assert v.value(point) == q.evaluate(point)


@st.composite
def rational_polynomials(draw):
    """(P, R): P any rational polynomial of degree <= R + 3 in d <= 4 variables, R <= 6."""
    d = draw(st.integers(1, 4))
    R = draw(st.integers(0, 6))
    deg = draw(st.integers(0, R + 3))
    exponents = st.lists(st.integers(0, deg), min_size=d, max_size=d).filter(
        lambda a: sum(a) <= deg
    )
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    terms = draw(st.dictionaries(exponents.map(tuple), coeffs, max_size=8))
    return MultivariatePolynomial(d, terms), R


@settings(max_examples=120, deadline=None)
@given(rational_polynomials())
# (x^2 + x)/2 + 1 on B_2 of Z^1: its two parity components' seeds are
# coprime to the denominator 2, and only their sum is reduced by it
@example((MultivariatePolynomial(1, {(2,): F(1, 2), (1,): F(1, 2), (0,): 1}), 2))
def test_evaluate_on_ball_matches_pointwise_evaluate(case):
    P, R = case
    u = evaluate_on_ball(P, R)
    nums, den = u.scaled_values()
    assert math.gcd(den, *nums) == 1
    assert [F(n, den) for n in nums] == [P.evaluate(p) for p in ball_points(P.d, R)]


@st.composite
def shared_factor_polynomials(draw):
    """(P, R): integer coefficients times one common Fraction, d <= 3, R below and above deg P."""
    d = draw(st.integers(1, 3))
    deg = draw(st.integers(0, 5))
    R = draw(st.integers(0, deg + 2))
    exponents = st.lists(st.integers(0, deg), min_size=d, max_size=d).filter(
        lambda a: sum(a) <= deg
    )
    terms = draw(st.dictionaries(exponents.map(tuple), st.integers(-9, 9), max_size=6))
    factor = F(draw(st.sampled_from([1, 2, 3, 6, 15, 60])), draw(st.integers(1, 12)))
    return MultivariatePolynomial(d, {a: c * factor for a, c in terms.items()}), R


@settings(max_examples=120, deadline=None)
@given(shared_factor_polynomials())
def test_evaluate_on_ball_equals_reduced_pointwise_values(case):
    # the seeds no line reads are zeroed and the seed factor is divided
    # out: the fully reduced (nums, den) of the pointwise values, below
    # deg P and above it
    P, R = case
    ball = LatticeBall(P.d, R)
    assert evaluate_on_ball(P, R) == LatticeFunction.from_values(
        ball, [P.evaluate(p) for p in ball.points]
    )


def test_evaluate_on_ball_reduction_beyond_the_seeds():
    # -xy/2 vanishes on B_1 of Z^2, but its seeds there (the values of -x
    # on B_1 of Z^1) are coprime to the denominator 2; the -1 is of order 1
    # on the line x = 1, z = 0..0, which no value reads, and is zeroed
    P = MultivariatePolynomial(2, {(1, 1): F(-1, 2)})
    seeds = _seeds({(1, 1): -1}, 2, 1, _surjection_counts({1}, 1), _remaining(1, 1))
    assert seeds == [[0, 0], [0, -1]]
    assert math.gcd(2, *itertools.chain.from_iterable(seeds)) == 1
    assert evaluate_on_ball(P, 1).scaled_values() == ((0,) * 5, 1)


def test_evaluate_on_ball_of_a_high_degree_reads_orders_up_to_r_only():
    # a value at |z| <= R reads the forward differences of order <= R, so
    # degree 5000 on B_3 takes 4 orders, not 5001
    P = MultivariatePolynomial(1, {(5000,): F(1, 3), (4999,): -2, (7,): 5, (0,): 1})
    u = evaluate_on_ball(P, 3)
    assert [u.value(p) for p in ball_points(1, 3)] == [P.evaluate(p) for p in ball_points(1, 3)]
    Q = MultivariatePolynomial(2, {(30, 12): 1, (41, 0): F(-7, 2), (0, 3): 2, (1, 1): 1})
    v = evaluate_on_ball(Q, 3)
    assert [v.value(p) for p in ball_points(2, 3)] == [Q.evaluate(p) for p in ball_points(2, 3)]


def test_evaluate_on_ball_of_a_high_degree_keeps_only_its_exponents_rows():
    # the surjection table holds rows for the exponents of P, not for every
    # j <= deg P (about 500 MB of rows for x^50000)
    P = MultivariatePolynomial(1, {(50000,): F(1)})
    tracemalloc.start()
    try:
        u = evaluate_on_ball(P, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert [u.value(p) for p in ball_points(1, 3)] == [P.evaluate(p) for p in ball_points(1, 3)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("R", [0, 1, 5])
def test_evaluate_on_ball_zero_and_constants(d, R):
    count = LatticeBall(d, R).point_count
    assert evaluate_on_ball(MultivariatePolynomial.zero(d), R).scaled_values() == ((0,) * count, 1)
    c = evaluate_on_ball(MultivariatePolynomial.constant(d, F(-6, 4)), R)
    assert c.scaled_values() == ((-3,) * count, 2)


def test_evaluate_on_ball_z3_degree6_on_b80_samples():
    P = random_harmonic(3, 6, 2024)
    assert P.degree == 6
    u = evaluate_on_ball(P, 80)
    nums, den = u.scaled_values()
    pts = ball_points(3, 80)
    picks = [i for i, p in enumerate(pts) if max(map(abs, p)) in (0, 80)]
    assert len(picks) == 7  # the origin and the six axis endpoints
    picks += range(1, len(pts), 6151)
    for i in picks:
        assert F(nums[i], den) == P.evaluate(pts[i]), pts[i]


# -- random harmonic draws ------------------------------------------------------------------


def test_random_harmonic_deterministic():
    assert random_harmonic(2, 5, 1) == random_harmonic(2, 5, 1)
    assert random_harmonic(2, 5, 1) != random_harmonic(2, 5, 2)


def test_random_harmonic_m0_is_constant():
    p = random_harmonic(2, 0, 3)
    assert p.degree <= 0


# sha256 of json.dumps(random_harmonic(d, 6, seed).to_json()) for the corpus seeds of
# benchmark seeds 0 and 1, recorded from the elimination-based basis this recursion replaced
RANDOM_DIGESTS = {
    (2, 101): "b1e5047c28acaa478fae266f05ea342623650d9caf46c58cd6cabff6afaecbb5",
    (2, 102): "ec3c8f0d924ca7d7a430ccefd069266e9f32232375395691c057b6d160edd94a",
    (2, 103): "ced9dac4f5628c770b6aca2a496681bf19fc33e1ae74d0cbce10281fafffc65d",
    (2, 104): "495f73254d401c43b2f8b522fd43498f16f67dea40df315fde722f65ab87add5",
    (2, 105): "c20137d3675b1d86fc1c12c94e4d8ced22c273224ce69633eea323b6ad12aed9",
    (2, 1101): "5e03cb18cd2b8dc5965f9f393b48509b0f6952ed4581fcc9bcd1f1cfd56a58a6",
    (2, 1102): "61113d32e224bc4445bcae38433a6730c20ec58b4636b1d029f2b23bce0f02c4",
    (2, 1103): "cbb71ef2ae67377936ae3855f172a53e17d8fc0f4d9ed42557caef8287e5a3ff",
    (2, 1104): "06e1e9727d86103534c495aeb99fc80c91cf5861ce6a4e7441cebc42ca5a8a53",
    (2, 1105): "18243c41dcc27213b84ab56cc310b8af857429a99c7b165201aa1812d36b6bad",
    (3, 201): "242d19d6d7b1fc60464c79e4a92034fb764fe2f60c4c19cf408e73d8137af5a2",
    (3, 202): "988dfabe6a7896eda5b4c87c2d95f663d1100d2813b37783d92e2974b831ec4c",
    (3, 203): "6245e0a73c9673715b5aeb89f3f570d145e2be2766a91b3b8efa91f827193a0c",
    (3, 204): "fc1968616bd77c56a6f11a0f93804d3661ad64526d7f8d9ef2024c27b94aed97",
    (3, 205): "fc35b6d7cf991ea8d16d9a29f8697d482aaf63a98c3a5096635a314e27ddd132",
    (3, 1201): "2601e30be9b69620d0bfe6c05e24b691bcf1a0fcc40c2c930b9dab14c399527a",
    (3, 1202): "10aa8eadce5843a098e73bbfe551e13bd931d76b36cf89c0992bfa243c331055",
    (3, 1203): "30978c5c78878f0874f2292eabcd50751bdc4139a815fbcc829d12a76412c7f3",
    (3, 1204): "d75d0ce1066a290fc27f97aa4120b7b1720f4098af0670039c60bb14cf5183d5",
    (3, 1205): "f748fef04f305ee86380276240c6400385a54b9244020444dfc0e440ed684e11",
}


@pytest.mark.parametrize("d, seed", sorted(RANDOM_DIGESTS))
def test_random_harmonic_pinned(d, seed):
    text = json.dumps(random_harmonic(d, 6, seed).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_DIGESTS[d, seed]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 6))
def test_harmonic_kernel_basis_is_fixed_by_low_x_d_terms(d, M):
    basis = harmonic_kernel_basis(d, M)
    # the monomials of degree <= M with x_d-exponent <= 1, graded, then lex
    free = sorted(
        (a for a in itertools.product(range(M + 1), repeat=d) if sum(a) <= M and a[-1] <= 1),
        key=lambda a: (sum(a), a),
    )
    assert len(basis) == len(free)
    for alpha, b in zip(free, basis):
        assert continuous_laplacian(b).is_zero()
        assert {a: c for a, c in b.terms.items() if a[-1] <= 1} == {alpha: 1}


def test_harmonic_kernel_dimensions():
    # harmonic polynomials of degree <= M: 2M+1 in d=2, sum of (2m+1) in d=3
    assert len(harmonic_kernel_basis(2, 5)) == 11
    assert len(harmonic_kernel_basis(3, 2)) == 9
    for b in harmonic_kernel_basis(3, 3):
        assert continuous_laplacian(b).is_zero()


# -- wire format -------------------------------------------------------------------------------


def test_polynomial_json_round_trip():
    p = X2 * X2 - F(3, 7) * Y2
    obj = p.to_json()
    assert MultivariatePolynomial.from_json(obj) == p
