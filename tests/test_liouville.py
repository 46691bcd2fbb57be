"""Degree bounds and vanishing-ball rigidity."""

import pytest

from harmlat import (
    HarmonicityError,
    InvalidParameterError,
    MultivariatePolynomial,
    ResourceLimitError,
    VanishingHypothesisError,
    degree_bound,
    monomial_uk,
    sk_polynomial,
    tk_polynomial,
    vanishing_ball_test,
)

X = MultivariatePolynomial.variable(2, 0)
Y = MultivariatePolynomial.variable(2, 1)


def test_degree_bound_evaluates_once(evaluation_radii):
    # one table of S_7 on B_8 decides harmonicity and gives the cross-check
    assert degree_bound(sk_polynomial(7)) == 8
    assert evaluation_radii == [8]


def test_degree_bound_examples():
    assert degree_bound(MultivariatePolynomial.constant(2, 7)) == 1
    assert degree_bound(monomial_uk(2, 2)) == 3
    assert degree_bound(sk_polynomial(5)) == 6
    assert degree_bound(MultivariatePolynomial.zero(2)) == 0


@pytest.mark.parametrize(
    "poly",
    [sk_polynomial(k) for k in range(1, 6)]
    + [tk_polynomial(k) for k in range(1, 5)]
    + [monomial_uk(3, 3)],
)
def test_degree_bound_is_degree_plus_one(poly):
    assert degree_bound(poly) == poly.degree + 1


def test_degree_bound_requires_harmonic():
    with pytest.raises(HarmonicityError):
        degree_bound(X * X)


def test_vanishing_zero_polynomial_confirmed():
    report = vanishing_ball_test(MultivariatePolynomial.zero(2), M=3)
    assert report.confirmed and report.formal_tail_zero


def test_vanishing_cancelling_expression_confirmed():
    p = X * Y - X * Y  # normalizes to zero
    report = vanishing_ball_test(p)
    assert report.confirmed


def test_vanishing_s3_rejected_with_witness():
    s3 = sk_polynomial(3)
    with pytest.raises(VanishingHypothesisError) as info:
        vanishing_ball_test(s3, M=3)
    witness = info.value.witness
    assert s3.evaluate(witness) == info.value.value != 0
    assert sum(abs(c) for c in witness) <= 3


def test_vanishing_degree_guard():
    with pytest.raises(InvalidParameterError):
        vanishing_ball_test(sk_polynomial(4), M=2)


def test_vanishing_requires_harmonic():
    with pytest.raises(HarmonicityError):
        vanishing_ball_test(X * X, M=2)


def test_vanishing_ball_respects_the_cell_cap(monkeypatch):
    monkeypatch.setenv("HARM_MAX_CELLS", "100")
    with pytest.raises(ResourceLimitError):
        vanishing_ball_test(MultivariatePolynomial.zero(2), 20)  # B_20 of Z^2: 841 cells
    assert vanishing_ball_test(MultivariatePolynomial.zero(2), 6).confirmed  # 85 cells
