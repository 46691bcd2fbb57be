"""Degree bounds and vanishing-ball rigidity."""

import subprocess
import sys

import pytest

from harmlat import (
    HarmonicityError,
    InvalidParameterError,
    MultivariatePolynomial,
    ResourceLimitError,
    VanishingHypothesisError,
    degree_bound,
    evaluate_on_ball,
    monomial_uk,
    sk_polynomial,
    tk_polynomial,
    vanishing_ball_test,
)
from harmlat.lattice import sos_laplacian_power

from conftest import _child_env

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
    "source",
    [f"sk_polynomial({k})" for k in (1, 2, 3, 4, 5, 40)]
    + [f"tk_polynomial({k})" for k in (1, 2, 3, 4, 31)]
    + ["monomial_uk(3, 3)", "monomial_uk(6, 6)", "random_harmonic(3, 6, 201)"],
)
def test_degree_bound_is_degree_plus_one(source):
    # in a child under a timeout, so a degree bound that blows up fails instead of hanging
    code = f"from harmlat import *; P = {source}; print(degree_bound(P), P.degree + 1)"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=30
    )
    assert res.returncode == 0, res.stderr
    bound, expected = map(int, res.stdout.split())
    assert bound == expected


@pytest.mark.parametrize(
    "poly",
    [sk_polynomial(k) for k in range(1, 7)] + [tk_polynomial(k) for k in range(1, 7)]
    + [monomial_uk(3, 3)],
)
def test_degree_bound_agrees_with_sum_of_squares(poly):
    # the reference expands L^k(u^2)(0) as a sum of squared k-fold differences
    deg = poly.degree
    u = evaluate_on_ball(poly, deg + 1)
    assert sos_laplacian_power(u, deg) != 0
    assert sos_laplacian_power(u, deg + 1) == 0
    assert degree_bound(poly) == deg + 1


def test_degree_bound_requires_harmonic():
    with pytest.raises(HarmonicityError):
        degree_bound(X * X)


def test_vanishing_zero_polynomial_confirmed():
    assert vanishing_ball_test(MultivariatePolynomial.zero(2), M=3) == 3


def test_vanishing_cancelling_expression_confirmed():
    p = X * Y - X * Y  # normalizes to zero; M defaults to max(deg, 0)
    assert vanishing_ball_test(p) == 0


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


def test_vanishing_checks_parameters_before_harmonicity():
    with pytest.raises(InvalidParameterError):
        vanishing_ball_test(X * X * X, M=2)
    with pytest.raises(InvalidParameterError):
        vanishing_ball_test(X * X, M=-1)


def test_vanishing_ball_test_evaluates_once(evaluation_radii):
    s30 = sk_polynomial(30)
    with pytest.raises(VanishingHypothesisError) as info:
        vanishing_ball_test(s30)
    assert info.value.witness == (-30, 0)
    assert s30.evaluate(info.value.witness) == info.value.value
    assert evaluation_radii == [30]
    evaluation_radii.clear()
    assert vanishing_ball_test(MultivariatePolynomial.zero(2), 40) == 40
    assert evaluation_radii == [40]


def test_vanishing_at_m0_reads_only_the_origin():
    # B_1 is evaluated to decide harmonicity; vanishing is read on B_0
    assert vanishing_ball_test(MultivariatePolynomial.zero(3), 0) == 0
    with pytest.raises(VanishingHypothesisError) as info:
        vanishing_ball_test(MultivariatePolynomial.constant(3, 2), 0)
    assert info.value.witness == (0, 0, 0)


def test_vanishing_requires_harmonic():
    with pytest.raises(HarmonicityError):
        vanishing_ball_test(X * X, M=2)


def test_vanishing_ball_respects_the_cell_cap(monkeypatch):
    monkeypatch.setenv("HARM_MAX_CELLS", "100")
    with pytest.raises(ResourceLimitError):
        vanishing_ball_test(MultivariatePolynomial.zero(2), 20)  # B_20 of Z^2: 841 cells
    assert vanishing_ball_test(MultivariatePolynomial.zero(2), 6) == 6  # 85 cells
