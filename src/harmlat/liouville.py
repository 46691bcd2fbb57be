"""Degree bounds and the vanishing-ball rigidity of harmonic polynomials.

Both certificates read the growth polynomial Q(n) = sum_k a_k C(n, k)
of a lattice-harmonic P, built from one table of P.  For harmonic u the
sum-of-squares identity gives

    a_k = L^k(u^2)(0) = (2d)^(-k) sum_{s_1..s_k} u_{s_1..s_k}(0)^2,

over the 2d unit steps s_i, with u_s(x) = u(x + s) - u(x).  So a_k = 0
exactly when every k-fold difference of u vanishes at the origin, and
the a_k say how far the differences of P live (:func:`degree_bound`)
and that a P vanishing on B_M, M >= deg P, is zero
(:func:`vanishing_ball_test`).  Each call evaluates P on one ball:
B_(deg+1) for the degree bound, B_max(M,1) for the vanishing ball, and
the same table decides harmonicity.  No formal polynomial cascade runs.
"""

from __future__ import annotations

from .errors import HarmError, HarmonicityError, InvalidParameterError, VanishingHypothesisError
from .growth import growth_report, harmonic_growth_polynomial
from .lattice import is_harmonic
from .polynomials import MultivariatePolynomial, evaluate_on_ball


def degree_bound(P: MultivariatePolynomial) -> int:
    """Minimal k such that every k-fold directional difference of P vanishes identically.

    Requires P lattice-harmonic; equals deg(P) + 1 (0 for the zero
    polynomial) and is read as the number of a_0..a_m, m the last nonzero
    one, of the growth polynomial of P, on one table of P on B_(deg+1):

    - by the sum-of-squares identity a_j = 0 for every j >= k exactly
      when every j-fold difference of P vanishes at 0, for every j >= k;
    - then every k-fold difference D vanishes identically: its forward
      differences along the +e_i at 0 are (k + |b|)-fold differences of
      P at 0, all zero, so its Newton interpolation
      D(x) = sum_b Delta^b D(0) prod_i C(x_i, b_i) is zero;
    - a_deg > 0 for a nonzero P: for a top monomial c_a x^a of P,
      Delta^a P = a! c_a, since Delta^a kills every other monomial of
      degree <= deg.

    A length other than deg + 1 is an internal inconsistency.
    """
    growth = harmonic_growth_polynomial(P)
    if growth is None:
        raise HarmonicityError("degree bound is stated for harmonic polynomials")
    k = len(growth.newton)
    if k != P.degree + 1:
        raise HarmError(f"growth polynomial has {k} coefficients, not deg + 1 = {P.degree + 1}")
    return k


def vanishing_ball_test(P: MultivariatePolynomial, M: int | None = None) -> int:
    """Certify that a degree <= M harmonic polynomial vanishing on B_M is 0; returns M.

    Checks the parameters first (M >= 0, deg P <= M; M defaults to
    deg P), then evaluates P once, on B_R with R = max(M, 1).  That table
    decides harmonicity, since L P has degree <= M - 2 and is read on
    B_(R-1), which holds the simplex {x >= 0, |x|_1 <= M - 2}; a zero
    table needs no Laplacian.  It decides vanishing, read at the points
    with |x|_1 <= M, and its growth report gives a_0..a_M, which only
    read those zero values.  The a_k with k > M vanish because L^k lowers
    the degree of P^2 <= 2M by 2k, the degree argument of
    :func:`harmlat.growth.growth_polynomial`.  A zero growth function
    forces u = 0 everywhere.

    Every failure raises, so the certified radius M is all it returns:
    :class:`VanishingHypothesisError`, with a witness point, when the
    polynomial does not vanish on B_M.
    """
    deg = P.degree
    if M is None:
        M = max(deg, 0)
    if M < 0:
        raise InvalidParameterError("M must be non-negative")
    if deg > M:
        raise InvalidParameterError(f"polynomial has degree {deg} > M = {M}")
    u = evaluate_on_ball(P, max(M, 1))
    if not u.is_zero():  # a zero table is harmonic and vanishes on B_M
        if not is_harmonic(u):
            raise HarmonicityError("vanishing-ball rigidity is stated for harmonic polynomials")
        # B_R is B_M for M >= 1; for M = 0 a nonzero harmonic P is a nonzero constant
        point, v = next((p, v) for p, v in u.items() if v and sum(map(abs, p)) <= M)
        raise VanishingHypothesisError(
            f"polynomial does not vanish on B_{M}: value {v} at {point}", point, v
        )
    if growth_report(u, M).newton:  # a_0..a_M, both routes checked; empty when Q = 0
        raise HarmError("nonzero growth coefficient despite vanishing on the ball")
    if not P.is_zero():
        raise HarmError("hypotheses verified but polynomial is not identically zero")
    return M
