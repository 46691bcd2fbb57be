"""Degree bounds and the vanishing-ball rigidity of harmonic polynomials.

For a lattice-harmonic polynomial u, every binomial coefficient of its
growth function is a non-negative multiple of an iterated-difference
square, so a degree-M harmonic polynomial vanishing on the ball of
radius M has identically zero growth function and must vanish
everywhere.  This module certifies that argument computationally and
computes the order at which all iterated directional differences of a
polynomial die.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HarmError, HarmonicityError, InvalidParameterError, VanishingHypothesisError
from .growth import growth_report, harmonic_growth_polynomial
from .polynomials import (
    MultivariatePolynomial,
    discrete_laplacian,
    evaluate_on_ball,
    is_harmonic_poly,
)


def _directional_difference_poly(P: MultivariatePolynomial, axis: int, sign: int):
    return P.shift(axis, sign) - P


def degree_bound(P: MultivariatePolynomial) -> int:
    """Minimal k such that every k-fold directional difference of P vanishes.

    Equals deg(P) + 1 for nonzero polynomials (0 for the zero
    polynomial).  Requires P lattice-harmonic.  The table of P on
    B_{deg+1} that decides it also cross-checks that the iterated
    Laplacian values of P^2 at the origin vanish above the degree (walk
    route against cascade, vanishing a_{deg+1}).
    """
    if harmonic_growth_polynomial(P) is None:
        raise HarmonicityError("degree bound is stated for harmonic polynomials")
    if P.is_zero():
        return 0
    deg = P.degree
    current = {P.canonical_key(): P}
    k = 0
    while current:
        k += 1
        if k > deg + 1:
            raise HarmError("difference cascade failed to terminate at deg + 1")
        nxt: dict = {}
        for poly in current.values():
            for axis in range(P.d):
                for sign in (1, -1):
                    q = _directional_difference_poly(poly, axis, sign)
                    if not q.is_zero():
                        nxt[q.canonical_key()] = q
        current = nxt
    return k


@dataclass(frozen=True)
class VanishingBallReport:
    """Certificate that a harmonic polynomial vanishing on B_M is zero."""

    confirmed: bool
    M: int
    newton_coefficients_checked: int
    formal_tail_zero: bool

    def to_json(self) -> dict:
        return {
            "confirmed": self.confirmed,
            "M": self.M,
            "newton_coefficients_checked": self.newton_coefficients_checked,
            "formal_tail_zero": self.formal_tail_zero,
        }


def vanishing_ball_test(P: MultivariatePolynomial, M: int | None = None) -> VanishingBallReport:
    """Certify that a degree <= M harmonic polynomial vanishing on B_M is 0.

    Checks the hypotheses exactly (harmonicity as a polynomial identity,
    vanishing by evaluation on B_M, the degree bound), then verifies the
    growth coefficients: orders k <= M vanish because they only read the
    zero values on B_M, orders k > M vanish because the k-th Laplacian
    power of a degree <= 2M polynomial is identically zero, checked
    formally.  A zero growth function forces u = 0 everywhere.

    Raises :class:`VanishingHypothesisError` with a witness point when
    the polynomial does not vanish on B_M.
    """
    if not is_harmonic_poly(P):
        raise HarmonicityError("vanishing-ball rigidity is stated for harmonic polynomials")
    deg = P.degree
    if M is None:
        M = max(deg, 0)
    if M < 0:
        raise InvalidParameterError("M must be non-negative")
    if deg > M:
        raise InvalidParameterError(f"polynomial has degree {deg} > M = {M}")
    u = evaluate_on_ball(P, M)
    for point, v in u.items():
        if v != 0:
            raise VanishingHypothesisError(
                f"polynomial does not vanish on B_{M}: value {v} at {point}", point, v
            )
    if growth_report(u).newton:  # a_0..a_M, both routes checked; empty when Q = 0
        raise HarmError("nonzero growth coefficient despite vanishing on the ball")
    # orders above M: (M+1)-fold Laplacian of u^2 is formally zero
    square = P * P
    for _ in range(M + 1):
        square = discrete_laplacian(square)
    if not square.is_zero():
        raise HarmError("Laplacian power of the square fails to vanish beyond M")
    if not P.is_zero():
        raise HarmError("hypotheses verified but polynomial is not identically zero")
    return VanishingBallReport(True, M, M + 1, True)
