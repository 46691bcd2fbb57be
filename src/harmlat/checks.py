"""Certified verdicts for the log-convexity inequalities of growth functions.

Every checker compares an exact rational left-hand side against a right
hand side built from certified enclosures (exp, powers, square roots),
and every one runs the same precision ladder, :func:`_decide`: at 64,
128, ... bits up to the configured cap (default 256) it builds the two
enclosures of the right-hand side, the main term and the error term,
and stops at the first rung whose status rule decides; past the cap
the verdict is ``undecided``.  Only the status rule differs by form:

- sum, lhs <= sqrt(msq) + err, decided by comparing squares of rational
  bounds (msq is the squared main term);
- max, lhs <= max(sqrt(msq), err), the binomial max form;
- linear, lhs <= main + err, the aspect ratios;
- strict below, lhs < main, the degree hypothesis M^2 < n^(1-2eps) of
  the error-free form;
- open, which never decides: the error-free form's verdict when the cap
  leaves its degree hypothesis open.

A status rule compares integers: each bound a/b enters as its numerator
and denominator, and both sides are cross-multiplied, so deciding builds
no Fraction and reduces nothing by gcd.  A rung hands its products (a
cached enclosure times Q values) to the rule as unreduced integer pairs
((lo_num, lo_den), (hi_num, hi_den)), dens > 0, the only bound type a
rule takes.  A verdict's printed bounds are built only when
read: ``error_term`` is reduced on first access, and ``main`` (for the
sum and max forms the square root of the ladder's squared main term)
and ``margin`` are computed on first access and kept, so a caller that
reads only ``status`` never takes a square root.

The violation form of :func:`convexity_defect_check` is the sum rule
with ``holds`` and ``fails`` swapped and the margin negated when read.
A verdict of ``holds`` or ``fails`` is only issued when the enclosures
separate the two sides.  All comparisons are homogeneous in Q, so
verdicts are invariant under rescaling Q by a positive square.

The Q-independent constants of the right-hand sides (e^(n^-2eps), the
error units base^(-n^r) and 2^(-2n delta), the balancing exponent alpha,
and the aspect form's alpha, 1 - alpha and e^(c n^-2eps)) are the same
for every function checked at the same parameters, so each is memoized
in a small bounded cache; enclosures are frozen, so sharing them is
safe.  The violation form meets each of its constants once, so it calls
the enclosures directly; a conjecture scan row applies its status rule
once, at the cap, to the bound the row prints.

The counterexample search decides each candidate that reaches its
exact route once, by the ladder of :func:`convexity_defect_check`.  The
error term is non-negative, so where the main term alone reaches the
left-hand side the ladder's first rung certifies the violation false.
For C > 1 the search settles most such candidates first in fixed-point
integers, by an O(1) bound on the log of the squared ratio and then by a
running product of the ratio, so they never build a binomial.

The three-circles statement (1:2:4) is the 1:P:P^2 statement at P = 2,
and both checkers run one body with the hypothesis guard passed as data.
The guard is their only difference: three-circles needs n > 16 and
general-P n >= 4P^2, so at P = 2 only general-P admits n = 16.

A checker of Q takes ``growth``, any object whose ``Q(n)`` returns the
exact growth value at n (a :class:`harmlat.growth.GrowthPolynomial`),
and calls nothing else on it.  It checks its parameters and hypothesis
guard before its first ``Q`` call, so a refused check reads no growth
value.  Whether those values come from a function harmonic on the ball
the statement needs is the caller's obligation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional

from .enclosure import (
    RealEnclosure,
    _enclosure,
    _ends,
    _ln_fx,
    _mul_pairs,
    enclose_pow,
    exp_enclosure,
    ln_enclosure,
    pow_enclosure,
    rational_npow,
    sqrt_enclosure,
)
from .errors import HypothesisNotMetError, InvalidParameterError
from .rationals import format_int, format_rational

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided"

DEFAULT_PRECISION = 256
CONSTANT_CACHE_SIZE = 256


def _ladder(cap: int):
    if cap < 1:
        raise InvalidParameterError("precision cap must be >= 1")
    p = 64
    if cap <= p:
        yield cap
        return
    while p < cap:
        yield p
        p *= 2
    yield cap


@lru_cache(maxsize=CONSTANT_CACHE_SIZE)
def _exp_factor(n: int, eps: Fraction, prec: int) -> RealEnclosure:
    """e^(n^-2eps), the factor of the squared main term."""
    return exp_enclosure(rational_npow(n, -2 * eps, prec), prec)


@lru_cache(maxsize=CONSTANT_CACHE_SIZE)
def _error_unit(base, n: int, r: Fraction, prec: int) -> RealEnclosure:
    """base^(-n^r), the unit of the error term."""
    return enclose_pow(base, n, r, prec)


@lru_cache(maxsize=CONSTANT_CACHE_SIZE)
def _halving_unit(n: int, delta: Fraction, prec: int) -> RealEnclosure:
    """2^(-2n delta), the error unit of the perturbed ratios."""
    return pow_enclosure(Fraction(2), -2 * n * delta, prec)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one inequality check with its certified ingredients.

    ``margin`` is a certified bound on (rhs - lhs): non-negative when the
    statement holds, non-positive when it fails, zero when undecided.
    ``error_term`` is built from ``_err`` (its bounds as pairs) when
    first read; ``main`` and ``margin`` are built together by
    ``_bounds(error_term)`` when first read.  Both are then kept:
    deciding the status needs none of them.
    """

    status: str
    lhs: Fraction
    _err: object = field(repr=False, compare=False)
    _bounds: Callable[[RealEnclosure], tuple] = field(repr=False, compare=False)
    hypothesis_met: Optional[bool] = None
    note: str = ""
    precision_bits: int = 0

    @cached_property
    def error_term(self) -> RealEnclosure:
        return _enclosure(self._err)

    @cached_property
    def _built(self) -> tuple:
        return self._bounds(self.error_term)

    @property
    def main(self) -> RealEnclosure:
        return self._built[0]

    @property
    def margin(self) -> Fraction:
        return self._built[1]

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "lhs": format_rational(self.lhs),
            "main": self.main.to_json(),
            "error_term": self.error_term.to_json(),
            "margin": format_rational(self.margin),
            "hypothesis_met": self.hypothesis_met,
            "note": self.note,
            "precision_bits": self.precision_bits,
        }


_ZERO = ((0, 1), (0, 1))
_NEGATED = {HOLDS: FAILS, FAILS: HOLDS, UNDECIDED: UNDECIDED}


def _pair(*factors) -> tuple:
    """The product of rationals as an unreduced (num, den) pair, den > 0."""
    num = den = 1
    for q in factors:
        a, b = q.as_integer_ratio()
        num, den = num * a, den * b
    return num, den


def _times(enc: RealEnclosure, q: tuple) -> tuple:
    """The bounds of enc * q as unreduced pairs, for a (num, den) pair q."""
    return _mul_pairs(*_ends(enc), q, q)


def _sum_status(lhs: Fraction, msq, err) -> str:
    """Decide lhs <= sqrt(msq) + err by squared comparisons of bounds.

    With lhs = a/b and an error bound c/e, lhs - c/e = (ae - cb)/(be),
    and its square is compared with msq's bound f/g as (ae - cb)^2 g
    against f (be)^2.
    """
    a, b = lhs.as_integer_ratio()
    (f, g), (f_hi, g_hi) = msq
    (c, e), (c_hi, e_hi) = err
    top, den = a * e - c * b, b * e
    if top <= 0 or top * top * g <= f * den * den:
        return HOLDS
    top, den = a * e_hi - c_hi * b, b * e_hi
    if top > 0 and top * top * g_hi > f_hi * den * den:
        return FAILS
    return UNDECIDED


def _max_status(lhs: Fraction, msq, err) -> str:
    """Decide lhs <= max(sqrt(msq), err)."""
    a, b = lhs.as_integer_ratio()
    (f, g), (f_hi, g_hi) = msq
    (c, e), (c_hi, e_hi) = err
    if a * a * g <= f * b * b or a * e <= c * b:
        return HOLDS
    if a * a * g_hi > f_hi * b * b and a * e_hi > c_hi * b:
        return FAILS
    return UNDECIDED


def _linear_status(lhs: Fraction, main, err) -> str:
    """Decide lhs <= main + err: a/b against f/g + c/e as a g e against (f e + c g) b."""
    a, b = lhs.as_integer_ratio()
    (f, g), (f_hi, g_hi) = main
    (c, e), (c_hi, e_hi) = err
    if a * g * e <= (f * e + c * g) * b:
        return HOLDS
    if a * g_hi * e_hi > (f_hi * e_hi + c_hi * g_hi) * b:
        return FAILS
    return UNDECIDED


def _below_status(lhs: Fraction, main, err) -> str:
    """Decide lhs < main strictly; err takes no part."""
    a, b = lhs.as_integer_ratio()
    (f, g), (f_hi, g_hi) = main
    if a * g < f * b:
        return HOLDS
    if f_hi * b <= a * g_hi:
        return FAILS
    return UNDECIDED


def _open_status(lhs: Fraction, main, err) -> str:
    """Decide nothing: the verdict of a check whose hypothesis is open."""
    return UNDECIDED


def _decide(lhs: Fraction, rung, precision: int, status_of) -> tuple:
    """The precision ladder shared by every checker.

    ``rung(p)`` returns the enclosures (main, err) of the right-hand side
    at precision p, each as its bounds' (num, den) pairs;
    ``status_of(lhs, main, err)`` is the form's status rule.  Returns
    (status, main, err, p) at the first rung that decides, or at the
    cap's rung with status ``undecided``.
    """
    for p in _ladder(precision):
        main, err = rung(p)
        status = status_of(lhs, main, err)
        if status != UNDECIDED:
            break
    return status, main, err, p


def _verdict(
    lhs: Fraction,
    rung,
    precision: int,
    status_of,
    hypothesis_met: Optional[bool],
    note: str,
    combine=operator.add,
    squared: bool = True,
) -> Verdict:
    """Run :func:`_decide`; the margin combine(main, err) - lhs is certified when read.

    With ``squared`` the ladder's main term is the square of the
    verdict's main term (the sum and max forms).
    """
    status, main, err, prec = _decide(lhs, rung, precision, status_of)

    def bounds(err):
        root = _enclosure(main)
        if squared:
            root = sqrt_enclosure(root, prec)
        if status == HOLDS:
            margin = max(Fraction(0), combine(root.lo, err.lo) - lhs)
        elif status == FAILS:
            margin = min(Fraction(0), combine(root.hi, err.hi) - lhs)
        else:
            margin = Fraction(0)
        return root, margin

    return Verdict(status, lhs, err, bounds, hypothesis_met, note, prec)


def _error_form_rung(n: int, eps: Fraction, base, q_inner: Fraction, q_outer: Fraction):
    """rung(p) of the forms with error term: the squared main term
    e^(n^-2eps) q_inner q_outer and the error term base^(-n^(1/2-eps)) q_outer."""
    product, outer = _pair(q_inner, q_outer), _pair(q_outer)
    r = Fraction(1, 2) - eps

    def rung(p):
        return _times(_exp_factor(n, eps, p), product), _times(_error_unit(base, n, r, p), outer)

    return rung


def _check_eps(eps, hi_strict=False):
    eps = Fraction(eps)
    if not 0 <= eps <= Fraction(1, 2) or (hi_strict and eps == Fraction(1, 2)):
        bound = "[0, 1/2)" if hi_strict else "[0, 1/2]"
        raise InvalidParameterError(f"eps must lie in {bound}, got {eps}")
    return eps


# -- the 1:P:P^2 inequality with error term ------------------------------------------


def _one_p_p2_check(growth, n: int, P, eps, precision: int, explore: bool, guard) -> Verdict:
    """Check Q(floor(Pn)) <= sqrt(e^(n^-2eps) Q(n) Q(ceil(P^2 n))) + P^(-n^(1/2-eps)) Q(ceil(P^2 n)).

    ``guard`` = (met, needs, outside) is the hypothesis guard as data:
    whether n meets it, the requirement a refusal names and the
    condition an explored verdict's note names.
    """
    met, needs, outside = guard
    eps = _check_eps(eps)
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if not met and not explore:
        raise HypothesisNotMetError(
            f"the guarantee needs {needs} (got n={n}); pass explore=True to check anyway"
        )
    note = "" if met else f"outside guarantee hypotheses ({outside}): empirical check"
    q_n, q_mid, q_outer = growth.Q(n), growth.Q(math.floor(P * n)), growth.Q(math.ceil(P * P * n))

    rung = _error_form_rung(n, eps, P, q_n, q_outer)
    return _verdict(q_mid, rung, precision, _sum_status, met, note)


def three_circles_check(
    growth, n: int, eps, precision: int = DEFAULT_PRECISION, explore: bool = False
) -> Verdict:
    """Check Q(2n) <= sqrt(e^(n^-2eps) Q(n) Q(4n)) + 2^(-n^(1/2-eps)) Q(4n).

    Guaranteed for harmonic u when n > 16; smaller n need ``explore=True``
    and are marked as outside the hypotheses.  The body is
    :func:`general_P_check`'s at P = 2 and only the guard differs: that
    one admits n = 16 = 4P^2, this one does not.
    """
    return _one_p_p2_check(growth, n, 2, eps, precision, explore, (n > 16, "n > 16", "n <= 16"))


def general_P_check(
    growth, n: int, P, eps, precision: int = DEFAULT_PRECISION, explore: bool = False
) -> Verdict:
    """Check Q(floor(Pn)) <= sqrt(e^(n^-2eps) Q(n) Q(ceil(P^2 n))) + P^(-n^(1/2-eps)) Q(ceil(P^2 n)).

    Guaranteed for harmonic u when n >= 4P^2.  The body is
    :func:`three_circles_check`'s at P = 2 and only the guard differs:
    this one admits n = 16 = 4P^2 with ``hypothesis_met`` True, that one
    needs n > 16.
    """
    P = Fraction(P)
    if P <= 1:
        raise InvalidParameterError("P must be > 1")
    bound = 4 * P * P
    guard = (n >= bound, f"n >= 4P^2 = {bound}", "n < 4P^2")
    return _one_p_p2_check(growth, n, P, eps, precision, explore, guard)


# -- the underlying binomial inequality ----------------------------------------------


@dataclass(frozen=True)
class BinomialCheckResult:
    plain: Verdict
    max_form: Verdict


def binomial_inequality_check(
    n: int, k: int, P, eps, precision: int = DEFAULT_PRECISION
) -> BinomialCheckResult:
    """Check the per-degree binomial inequality behind the growth statements.

    Plain form:
        binom(floor(Pn), k) <= sqrt(e^(n^-2eps) binom(n,k) binom(ceil(P^2 n), k))
                               + P^(-n^(1/2-eps)) binom(ceil(P^2 n), k)

    Max form (strictly stronger, what the proof actually establishes):
        LHS <= max(sqrt-term, error-term).
    """
    if n < 0 or k < 0:
        raise InvalidParameterError("n and k must be non-negative")
    P = Fraction(P)
    if P <= 1:
        raise InvalidParameterError("P must be > 1")
    eps = _check_eps(eps)
    mid = math.floor(P * n)
    outer = math.ceil(P * P * n)
    lhs = Fraction(math.comb(mid, k))
    b_n = Fraction(math.comb(n, k))
    b_outer = Fraction(math.comb(outer, k))

    if n == 0:
        # degenerate: 1 <= 1 (k = 0) or 0 <= 0; constants only help
        msq = (_pair(b_n, b_outer),) * 2

        def rung(p):
            return msq, _ZERO

    else:
        rung = _error_form_rung(n, eps, P, b_n, b_outer)
    plain = _verdict(lhs, rung, precision, _sum_status, True, "")
    note = "max-form (strengthened)"
    max_form = _verdict(lhs, rung, precision, _max_status, True, note, combine=max)
    return BinomialCheckResult(plain, max_form)


# -- error term omitted under a degree bound --------------------------------------------


def no_error_check(
    growth, M: int, n: int, eps, precision: int = DEFAULT_PRECISION
) -> Verdict:
    """Check Q(2n) <= sqrt(e^(n^-2eps) Q(n) Q(4n)) without the error term.

    Valid for harmonic polynomials of degree M once n^(1-2eps) > M^2 and
    n > 16; outside that region a HypothesisNotMetError is raised (the
    hypothesis is itself decided by certified enclosures).  When the
    precision cap leaves the degree hypothesis open, the verdict is
    ``undecided``: a larger cap may decide it.
    """
    eps = _check_eps(eps, hi_strict=True)
    if M < 0:
        raise InvalidParameterError("degree M must be non-negative")
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if n <= 16:
        raise HypothesisNotMetError(f"needs n > 16, got n={n}")
    expo = 1 - 2 * eps
    target = Fraction(M * M)
    met, _, _, met_p = _decide(
        target, lambda p: (_ends(rational_npow(n, expo, p)), _ZERO), precision, _below_status
    )
    if met == FAILS:
        raise HypothesisNotMetError(f"needs n^(1-2eps) > M^2: n={n}, eps={eps}, M={M}")
    q_n, q_2n, q_4n = growth.Q(n), growth.Q(2 * n), growth.Q(4 * n)
    product = _pair(q_n, q_4n)

    def rung(p):
        return _times(_exp_factor(n, eps, p), product), _ZERO

    if met == UNDECIDED:  # open only at the cap's rung, where this verdict stops too
        note = f"no-error form: degree hypothesis n^(1-2eps) > M^2 open at {met_p} bits"
        return _verdict(q_2n, rung, precision, _open_status, None, note)
    return _verdict(q_2n, rung, precision, _sum_status, True, "no-error form")


# -- perturbed 1:2:4(1+delta) ratios ---------------------------------------------------


def ratio_125_check(
    growth, n: int, delta, precision: int = DEFAULT_PRECISION
) -> Verdict:
    """Check Q(2n) <= sqrt(Q(n) Q(ceil(4(1+delta)n))) + 2^(-2n delta) Q(ceil(4(1+delta)n)).

    Holds for harmonic u at every 0 <= n <= R; requires 0 < delta < 1/4.
    """
    delta = Fraction(delta)
    if not Fraction(0) < delta < Fraction(1, 4):
        raise InvalidParameterError(f"delta must lie in (0, 1/4), got {delta}")
    if n < 0:
        raise InvalidParameterError("n must be non-negative")
    outer = math.ceil(4 * (1 + delta) * n)
    q_n, q_2n, q_outer = growth.Q(n), growth.Q(2 * n), growth.Q(outer)
    product = _pair(q_n, q_outer)
    msq, outer = (product, product), _pair(q_outer)

    def rung(p):
        return msq, _times(_halving_unit(n, delta, p), outer)

    return _verdict(q_2n, rung, precision, _sum_status, True, "")


# -- general aspect ratios ----------------------------------------------------------------


@lru_cache(maxsize=CONSTANT_CACHE_SIZE)
def derive_alpha(p, P, precision: int = DEFAULT_PRECISION) -> RealEnclosure:
    """The exponent balancing P^alpha = p^(1-alpha): alpha = ln p / (ln p + ln P)."""
    p = Fraction(p)
    P = Fraction(P)
    if p <= 1 or P <= 1:
        raise InvalidParameterError("need p > 1 and P > 1 to derive alpha")
    lp = ln_enclosure(p, precision + 16)
    lP = ln_enclosure(P, precision + 16)
    return lp / (lp + lP)


@lru_cache(maxsize=CONSTANT_CACHE_SIZE)
def _aspect_constants(p: Fraction, P: Fraction, alpha: Optional[Fraction], n: int, eps, prec: int):
    """alpha, 1 - alpha and e^(c n^-2eps) of the aspect-ratio form; alpha None is derived."""
    a = derive_alpha(p, P, prec) if alpha is None else RealEnclosure.exact(alpha)
    one_minus_a = RealEnclosure.exact(1) - a
    c = (a * P + one_minus_a * Fraction(1, p) - 1) * 2
    exponent = c if eps == 0 else c * rational_npow(n, -2 * eps, prec)
    return a, one_minus_a, exp_enclosure(exponent, prec)


def aspect_ratio_check(
    growth,
    n: int,
    p,
    P,
    eps,
    alpha=None,
    precision: int = DEFAULT_PRECISION,
) -> Verdict:
    """Check the three-radii inequality at inner:mid:outer = 1 : P : pP.

    The statement is

        Q(floor(Pn)) <= e^(c n^-2eps) Q(n)^alpha Q(ceil(pPn))^(1-alpha)
                        + p^(-n^(1/2-eps)) Q(ceil(pPn)),

    with alpha solving P^alpha = p^(1-alpha) (derived via certified
    logarithms when not supplied; a supplied alpha must lie in (0, 1))
    and c = 2(alpha P + (1-alpha)/p - 1).
    The guarantee holds for harmonic u and n large depending on (p, P);
    that threshold is not pinned numerically by the statement, so the
    verdict reports hypothesis_met = None.
    """
    p_r = Fraction(p)
    P_r = Fraction(P)
    if not (1 < P_r < p_r * P_r):
        raise InvalidParameterError(
            f"parameter order violated: need 1 < P < pP, got P={P_r}, pP={p_r * P_r}"
        )
    eps = _check_eps(eps)
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if alpha is not None:
        alpha = Fraction(alpha)
        if not 0 < alpha < 1:
            raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")
    mid = math.floor(P_r * n)
    outer = math.ceil(p_r * P_r * n)
    q_n, q_mid, q_outer = growth.Q(n), growth.Q(mid), growth.Q(outer)
    outer_pair = _pair(q_outer)

    def rung(prec):
        a, one_minus_a, const = _aspect_constants(p_r, P_r, alpha, n, eps, prec)
        main = const * _qpow(q_n, a, prec) * _qpow(q_outer, one_minus_a, prec)
        return _ends(main), _times(_error_unit(p_r, n, Fraction(1, 2) - eps, prec), outer_pair)

    note = "guarantee threshold n0(p, P) not pinned by the statement"
    return _verdict(q_mid, rung, precision, _linear_status, None, note, squared=False)


def _qpow(qvalue: Fraction, expo: RealEnclosure, prec: int) -> RealEnclosure:
    """q**expo for a non-negative rational q and an exponent in (0, 1)."""
    if qvalue < 0:
        raise InvalidParameterError("growth values cannot be negative")
    if qvalue == 0:
        return RealEnclosure.exact(0)
    return pow_enclosure(qvalue, expo, prec)


# -- continuous-time version: exact, no enclosures ---------------------------------------


def continuous_three_circles_check(growth, t) -> Verdict:
    """Check Qc(2t)^2 <= Qc(t) Qc(4t) exactly in rational arithmetic.

    Qc is the continuous-time growth of a
    :class:`harmlat.growth.GrowthPolynomial`.  ``margin`` is reported on
    the squared scale: Qc(t)Qc(4t) - Qc(2t)^2.
    """
    t = Fraction(t)
    if t <= 0:
        raise InvalidParameterError("t must be positive")
    lhs = growth.continuous(2 * t)
    a = growth.continuous(t)
    b = growth.continuous(4 * t)
    margin = a * b - lhs * lhs
    return Verdict(
        HOLDS if margin >= 0 else FAILS,
        lhs,
        _ZERO,
        lambda err: (sqrt_enclosure(a * b, 64), margin),
        True,
        "exact squared comparison; margin is on the squared scale",
        0,
    )


# -- violation certification and counterexample search ---------------------------------------


def convexity_defect_check(
    q_n,
    q_2n,
    q_4n,
    n: int,
    C,
    eps,
    precision: int = DEFAULT_PRECISION,
) -> Verdict:
    """Certify the violation statement Q(2n) > C sqrt(Q(n)Q(4n)) + 2^(-n^(1/2+eps)) Q(4n).

    ``holds`` means the violation inequality is certified true (the log
    convexity bound with constant C is genuinely beaten at n), ``fails``
    means it is certified false.  Used by the counterexample search, whose
    witness reads its ratio estimate off ``error_term``; exponent here is
    1/2 + eps.
    """
    q_n, q_2n, q_4n = Fraction(q_n), Fraction(q_2n), Fraction(q_4n)
    C = Fraction(C)
    eps = Fraction(eps)
    if C <= 0 or eps <= 0:
        raise InvalidParameterError("need C > 0 and eps > 0")
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    product = _pair(C, C, q_n, q_4n)
    msq, outer = (product, product), _pair(q_4n)

    def rung(p):
        return msq, _times(enclose_pow(2, n, Fraction(1, 2) + eps, p), outer)

    # the violation is the negation of the sum form Q(2n) <= sqrt(msq) + err
    note = "violation form: holds means the convexity bound is beaten"
    v = _verdict(q_2n, rung, precision, _sum_status, True, note)

    def bounds(err):
        main, margin = v._bounds(err)
        return main, -margin

    return replace(v, status=_NEGATED[v.status], _bounds=bounds)


@dataclass(frozen=True)
class CounterexampleSearchResult:
    """Outcome of the scan for a certified violation near n = k^2/ln k."""

    found: bool
    k: Optional[int] = None
    n: Optional[int] = None
    verdict: Optional[Verdict] = None
    binomials: Optional[tuple] = None  # (binom(n,k), binom(2n,k), binom(4n,k))
    ratio_estimate_certified: bool = False
    square_estimate_certified: bool = False
    k_range: tuple = (0, 0)
    candidates_checked: int = 0
    undecided: tuple = ()

    def to_json(self) -> dict:
        obj = {
            "found": self.found,
            "k": self.k,
            "n": self.n,
            "k_range": list(self.k_range),
            "candidates_checked": self.candidates_checked,
        }
        if self.found:
            obj["verdict"] = self.verdict.to_json()
            obj["binomials"] = [format_int(b) for b in self.binomials]
            obj["ratio_estimate_certified"] = self.ratio_estimate_certified
            obj["square_estimate_certified"] = self.square_estimate_certified
        if self.undecided:
            obj["undecided"] = [list(u) for u in self.undecided]
        return obj


def _atanh_recip_fx(q: int, wp: int) -> tuple:
    """Fixed-point bounds (lo, hi) of atanh(1/q) at wp bits, for an integer q >= 3.

    Term j, t_j = 2^wp / ((2j+1) q^(2j+1)), adds its floor to lo and its
    floor + 1 to hi, up to the first term t_J that floors to 0.  The terms
    after t_J shrink by more than q^2 each, so they sum to less than
    t_J / (q^2 - 1) < 1 and hi takes one more ulp.  The reciprocal is not
    rounded, and each term costs one division, half of ``_atanh_fx``'s work.
    """
    one = 1 << wp
    qq, qpow, j = q * q, q, 1
    lo, ulps = 0, 2  # ulps: one per term summed, one for t_J and one for the tail
    while t := one // (j * qpow):
        lo += t
        ulps += 1
        qpow *= qq
        j += 2
    return lo, lo + ulps


def _k2_over_ln_k_run(k_min: int, k_max: int):
    """Yield (k, lo_f, hi_f, (lo, hi, wp)) for k = k_min..k_max, k_min >= 2.

    lo/2^wp <= ln k <= hi/2^wp, and lo_f, hi_f are the floors of
    k^2 2^wp / hi and k^2 2^wp / lo.  ln k_min is seeded by ``_ln_fx`` at
    96 bits and shifted to wp bits; each later k steps it by
    ln k = ln(k-1) + 2 atanh(1/(2k-1)) (:func:`_atanh_recip_fx`).  A step
    widens the bounds by at most a few dozen ulps, and wp's
    bits(k_max - k_min + 1) + 4 extra bits keep their sum under a tenth
    of the seed's width.  Shifting the seed and k^2 by one power of 2
    keeps both floors, so the first item is :func:`k2_over_ln_k_floors`'
    own; wherever the floors differ the run reseeds at that k, which
    makes them that k's own too.
    """
    wp = 128 + k_max.bit_length().bit_length() + (k_max - k_min + 1).bit_length() + 4

    def seed(k):
        lo, hi, w = _ln_fx(k, 1, 96)
        return lo << (wp - w), hi << (wp - w)

    lo, hi = seed(k_min)
    for k in range(k_min, k_max + 1):
        if k > k_min:
            a_lo, a_hi = _atanh_recip_fx(2 * k - 1, wp)
            lo += 2 * a_lo
            hi += 2 * a_hi
        scaled = k * k << wp
        lo_f, hi_f = scaled // hi, scaled // lo
        if lo_f != hi_f:
            lo, hi = seed(k)
            lo_f, hi_f = scaled // hi, scaled // lo
        yield k, lo_f, hi_f, (lo, hi, wp)


def k2_over_ln_k_floors(k: int) -> tuple:
    """Floors of both ends of the enclosure k^2 / ln_enclosure(k, 96), for k >= 2.

    Read in integers from the fixed-point bounds of ln k: with
    lo/2^wp <= ln k <= hi/2^wp the ends are k^2 2^wp / hi and k^2 2^wp / lo.
    This is the one-k run of :func:`_k2_over_ln_k_run`.
    """
    if k < 2:
        raise InvalidParameterError(f"k^2 / ln k needs k >= 2, got k={k}")
    _, lo_f, hi_f, _ = next(_k2_over_ln_k_run(k, k))
    return lo_f, hi_f


def _nstar_candidates(lo_f: int, hi_f: int) -> list:
    """Integer candidates near k^2 / ln k from the floors lo_f <= hi_f of its enclosure's ends.

    Both roundings and their neighbors, at least 1: lo_f - 1..lo_f + 2 when
    the floors agree, else (widened deterministically rather than refined
    forever) lo_f - 1..hi_f + 1.
    """
    return list(range(max(lo_f - 1, 1), hi_f + (3 if lo_f == hi_f else 2)))


def _log_ratio_bound(n: int, k: int, l_num: int, l_den: int) -> bool:
    """Whether U <= l_num / l_den (l_den > 0), for n >= k >= 1, in integers.

    U = n k(k-1) / (2 (n-k+1)(4n-k+1)) bounds the log ratio
    ln(binom(2n,k)^2 / (binom(n,k) binom(4n,k))) from above: the ratio
    is the product over j < k of (2n-j)^2 / ((n-j)(4n-j))
    = 1 + nj / ((n-j)(4n-j)), and ln(1+t) <= t and (n-j)(4n-j) >=
    (n-k+1)(4n-k+1) give the bound.
    """
    return n * k * (k - 1) * l_den <= 2 * (n - k + 1) * (4 * n - k + 1) * l_num


def _square_ratio_upper(n: int, k: int, p: int) -> int:
    """hi with S <= hi / 2^p <= S (1 + k / 2^p), for n >= k >= 1.

    S = binom(2n,k)^2 / (binom(n,k) binom(4n,k)), the product over
    0 < j < k of f_j = (2n-j)^2 / ((n-j)(4n-j)), is multiplied up in
    p-bit fixed point, each step rounded up.  A step's rounding adds at
    most one ulp, and the later factors, each >= 1, scale it by at most
    S, so hi <= S (2^p + k).
    """
    hi = 1 << p
    n2, n4 = 2 * n, 4 * n
    for j in range(1, k):
        t = n2 - j
        hi = -(hi * t * t // -((n - j) * (n4 - j)))
    return hi


def _square_ratio_rules_out(n: int, k: int, c_num2: int, c_den2: int, precision: int) -> bool:
    """Whether S <= C^2 = c_num2 / c_den2 is certified at a rung of the ladder.

    That is a "no violation" the violation ladder's first rung would
    certify, decided without the binomials.  The ladder stops early once
    hi / (2^p + k) > C^2, which certifies S > C^2.
    """
    for p in _ladder(precision):
        hi = _square_ratio_upper(n, k, p)
        if c_den2 * hi <= c_num2 << p:
            return True
        if c_den2 * hi > c_num2 * ((1 << p) + k):
            return False
    return False


def counterexample_search(
    C,
    eps,
    k_max: int,
    k_min: int = 2,
    n0: int = 0,
    precision: int = DEFAULT_PRECISION,
) -> CounterexampleSearchResult:
    """Scan k in [k_min, k_max] for a certified violation of the C-bound.

    For each k the candidate step counts are the integer roundings of
    k^2 / ln k and their neighbors (k = 1 is skipped: ln 1 = 0), read off
    one running logarithm (:func:`_k2_over_ln_k_run`) rather than a
    96-bit ln k per k.  A hit
    at (k, n) certifies that the coordinate-product harmonic function on
    Z^d (d >= k) violates Q(2n) <= C sqrt(Q(n)Q(4n)) + 2^(-n^(1/2+eps)) Q(4n),
    since its growth values are exact multiples of binom(., k).  Returns
    an explicit not-found result when the range is exhausted; an empty
    range (k_max < max(k_min, 2)), or an n0 at or above the largest
    candidate (that of k_max), raises InvalidParameterError.

    A candidate on the exact route builds the three binomials and is
    decided once, by the ladder of :func:`convexity_defect_check`.  With
    S = binom(2n,k)^2 / (binom(n,k) binom(4n,k)), a candidate with
    S <= C^2 is certified "no violation" at the ladder's first rung: the
    main term alone reaches binom(2n,k), and the error term is
    non-negative.  That does not depend on eps.  Near n = k^2/ln k, ln S
    is about (ln k)/8 and must exceed ln C^2, so at C = 2 every candidate
    below k = 65,455 has S <= C^2, and k = 65,455 is the first k with a
    candidate past it (an exact sweep from k = 65,000).

    For C > 1 and n >= k two filters settle S <= C^2 without any
    binomial, both in integers.  First, the O(1) bound
    U = n k(k-1) / (2 (n-k+1)(4n-k+1)) >= ln S (:func:`_log_ratio_bound`)
    is compared with a lower bound of ln C^2 computed once per search.
    U exceeds ln S by about (ln k)^2/(16k), so it stops deciding just
    below the crossover: at C = 2 it settles every candidate up to
    k = 65,393.  Second, S is enclosed by a fixed-point running product
    over the rungs of the precision ladder
    (:func:`_square_ratio_rules_out`), which settles the candidates of
    k = 65,394..65,454.  Every other candidate takes the exact route.
    """
    C = Fraction(C)
    eps = Fraction(eps)
    if C <= 0 or eps <= 0:
        raise InvalidParameterError("need C > 0 and eps > 0")
    k_min = max(k_min, 2)
    if k_max < k_min:
        raise InvalidParameterError(f"empty k range: k_max={k_max} is below k_min={k_min}")
    # k^2 / ln k increases for k >= 2, so k_max gives the largest candidate
    n_top = _nstar_candidates(*k2_over_ln_k_floors(k_max))[-1]
    if n0 >= n_top:
        raise InvalidParameterError(f"n0={n0} leaves no candidate: the largest is n={n_top}")
    c_num2, c_den2 = C.numerator**2, C.denominator**2
    # ln C^2 from below; only C > 1 can absorb the positive bound U
    ln_c2 = ln_enclosure(C * C, precision).lo if C > 1 else None
    if ln_c2 is not None:
        l_num, l_den = ln_c2.numerator, ln_c2.denominator
    checked = 0
    undecided = []
    for k, lo_f, hi_f, _ in _k2_over_ln_k_run(k_min, k_max):
        for n in _nstar_candidates(lo_f, hi_f):
            if n <= n0:
                continue
            checked += 1
            if (
                ln_c2 is not None
                and n >= k
                and (
                    _log_ratio_bound(n, k, l_num, l_den)
                    or _square_ratio_rules_out(n, k, c_num2, c_den2, precision)
                )
            ):
                continue  # S <= C^2: the ladder's first rung would fail it
            b_n, b_2n, b_4n = (math.comb(m, k) for m in (n, 2 * n, 4 * n))
            verdict = convexity_defect_check(b_n, b_2n, b_4n, n, C, eps, precision)
            if verdict.status == HOLDS:
                # the witness's estimates, both read off certified bounds:
                #   binom(2n,k)/binom(4n,k) > 2^(-n^(1/2+eps)), as the verdict's
                #     error term encloses 2^(-n^(1/2+eps)) binom(4n,k) from above
                #   binom(2n,k)^2 > C^2 binom(n,k) binom(4n,k), in integers
                return CounterexampleSearchResult(
                    True,
                    k,
                    n,
                    verdict,
                    (b_n, b_2n, b_4n),
                    b_2n > verdict.error_term.hi,
                    c_den2 * b_2n * b_2n > c_num2 * b_n * b_4n,
                    (k_min, k_max),
                    checked,
                    tuple(undecided),
                )
            if verdict.status == UNDECIDED:
                undecided.append((k, n))
    return CounterexampleSearchResult(
        False, k_range=(k_min, k_max), candidates_checked=checked, undecided=tuple(undecided)
    )
