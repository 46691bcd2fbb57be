"""Certified rational enclosures of exp, log, sqrt and rational powers.

Every bound is an exact Fraction and every intermediate rounding is
directed, so for an enclosure [lo, hi] the true real value is guaranteed
to satisfy lo <= value <= hi.  No floating point is used anywhere.

Internals run in fixed point at a working precision of ``wp`` bits
(integers scaled by 2**wp) with floor/ceil rounding on the respective
bound.  exp uses argument halving plus a Taylor tail bound, log uses
the atanh series after normalizing into [1, 2), sqrt uses exact integer
square roots, and general powers reduce to exp(y * log(base)).

Two rules keep each kernel to the work its result reads:

- every rounding by 2**wp is a shift, ``a >> wp`` or ``-((-a) >> wp)``;
  a division by k * 2**wp is that shift, then a small-int division;
- an enclosed argument [a, b] gets one bound per endpoint: exp and sqrt
  compute only the lower bound at a and only the upper bound at b.

Between the kernels a bound travels as an unreduced integer pair
(num, den) with den > 0: ln, the product with the exponent and exp form
one chain (:func:`_pow_pairs`) that builds no Fraction, and a
:class:`RealEnclosure` is built once, at the public return.  Every
kernel step reads only the value of its argument (floor(2x),
floor(x 2^(wp-m)), the normalized mantissa of ln), so a pair yields the
same integers as its reduced Fraction.  sqrt is the exception: its
scale reads bit lengths, so it takes reduced Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InvalidParameterError

Rat = Union[Fraction, int]


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _iroot(x: int, r: int) -> int:
    """floor(x ** (1/r)) for non-negative integers, exact."""
    if x < 0:
        raise InvalidParameterError("negative radicand")
    if r == 1 or x in (0, 1):
        return x
    if r == 2:
        return math.isqrt(x)
    if x.bit_length() <= r:
        return 1  # 2 <= x < 2^r; the Newton step below would build g^(r-1) for a huge r
    g = 1 << _ceil_div(x.bit_length(), r)
    while True:
        nxt = ((r - 1) * g + x // g ** (r - 1)) // r
        if nxt >= g:
            return g
        g = nxt


def _perfect_root(x: int, r: int) -> Optional[int]:
    g = _iroot(x, r)
    return g if g ** r == x else None


@dataclass(frozen=True)
class RealEnclosure:
    """Closed interval [lo, hi] of exact rationals bracketing a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidParameterError(f"empty enclosure [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, q: Rat) -> "RealEnclosure":
        q = Fraction(q)
        return cls(q, q)

    # -- queries ---------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, q: Rat) -> bool:
        return self.lo <= q <= self.hi

    # -- exact interval arithmetic -----------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return RealEnclosure(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RealEnclosure(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        return _enclosure(_mul_pairs(*_ends(self), *_ends(other)))

    __rmul__ = __mul__

    def reciprocal(self) -> "RealEnclosure":
        if self.lo <= 0 <= self.hi:
            raise InvalidParameterError("reciprocal of an enclosure containing 0")
        return RealEnclosure(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _coerce(other).reciprocal()

    def to_json(self) -> dict:
        from .rationals import format_rational

        return {"lo": format_rational(self.lo), "hi": format_rational(self.hi)}


def _coerce(v) -> RealEnclosure:
    if isinstance(v, RealEnclosure):
        return v
    return RealEnclosure.exact(Fraction(v))


def _ends(x) -> tuple:
    """The bounds of x as (num, den) pairs: x is an enclosure or a rational point."""
    if isinstance(x, RealEnclosure):
        return x.lo.as_integer_ratio(), x.hi.as_integer_ratio()
    q = Fraction(x).as_integer_ratio()
    return q, q


def _enclosure(x) -> RealEnclosure:
    """The RealEnclosure of bounds given as (num, den) pairs, reduced here."""
    lo, hi = x
    return RealEnclosure(Fraction(*lo), Fraction(*hi))


def _mul_pairs(x_lo: tuple, x_hi: tuple, y_lo: tuple, y_hi: tuple) -> tuple:
    """[x_lo, x_hi] * [y_lo, y_hi] on (num, den) pairs, each endpoint picked by sign.

    The bounds are the min and max of the four products, unreduced.
    """
    if y_lo[0] >= 0:
        lo = x_lo, y_lo if x_lo[0] >= 0 else y_hi
        hi = x_hi, y_hi if x_hi[0] >= 0 else y_lo
    elif y_hi[0] <= 0:
        lo = x_hi, y_lo if x_hi[0] >= 0 else y_hi
        hi = x_lo, y_hi if x_lo[0] >= 0 else y_lo
    else:  # y_lo < 0 < y_hi: lo is x_lo y_hi or x_hi y_lo, hi is x_lo y_lo or x_hi y_hi
        (a, b), (c, d), (e, f), (g, h) = x_lo, x_hi, y_lo, y_hi
        lo = (x_lo, y_hi) if a * g * d * f <= c * e * b * h else (x_hi, y_lo)
        hi = (x_lo, y_lo) if a * e * d * h >= c * g * b * f else (x_hi, y_hi)
    (a, b), (c, d) = lo
    (e, f), (g, h) = hi
    return (a * c, b * d), (e * g, f * h)


# -- exp ------------------------------------------------------------------


def _exp_bound(num: int, den: int, prec: int, upper: bool) -> tuple:
    """A lower bound of exp(num/den), or an upper bound if ``upper``, as a pair.

    den > 0, and the bound is returned as an unreduced (num, den) pair.

    exp(-a) = 1/exp(a), so a negative argument takes the opposite bound of
    exp(-x) and its reciprocal.  Otherwise x is halved m times to
    t = x/2^m <= 1/2, the Taylor series of exp(t) is summed at wp bits and
    squared m times.  Every rounding is a floor: a shift by wp, then a
    small-int division (floor(floor(a/b)/c) = floor(a/(bc))).  The upper
    bound keeps its fixed-point values negated (sgn = -1), so the same
    floors round it up: ceil(a) = -floor(-a).
    """
    if num == 0:
        return 1, 1
    neg = num < 0
    if neg:
        num, upper = -num, not upper
    m = (2 * num // den).bit_length()
    wp = prec + 2 * m + 32
    sgn = -1 if upper else 1
    t = (sgn * (num << (wp - m)) // den) * sgn  # t at wp bits, rounded toward the bound
    s = term = sgn << wp
    k = 0
    # stop at the first term of at most 1 ulp: every lower term after it
    # floors to 0, and the upper bound adds the tail below
    while term * sgn > 1:
        k += 1
        term = (term * t >> wp) // k
        s += term
    if upper:
        # tail <= term * t/(k+1) * 1/(1-t) <= 2 term t; term <= 1 ulp here
        s += (2 * term * t >> wp) - 1
    for _ in range(m):
        s = s * s * sgn >> wp
    s *= sgn
    return (1 << wp, s) if neg else (s, 1 << wp)


def exp_enclosure(x, prec: int) -> RealEnclosure:
    """Certified enclosure of exp(x) for a rational or enclosed argument."""
    lo, hi = _ends(x)
    return _enclosure((_exp_bound(*lo, prec, False), _exp_bound(*hi, prec, True)))


# -- log ------------------------------------------------------------------

_ln2_cache: dict = {}


def _atanh_fx(z_lo: int, z_hi: int, wp: int) -> tuple:
    """Fixed-point bounds of atanh(z) for 0 <= z <= 1/3 (z in fx)."""
    zz_lo = z_lo * z_lo >> wp
    zz_hi = -(-z_hi * z_hi >> wp)
    pow_lo, pow_hi = z_lo, z_hi
    sum_lo, sum_hi = 0, 0
    j = 0
    while True:
        sum_lo += pow_lo // (2 * j + 1)
        sum_hi -= -pow_hi // (2 * j + 1)
        nxt = pow_hi * zz_hi
        nxt_hi = -(-nxt >> wp)
        if nxt_hi <= 1:
            # tail < pow * z^2 / (1 - z^2) <= pow * z^2 * 9/8; one extra ulp for safety
            sum_hi += -(-9 * nxt >> (wp + 3)) + 1
            return sum_lo, sum_hi
        pow_lo = pow_lo * zz_lo >> wp
        pow_hi = nxt_hi
        j += 1


def _ln2_fx(wp: int) -> tuple:
    cached = _ln2_cache.get(wp)
    if cached is None:
        one = 1 << wp
        z_lo = one // 3
        z_hi = _ceil_div(one, 3)
        a_lo, a_hi = _atanh_fx(z_lo, z_hi, wp)
        cached = (2 * a_lo, 2 * a_hi)
        _ln2_cache[wp] = cached
    return cached


def _ln_fx(num: int, den: int, prec: int) -> tuple:
    """Fixed-point bounds (lo, hi, wp) of ln(num/den): lo/2^wp <= ln <= hi/2^wp.

    num and den are positive integers.  x = num/den is normalized as
    m 2^e with m = a/b in [1, 2), read off the bit lengths; the working
    precision wp = prec + bits(|e|) + 32 pays for the e ln 2 term.
    """
    e = num.bit_length() - den.bit_length()
    a, b = (num, den << e) if e >= 0 else (num << -e, den)
    if a < b:  # x / 2^e lies in (1/2, 2)
        a <<= 1
        e -= 1
    wp = prec + max(abs(e), 1).bit_length() + 32
    # ln m = 2 atanh(z) with z = (m - 1)/(m + 1) in [0, 1/3)
    z = (a - b) << wp
    a_lo, a_hi = _atanh_fx(z // (a + b), _ceil_div(z, a + b), wp)
    l2_lo, l2_hi = _ln2_fx(wp)
    if e >= 0:
        return 2 * a_lo + e * l2_lo, 2 * a_hi + e * l2_hi, wp
    return 2 * a_lo + e * l2_hi, 2 * a_hi + e * l2_lo, wp


def _ln_fraction(x: Fraction, prec: int) -> RealEnclosure:
    if x <= 0:
        raise InvalidParameterError("log of a non-positive value")
    if x == 1:
        return RealEnclosure.exact(0)
    lo, hi, wp = _ln_fx(x.numerator, x.denominator, prec)
    one = 1 << wp
    return RealEnclosure(Fraction(lo, one), Fraction(hi, one))


def ln_enclosure(x, prec: int) -> RealEnclosure:
    """Certified enclosure of the natural logarithm."""
    if isinstance(x, RealEnclosure):
        return RealEnclosure(_ln_fraction(x.lo, prec).lo, _ln_fraction(x.hi, prec).hi)
    return _ln_fraction(Fraction(x), prec)


# -- sqrt ------------------------------------------------------------------


def sqrt_enclosure(x, prec: int) -> RealEnclosure:
    """Certified enclosure of sqrt(x) via exact integer square roots."""
    if not isinstance(x, RealEnclosure):
        lo = hi = Fraction(x)
    elif x.lo < 0:
        raise InvalidParameterError("sqrt of an enclosure reaching below 0")
    else:
        lo, hi = x.lo, x.hi
    return RealEnclosure(_sqrt_bound(lo, prec, False), _sqrt_bound(hi, prec, True))


def _sqrt_bound(x: Fraction, prec: int, upper: bool) -> Fraction:
    """A lower bound of sqrt(x), or an upper bound if ``upper``: one isqrt."""
    if x < 0:
        raise InvalidParameterError("sqrt of a negative value")
    if x == 0:
        return Fraction(0)
    wp = prec + 8
    # scale so the shifted integer has about 2*wp significant bits
    num, den = x.numerator, x.denominator
    s = wp - (num.bit_length() - den.bit_length()) // 2
    if s >= 0:
        num <<= 2 * s
    else:
        den <<= -2 * s
    if upper:
        r = math.isqrt(_ceil_div(num, den) - 1) + 1  # ceil(sqrt(t)) for an integer t >= 1
    else:
        r = math.isqrt(num // den)
    return Fraction(r, 1 << s) if s >= 0 else Fraction(r << -s)


# -- powers ------------------------------------------------------------------


def _exact_rational_power(base: Fraction, expo: Fraction) -> Optional[Fraction]:
    """base**expo when it is rational (integer exponent or perfect roots)."""
    if expo == 0:
        return Fraction(1)
    if base == 1:
        return Fraction(1)
    neg = expo < 0
    e = -expo if neg else expo
    if e.denominator == 1:
        out = base ** int(e)
    else:
        rn = _perfect_root(base.numerator, e.denominator)
        rd = _perfect_root(base.denominator, e.denominator)
        if rn is None or rd is None:
            return None
        out = Fraction(rn, rd) ** e.numerator
    return 1 / out if neg else out


def _pow_pairs(num: int, den: int, e_lo: tuple, e_hi: tuple, prec: int) -> tuple:
    """Bounds of (num/den)**[e_lo, e_hi] as pairs, for positive num != den.

    ln(num/den) at prec + 24 bits, its product with the exponent, then
    exp at prec + 8 bits, all on (num, den) pairs.
    """
    l_lo, l_hi, wp = _ln_fx(num, den, prec + 24)
    one = 1 << wp
    lo, hi = _mul_pairs(e_lo, e_hi, (l_lo, one), (l_hi, one))
    return _exp_bound(*lo, prec + 8, False), _exp_bound(*hi, prec + 8, True)


def pow_enclosure(base, expo, prec: int) -> RealEnclosure:
    """Certified enclosure of base**expo for base > 0.

    ``expo`` may be a Fraction (exact powers are returned exactly when
    they are rational) or a RealEnclosure; the general case evaluates
    exp(expo * ln(base)) with directed rounding throughout.
    """
    base = Fraction(base)
    if base <= 0:
        raise InvalidParameterError("power base must be positive")
    if isinstance(expo, RealEnclosure) and expo.is_point():
        expo = expo.lo
    if not isinstance(expo, RealEnclosure):
        expo = Fraction(expo)
        exact = _exact_rational_power(base, expo)
        if exact is not None:
            return RealEnclosure.exact(exact)
    lo, hi = _ends(expo)
    if base == 1:
        return RealEnclosure.exact(1)
    return _enclosure(_pow_pairs(base.numerator, base.denominator, lo, hi, prec))


def rational_npow(n: int, e, prec: int) -> RealEnclosure:
    """Certified enclosure of n**e for a positive integer n."""
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    return pow_enclosure(n, e, prec)


# -- the two public constant builders ------------------------------------------


def enclose_exp(x, precision: int) -> RealEnclosure:
    """Enclosure of exp(x), relative width at most 2**-precision."""
    if precision < 1:
        raise InvalidParameterError("precision must be >= 1")
    return exp_enclosure(x, precision)


def enclose_pow(base, n: int, r, precision: int) -> RealEnclosure:
    """Enclosure of base**(-n**r) for base > 1; exact when n**r is rational.

    This is the error-term constant of the discrete log-convexity
    inequalities (base 2 or the inner/outer ratio P), with exponent
    n**r for r like 0.5 - eps.  Otherwise n**r is enclosed at
    precision + 24 bits and negated, and base to that power is taken,
    all on pairs: one RealEnclosure is built, at the return.
    """
    if precision < 1:
        raise InvalidParameterError("precision must be >= 1")
    base = Fraction(base)
    if base <= 1:
        raise InvalidParameterError("base must be > 1")
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    r = Fraction(r)
    y = _exact_rational_power(Fraction(n), r)
    if y is not None:
        return pow_enclosure(base, -y, precision)
    # n**r is irrational, so its bounds differ: the exponent is no point
    r = r.as_integer_ratio()
    (a, b), (c, d) = _pow_pairs(n, 1, r, r, precision + 24)
    return _enclosure(_pow_pairs(base.numerator, base.denominator, (-c, d), (-a, b), precision))
