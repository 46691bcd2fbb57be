"""Exact rational scalars, their integer form and their strings.

All quantities in this package are :class:`fractions.Fraction` values.
A list of them is computed on as integer numerators over one common
denominator (:func:`common_denominator`), reduced to lowest terms by
:func:`reduce_in_place`.  The CLI and the JSON/CSV wire formats write
them as "num/den", integers or finite decimal strings, with a
subquadratic decimal conversion for long integers.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from itertools import chain

from .errors import UsageError

# Integers up to this many bits print through str(); longer ones are split.
# 8192 bits (2,467 digits) stays under str()'s default 4,300-digit limit.
DECIMAL_LEAF_BITS = 1 << 13
_SPLIT_LEAF_BITS = 1 << 10
_REDUCE_CHUNK = 4096


def common_denominator(values) -> tuple:
    """(numerators, den) of ``values`` over their least common denominator (1 if none)."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def reduce_in_place(den: int, *lists) -> int:
    """Divide the common factor of ``den`` and every entry of ``lists`` out of the lists.

    Returns the reduced denominator.  A list passed twice is divided once.
    The lists are divided in slices of ``_REDUCE_CHUNK``, each replaced
    as soon as it is divided, so the unreduced and the reduced values are
    never all alive together.
    """
    g = math.gcd(den, *chain.from_iterable(lists))
    if g > 1:
        div = g.__rfloordiv__
        for nums in {id(x): x for x in lists}.values():
            for i in range(0, len(nums), _REDUCE_CHUNK):
                nums[i : i + _REDUCE_CHUNK] = map(div, nums[i : i + _REDUCE_CHUNK])
        den //= g
    return den


def parse_rational(text: str) -> Fraction:
    """Parse "3/4", "7", "-0.25" (finite decimals) into an exact Fraction; a bool is refused."""
    if isinstance(text, bool):
        raise UsageError(f"not a rational number: {text!r}")
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def parse_int(value) -> int:
    """Parse an exact integer (7, "7", "4/2"); 1.9, "x" and true are usage errors."""
    q = parse_rational(value)
    if q.denominator != 1:
        raise UsageError(f"not an integer: {value!r}")
    return q.numerator


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "num" or "num/den" in lowest terms."""
    q = Fraction(q)
    if q.denominator == 1:
        return format_int(q.numerator)
    return f"{format_int(q.numerator)}/{format_int(q.denominator)}"


def format_int(n: int) -> str:
    """Decimal digits of n, equal to str(n) but subquadratic for long n.

    str() of an int takes time quadratic in its length.  Past
    DECIMAL_LEAF_BITS bits, n is split into halves by powers of 2 and
    rebuilt as an exact ``decimal.Decimal`` (libmpdec multiplies long
    numbers fast), as CPython 3.12's ``_pylong`` does; its decimal
    string is the result.  No digit limit applies on this route.
    """
    if n.bit_length() <= DECIMAL_LEAF_BITS:
        return str(n)
    two = decimal.Decimal(2)
    powers = {}

    def pow2(w):
        # 2^w, kept: the halves of one level share their splitting powers
        result = powers.get(w)
        if result is None:
            if w <= _SPLIT_LEAF_BITS:
                result = two**w
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                half = w >> 1
                result = pow2(half) * pow2(w - half)
            powers[w] = result
        return result

    def build(m, w):
        if w <= _SPLIT_LEAF_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return build(m - (hi << half), half) + build(hi, w - half) * pow2(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        digits = str(build(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits
