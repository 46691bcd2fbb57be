"""Certified enclosures: containment, width contracts, exact fast paths."""

from fractions import Fraction as F

import mpmath
import pytest

from harmlat import (
    InvalidParameterError,
    RealEnclosure,
    enclose_exp,
    enclose_pow,
    exp_enclosure,
    ln_enclosure,
    pow_enclosure,
    sqrt_enclosure,
)
from harmlat.enclosure import _atanh_fx, _ceil_div, _ln2_fx

mpmath.mp.dps = 120


def mp_fraction(x):
    return F(mpmath.nstr(x, 110, strip_zeros=False))


EXP_ARGS = [F(0), F(1), F(-1), F(7, 3), F(-100), F(100), F(1, 10**6), F(-355, 113)]
LN_ARGS = [F(2), F(3), F(1, 3), F(10) ** 20, F(1, 10**20), F(999, 1000), F(1)]
SQRT_ARGS = [F(0), F(2), F(49), F(1, 7), F(10**40 + 1), F(1, 10**40)]


@pytest.mark.parametrize("x", EXP_ARGS)
@pytest.mark.parametrize("p", [64, 128, 256])
def test_exp_contains_truth_and_meets_width(x, p):
    enc = enclose_exp(x, p)
    truth = mp_fraction(mpmath.exp(x))
    assert enc.lo <= truth <= enc.hi
    assert enc.width <= enc.lo / 2**p


@pytest.mark.parametrize("x", LN_ARGS)
def test_ln_contains_truth(x):
    enc = ln_enclosure(x, 128)
    truth = mp_fraction(mpmath.log(x))
    assert enc.lo <= truth <= enc.hi
    assert enc.width <= F(1, 2**100)


@pytest.mark.parametrize("x", SQRT_ARGS)
def test_sqrt_contains_truth(x):
    enc = sqrt_enclosure(x, 128)
    truth = mp_fraction(mpmath.sqrt(x))
    assert enc.lo <= truth <= enc.hi
    assert enc.lo * enc.lo <= x <= enc.hi * enc.hi


def test_sqrt_exact_on_perfect_squares():
    enc = sqrt_enclosure(F(49), 64)
    assert enc.lo == enc.hi == 7


def test_exp_zero_exact():
    enc = enclose_exp(F(0), 64)
    assert enc.lo == enc.hi == 1


def test_pow_exact_paths():
    assert enclose_pow(2, 16, F(1, 2), 64).lo == F(1, 16)
    assert enclose_pow(2, 16, F(1, 2), 64).is_point()
    assert pow_enclosure(F(8), F(2, 3), 64).lo == 4
    assert pow_enclosure(F(27, 8), F(-1, 3), 64).lo == F(2, 3)
    # eps = 1/2 kills the exponent: base^(-n^0) = 1/base
    assert enclose_pow(2, 37, 0, 64).lo == F(1, 2)
    assert pow_enclosure(F(5), F(0), 64).lo == 1


@pytest.mark.parametrize(
    "base,n,r",
    [
        (F(2), 20, F(1, 4)),
        (F(3, 2), 40, F(1, 4)),
        (F(2), 879, F(3, 5)),
        (F(3), 7, F(2, 5)),
        (F(2), 20, F(1, 2**40)),  # a root of index 2^40: no exact path, no 2^(2^40) on the way
    ],
)
@pytest.mark.parametrize("p", [64, 256])
def test_pow_general_contains_truth_and_meets_width(base, n, r, p):
    enc = enclose_pow(base, n, r, p)
    truth = mp_fraction(mpmath.power(base, -mpmath.power(n, r)))
    assert enc.lo <= truth <= enc.hi
    assert enc.width <= enc.lo / 2**p


def test_width_shrinks_with_precision():
    cases = [
        lambda p: enclose_exp(F(7, 3), p),
        lambda p: ln_enclosure(F(17, 5), p),
        lambda p: enclose_pow(2, 20, F(1, 4), p),
        lambda p: sqrt_enclosure(F(2), p),
    ]
    for build in cases:
        widths = [build(p).width for p in (64, 128, 256)]
        assert widths[0] >= widths[1] >= widths[2]


def test_exp_ln_of_enclosures():
    a = ln_enclosure(F(3), 128)
    assert exp_enclosure(a, 128).contains(3)
    b = exp_enclosure(F(2), 128)
    assert ln_enclosure(b, 128).contains(2)


def test_interval_arithmetic():
    A = RealEnclosure(F(-2), F(3))
    B = RealEnclosure(F(-1), F(5))
    M = A * B
    assert (M.lo, M.hi) == (-10, 15)
    S = A + B
    assert (S.lo, S.hi) == (-3, 8)
    D = A - B
    assert (D.lo, D.hi) == (-7, 4)
    C = RealEnclosure(F(2), F(4))
    assert (C.reciprocal().lo, C.reciprocal().hi) == (F(1, 4), F(1, 2))
    with pytest.raises(InvalidParameterError):
        A.reciprocal()
    with pytest.raises(InvalidParameterError):
        RealEnclosure(F(1), F(0))


def test_comparison_helpers():
    A = RealEnclosure(F(1), F(2))
    assert A.contains(F(3, 2)) and not A.contains(F(5, 2))


def test_ln_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        ln_enclosure(F(0), 64)
    with pytest.raises(InvalidParameterError):
        ln_enclosure(F(-1), 64)


def _ln_before_core(x, prec):
    """enclosure._ln_fraction as written before the integer core: Fraction normalization."""
    if x == 1:
        return RealEnclosure.exact(0)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / F(2) ** e
    while m < 1:
        m *= 2
        e -= 1
    while m >= 2:
        m /= 2
        e += 1
    wp = prec + max(abs(e), 1).bit_length() + 32
    one = 1 << wp
    z = (m - 1) / (m + 1)
    z_lo = (z.numerator << wp) // z.denominator
    z_hi = _ceil_div(z.numerator << wp, z.denominator)
    a_lo, a_hi = _atanh_fx(z_lo, z_hi, wp)
    l2_lo, l2_hi = _ln2_fx(wp)
    if e >= 0:
        lo, hi = 2 * a_lo + e * l2_lo, 2 * a_hi + e * l2_hi
    else:
        lo, hi = 2 * a_lo + e * l2_hi, 2 * a_hi + e * l2_lo
    return RealEnclosure(F(lo, one), F(hi, one))


def _ln_identity_args():
    args = [F(k) for k in range(1, 300)] + [F(1, k) for k in range(2, 300)]
    for e in (1, 2, 7, 31, 32, 63, 64, 65, 200, 1000):
        for m in (2**e - 1, 2**e, 2**e + 1):
            args += [F(m), F(1, m), F(m, 2**e)]
    big = 3**4000 + 7
    args += [F(big, 5**1000), F(5**1000, big), F(big), F(1, big), F(big + 1, big)]
    return args


@pytest.mark.parametrize("p", [1, 64, 96, 256])
def test_ln_integer_core_keeps_every_bound(p):
    for x in _ln_identity_args():
        new, old = ln_enclosure(x, p), _ln_before_core(x, p)
        assert (new.lo, new.hi) == (old.lo, old.hi), (x, p)


def test_sqrt_rejects_negative():
    with pytest.raises(InvalidParameterError):
        sqrt_enclosure(F(-1), 64)
