"""Certified enclosures: containment, width contracts, exact fast paths, pinned endpoints."""

import hashlib
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from harmlat.enclosure import _atanh_fx, _ceil_div, _ln2_fx, rational_npow

mpmath.mp.dps = 120


def mp_fraction(x):
    return F(mpmath.nstr(x, 110, strip_zeros=False))


EXP_ARGS = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(7, 3), F(-355, 113), F(100), F(-100),
            F(1, 10**6), F(-1, 10**6), F(3, 2**40), F(10**6, 7)]
LN_ARGS = [F(2), F(3), F(1, 3), F(10) ** 20, F(1, 10**20), F(999, 1000), F(1)]
SQRT_ARGS = [F(0), F(2), F(49), F(1, 7), F(3, 4), F(10**40 + 1), F(1, 10**40), F(1, 2**81)]
# enclosed arguments [a, b]: across 0, ending at 0, single points
EXP_SPANS = [(F(-1), F(2)), (F(-7, 3), F(1, 3)), (F(0), F(1)), (F(-1), F(0)),
             (F(5, 2), F(5, 2)), (F(0), F(0)), (F(-100), F(100)), (F(1, 3), F(1, 2))]
SQRT_SPANS = [(F(0), F(2)), (F(1, 7), F(49)), (F(2), F(2)), (F(0), F(0)),
              (F(1, 10**40), F(10**40 + 1))]
LN_SPANS = [(F(1, 3), F(3)), (F(1), F(1)), (F(2), F(10) ** 20)]


@pytest.mark.parametrize("x", EXP_ARGS)
@pytest.mark.parametrize("p", [64, 128, 256])
def test_exp_contains_truth_and_meets_width(x, p):
    enc = enclose_exp(x, p)
    truth = mp_fraction(mpmath.exp(x))
    assert enc.lo <= truth <= enc.hi
    assert enc.width <= enc.lo / 2**p


@pytest.mark.parametrize("a,b", EXP_SPANS)
@pytest.mark.parametrize("p", [64, 128, 256])
def test_exp_of_enclosure_contains_truth_and_meets_width(a, b, p):
    enc = exp_enclosure(RealEnclosure(a, b), p)
    at_a, at_b = mp_fraction(mpmath.exp(a)), mp_fraction(mpmath.exp(b))
    assert enc.lo <= at_a and at_b <= enc.hi
    # each endpoint is as tight as the point enclosure at it
    assert at_a - enc.lo <= enc.lo / 2**p
    assert enc.hi - at_b <= at_b / 2**p


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


@pytest.mark.parametrize("a,b", SQRT_SPANS)
@pytest.mark.parametrize("p", [64, 128, 256])
def test_sqrt_of_enclosure_contains_truth_and_meets_width(a, b, p):
    enc = sqrt_enclosure(RealEnclosure(a, b), p)
    at_a, at_b = mp_fraction(mpmath.sqrt(a)), mp_fraction(mpmath.sqrt(b))
    assert enc.lo <= at_a and at_b <= enc.hi
    assert enc.lo * enc.lo <= a and b <= enc.hi * enc.hi
    assert at_a - enc.lo <= at_a / 2**p
    assert enc.hi - at_b <= at_b / 2**p


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
    with pytest.raises(InvalidParameterError):
        sqrt_enclosure(RealEnclosure(F(-1), F(2)), 64)


small_rationals = st.builds(F, st.integers(-10**4, 10**4), st.integers(1, 300))


@settings(max_examples=200, deadline=None)
@given(small_rationals, small_rationals, st.sampled_from([1, 64, 96, 256]))
def test_enclosed_argument_takes_one_bound_per_endpoint(x, y, p):
    a, b = min(x, y), max(x, y)
    enc = exp_enclosure(RealEnclosure(a, b), p)
    assert (enc.lo, enc.hi) == (exp_enclosure(a, p).lo, exp_enclosure(b, p).hi)
    a, b = sorted((abs(x), abs(y)))
    enc = sqrt_enclosure(RealEnclosure(a, b), p)
    assert (enc.lo, enc.hi) == (sqrt_enclosure(a, p).lo, sqrt_enclosure(b, p).hi)


# -- raw endpoints, pinned by sha256 -------------------------------------------

KERNEL_PRECISIONS = (1, 64, 96, 256, 512)
POW_CASES = [(F(2), F(-3, 5)), (F(3), F(1, 3)), (F(8), F(2, 3)), (F(17, 5), F(-7, 3)),
             (F(2), RealEnclosure(F(-1, 3), F(1, 2))), (F(2), RealEnclosure(F(5, 7), F(5, 7))),
             (F(1), RealEnclosure(F(-1), F(1))), (F(3, 2), RealEnclosure(F(-40), F(-39)))]
NPOW_CASES = [(n, e) for n in (1, 2, 45, 276, 65455) for e in (F(-1, 5), F(3, 5), F(-2, 5), F(1, 2))]
ENCLOSE_POW_CASES = [(n, r) for n in (1, 2, 45, 69, 276, 1000, 65455)
                     for r in (F(3, 5), F(2, 5), F(1, 2), F(9, 20), F(1, 4))]


def _kernel_cases():
    """(label, thunk) for every kernel call whose endpoints are pinned."""
    for p in KERNEL_PRECISIONS:
        for x in EXP_ARGS:
            yield f"exp {x} {p}", lambda x=x, p=p: exp_enclosure(x, p)
        for a, b in EXP_SPANS:
            yield f"exp [{a}, {b}] {p}", lambda a=a, b=b, p=p: exp_enclosure(RealEnclosure(a, b), p)
        for x in SQRT_ARGS + [F(-1)]:
            yield f"sqrt {x} {p}", lambda x=x, p=p: sqrt_enclosure(x, p)
        for a, b in SQRT_SPANS + [(F(-1), F(2))]:
            yield f"sqrt [{a}, {b}] {p}", lambda a=a, b=b, p=p: sqrt_enclosure(RealEnclosure(a, b), p)
        for x in LN_ARGS + [F(0)]:
            yield f"ln {x} {p}", lambda x=x, p=p: ln_enclosure(x, p)
        for a, b in LN_SPANS:
            yield f"ln [{a}, {b}] {p}", lambda a=a, b=b, p=p: ln_enclosure(RealEnclosure(a, b), p)
        for base, e in POW_CASES:
            yield f"pow {base} {e} {p}", lambda base=base, e=e, p=p: pow_enclosure(base, e, p)
        for n, e in NPOW_CASES:
            yield f"npow {n} {e} {p}", lambda n=n, e=e, p=p: rational_npow(n, e, p)
        for n, r in ENCLOSE_POW_CASES:
            yield f"enclose_pow 2 {n} {r} {p}", lambda n=n, r=r, p=p: enclose_pow(2, n, r, p)


def _hex(q):
    return f"{q.numerator:x}/{q.denominator:x}"


def _kernel_lines():
    for label, call in _kernel_cases():
        try:
            enc = call()
        except InvalidParameterError:
            yield f"{label}: invalid"
        else:
            yield f"{label}: {_hex(enc.lo)} {_hex(enc.hi)}"


# sha256 of the lines of _kernel_lines(), each ending in a newline
KERNEL_DIGEST = "369482ff64352b76e35a828aa2c51b2a39bbdba0dc27e9f42184be6853bf043a"


def test_kernel_endpoints_are_pinned():
    text = "".join(line + "\n" for line in _kernel_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_DIGEST


# -- the power chain on pairs is the composition of public calls ---------------


def _composition(base, expo, p):
    """exp_enclosure(expo * ln_enclosure(base, p + 24), p + 8), as pow_enclosure documents."""
    expo = expo if isinstance(expo, RealEnclosure) else RealEnclosure.exact(expo)
    return exp_enclosure(expo * ln_enclosure(base, p + 24), p + 8)


def _is_composition(enc, base, expo, p):
    """enc is the composition, or an exact rational power (a point) inside it."""
    want = _composition(base, expo, p)
    if enc.is_point():
        return want.contains(enc.lo)
    return (enc.lo, enc.hi) == (want.lo, want.hi)


near_one = st.builds(lambda k, s: 1 + s * F(1, 2**k), st.integers(1, 700), st.sampled_from([-1, 1]))
pow_bases = st.one_of(st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6)), near_one)
small = st.builds(F, st.integers(-60, 60), st.integers(1, 60))
straddling = st.builds(lambda a, b: RealEnclosure(-abs(a), abs(b)), small, small)
spans = st.builds(lambda a, w: RealEnclosure(a, a + abs(w)), small, small)
pow_exponents = st.one_of(small, straddling, spans)
precisions = st.integers(1, 600)


@settings(max_examples=200, deadline=None)
@given(straddling, st.one_of(straddling, spans))
def test_product_picks_the_four_product_hull_by_sign(x, y):
    cands = [a * b for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    for prod in (x * y, y * x):
        assert (prod.lo, prod.hi) == (min(cands), max(cands))


@settings(max_examples=150, deadline=None)
@given(pow_bases, pow_exponents, precisions)
# ln(base) straddles 0 at these precisions, as does the exponent: both products matter
@example(1 - F(1, 2**400), RealEnclosure(F(-2), F(1)), 64)
@example(1 + F(1, 2**400), RealEnclosure(F(-1), F(3)), 64)
def test_pow_enclosure_is_the_composition_of_public_calls(base, expo, p):
    assert _is_composition(pow_enclosure(base, expo, p), base, expo, p)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**6), st.one_of(small, straddling), precisions)
def test_rational_npow_is_the_composition_of_public_calls(n, e, p):
    assert _is_composition(rational_npow(n, e, p), F(n), e, p)


@settings(max_examples=100, deadline=None)
@given(
    st.builds(F, st.integers(2, 10**4), st.integers(1, 50)).filter(lambda b: b > 1),
    st.integers(1, 5000),
    st.builds(F, st.integers(-39, 39), st.integers(1, 40)).filter(lambda r: abs(r) < 1),
    precisions,
)
def test_enclose_pow_is_the_composition_of_public_calls(base, n, r, p):
    y = rational_npow(n, r, p + 24)
    assert _is_composition(y, F(n), r, p + 24)
    expo = -y.lo if y.is_point() else -y
    assert _is_composition(enclose_pow(base, n, r, p), base, expo, p)


# -- one RealEnclosure per enclose_pow call -------------------------------------


@pytest.mark.parametrize("n,r", [(45, F(3, 5)), (69, F(3, 5)), (65455, F(3, 5)), (16, F(1, 2)), (7, F(0))])
def test_enclose_pow_builds_one_enclosure(enclosures_built, n, r):
    enc = enclose_pow(2, n, r, 256)
    assert enclosures_built == [enc]
