"""Status rules in integers, sign-aware products and lazily built verdict bounds.

The status rules of ``checks.py`` decide on cross-multiplied numerators
and denominators, and take each bound as (num, den) pairs.  The Fraction
rules they replaced are kept here, only as the oracle: on random
rationals, exact ties and zero values both must give the same status,
the rules reading the enclosures' ends as pairs.  Likewise the enclosure
product's two-product path must equal the four-product min/max it
short-cuts.
"""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmlat import RealEnclosure, checks, convexity_defect_check
from harmlat.checks import FAILS, HOLDS, UNDECIDED, _below_status, _linear_status, _max_status, _sum_status
from harmlat.enclosure import _ends

# -- the Fraction rules, as the oracle ------------------------------------------------


def oracle_sum(lhs, msq, err):
    diff_hi = lhs - err.lo
    if diff_hi <= 0 or diff_hi * diff_hi <= msq.lo:
        return HOLDS
    diff_lo = lhs - err.hi
    if diff_lo > 0 and diff_lo * diff_lo > msq.hi:
        return FAILS
    return UNDECIDED


def oracle_max(lhs, msq, err):
    square = lhs * lhs
    if square <= msq.lo or lhs <= err.lo:
        return HOLDS
    if square > msq.hi and lhs > err.hi:
        return FAILS
    return UNDECIDED


def oracle_linear(lhs, main, err):
    if lhs <= main.lo + err.lo:
        return HOLDS
    if lhs > main.hi + err.hi:
        return FAILS
    return UNDECIDED


def oracle_below(lhs, main, err):
    if lhs < main.lo:
        return HOLDS
    if main.hi <= lhs:
        return FAILS
    return UNDECIDED


def as_pairs(lhs, main, err):
    """A rule's arguments: the enclosures' ends as (num, den) pairs."""
    return lhs, _ends(main), _ends(err)


def four_product(a, b):
    b = b if isinstance(b, RealEnclosure) else RealEnclosure.exact(F(b))
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return RealEnclosure(min(cands), max(cands))


# -- strategies ------------------------------------------------------------------------

BIG = 10**40
rationals = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(F, st.integers(-50, 50), st.integers(1, 8)),
)
nonneg = rationals.map(abs)


def enc(lo, width):
    return RealEnclosure(lo, lo + width)


@st.composite
def sum_inputs(draw):
    """lhs, msq >= 0 and err, with lhs - err.lo at, below or above zero and
    (lhs - err.lo)^2 or (lhs - err.hi)^2 on a bound of msq."""
    lhs = draw(rationals)
    err_lo = draw(st.one_of(rationals, st.just(lhs), nonneg.map(lhs.__add__)))
    err = enc(err_lo, draw(st.one_of(st.just(F(0)), nonneg)))
    ties = [(lhs - err.lo) ** 2, (lhs - err.hi) ** 2]
    lo = draw(st.one_of(nonneg, st.sampled_from(ties)))
    hi = draw(st.one_of(st.sampled_from([lo] + [t for t in ties if t >= lo]), nonneg.map(lo.__add__)))
    return lhs, RealEnclosure(lo, hi), err


@st.composite
def max_inputs(draw):
    lhs = draw(rationals)
    lo = draw(st.one_of(nonneg, st.just(lhs * lhs)))
    msq = enc(lo, draw(st.one_of(st.just(F(0)), nonneg)))
    err_lo = draw(st.one_of(rationals, st.just(lhs)))
    return lhs, msq, enc(err_lo, draw(st.one_of(st.just(F(0)), nonneg)))


@st.composite
def linear_inputs(draw):
    """lhs on main.lo + err.lo, on main.hi + err.hi, or free."""
    main = enc(draw(rationals), draw(nonneg))
    err = enc(draw(rationals), draw(nonneg))
    lhs = draw(st.one_of(rationals, st.just(main.lo + err.lo), st.just(main.hi + err.hi), st.just(main.lo)))
    return lhs, main, err


@settings(max_examples=400, deadline=None)
@given(sum_inputs())
@example((F(0), RealEnclosure.exact(0), RealEnclosure.exact(0)))
@example((F(5), RealEnclosure(F(9), F(16)), RealEnclosure.exact(2)))  # (5 - 2)^2 = 9 = msq.lo
@example((F(5), RealEnclosure.exact(F(8)), RealEnclosure(F(2), F(3))))  # 8 < 9, (5 - 3)^2 = 4 < 8
@example((F(3), RealEnclosure.exact(1), RealEnclosure(F(3), F(4))))  # lhs - err.lo = 0
@example((F(2), RealEnclosure.exact(1), RealEnclosure(F(3), F(4))))  # lhs - err.lo < 0
def test_sum_rule_matches_fraction_oracle(case):
    assert _sum_status(*as_pairs(*case)) == oracle_sum(*case)


@settings(max_examples=300, deadline=None)
@given(max_inputs())
@example((F(0), RealEnclosure.exact(0), RealEnclosure.exact(0)))
@example((F(3), RealEnclosure(F(9), F(10)), RealEnclosure.exact(1)))  # lhs^2 = msq.lo
@example((F(3), RealEnclosure.exact(1), RealEnclosure(F(3), F(5))))  # lhs = err.lo
def test_max_rule_matches_fraction_oracle(case):
    assert _max_status(*as_pairs(*case)) == oracle_max(*case)


@settings(max_examples=300, deadline=None)
@given(linear_inputs())
@example((F(0), RealEnclosure.exact(0), RealEnclosure.exact(0)))
@example((F(5), RealEnclosure(F(2), F(3)), RealEnclosure(F(3), F(4))))  # lhs = main.lo + err.lo
@example((F(7), RealEnclosure(F(2), F(3)), RealEnclosure(F(3), F(4))))  # lhs = main.hi + err.hi
def test_linear_rule_matches_fraction_oracle(case):
    assert _linear_status(*as_pairs(*case)) == oracle_linear(*case)


@settings(max_examples=300, deadline=None)
@given(linear_inputs())
@example((F(2), RealEnclosure(F(2), F(3)), RealEnclosure.exact(0)))  # lhs = main.lo
@example((F(3), RealEnclosure(F(2), F(3)), RealEnclosure.exact(0)))  # lhs = main.hi
def test_below_rule_matches_fraction_oracle(case):
    assert _below_status(*as_pairs(*case)) == oracle_below(*case)


enclosures = st.builds(enc, rationals, st.one_of(st.just(F(0)), nonneg))


@settings(max_examples=400, deadline=None)
@given(
    a=st.one_of(enclosures, st.builds(enc, nonneg, nonneg)),
    b=st.one_of(enclosures, st.builds(enc, nonneg, nonneg), rationals, st.integers(-50, 50)),
)
def test_sign_aware_product_is_the_four_product_hull(a, b):
    prod = a * b
    want = four_product(a, b)
    assert (prod.lo, prod.hi) == (want.lo, want.hi)
    assert type(prod.lo) is F and type(prod.hi) is F
    if not isinstance(b, RealEnclosure):
        assert b * a == prod


# -- main and margin are built when read ---------------------------------------------


@pytest.fixture
def sqrt_calls(monkeypatch):
    calls = []
    real = checks.sqrt_enclosure

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(checks, "sqrt_enclosure", counted)
    return calls


def _workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statuses_need_no_square_root(corpus, sqrt_calls):
    member = next(m for m in corpus if m.name == "S6")
    sweep = _workloads()._sweep(member.report)
    assert len(sweep) == 117
    assert all(v.holds and v.precision_bits for _, v, _ in sweep)
    assert sqrt_calls == []
    squared = [v for label, v, _ in sweep if label != "aspect"]
    first = [v.to_json() for _, v, _ in sweep]
    assert len(sqrt_calls) == len(squared) == 104
    assert [v.to_json() for _, v, _ in sweep] == first
    assert len(sqrt_calls) == len(squared)  # built once, then kept


def test_violation_verdict_negates_its_margin_when_read(sqrt_calls):
    v = convexity_defect_check(F(190), F(780), F(3160), 20, 2, F(1, 10))
    assert v.status == FAILS and sqrt_calls == []
    assert v.margin < 0 and len(sqrt_calls) == 1
    assert v.main.lo**2 <= 4 * 190 * 3160 <= v.main.hi**2 and len(sqrt_calls) == 1
