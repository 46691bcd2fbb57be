"""Exact scalars: the integer form agrees with Fraction arithmetic, and the
long-integer decimal conversion matches str()."""

import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmlat import rationals
from harmlat.rationals import (
    DECIMAL_LEAF_BITS,
    common_denominator,
    format_int,
    format_rational,
    reduce_in_place,
)


@pytest.fixture
def no_digit_limit():
    """Lift str()'s int digit limit so that str() can serve as the reference."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    old = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _around(bits):
    return [(1 << bits) - 1, 1 << bits, (1 << bits) + 1, 3**(bits * 100 // 159)]


def test_format_int_equals_str_on_both_sides_of_the_leaf(no_digit_limit):
    values = [0, 1, -1, 10**18, -(10**40)]
    for bits in (DECIMAL_LEAF_BITS - 1, DECIMAL_LEAF_BITS, DECIMAL_LEAF_BITS + 1, 3 * DECIMAL_LEAF_BITS):
        values += _around(bits)
    for v in values:
        for x in (v, -v):
            assert format_int(x) == str(x)


def test_format_int_equals_str_at_about_1e5_digits(no_digit_limit):
    for x in (10**100000, 10**100000 - 1, -(7**118000 + 12345), 2**330000 - 3**200000):
        assert format_int(x) == str(x)


def test_format_int_needs_no_digit_limit_lift():
    x = 10**9000 + 1
    assert format_int(x) == "1" + "0" * 8999 + "1"
    assert format_int(-x) == "-1" + "0" * 8999 + "1"


def test_format_int_splits_at_every_size(no_digit_limit, monkeypatch):
    # with no str() leaf every integer takes the split route
    monkeypatch.setattr(rationals, "DECIMAL_LEAF_BITS", 0)
    for x in (0, 1, -5, 2**64, 10**400 - 1, -(3**5000), 2**20000 + 1):
        assert format_int(x) == str(x)


def test_format_rational_long_parts(no_digit_limit):
    q = F(3**40000 + 2, 2**30001)
    assert format_rational(q) == f"{q.numerator}/{q.denominator}"
    assert format_rational(-q) == f"-{q.numerator}/{q.denominator}"
    assert format_rational(F(-(10**20000))) == str(-(10**20000))


fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)


@settings(max_examples=150, deadline=None)
@given(st.lists(fractions, max_size=12))
@example([])
@example([F(0), F(0), F(0)])
@example([F(-3, 4), F(5, 6), F(-7)])
@example([F(1, 3), F(2, 3)])
def test_common_denominator_is_the_least_one(values):
    nums, den = common_denominator(values)
    assert den >= 1 and all(den % v.denominator == 0 for v in values)
    assert [F(n, den) for n in nums] == values
    # a common denominator coprime to all numerators is the least one
    assert math.gcd(den, *nums) == 1


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(fractions, max_size=6), max_size=4),
    st.integers(1, 30),
    st.booleans(),
)
@example([], 6, False)
@example([[F(0), F(0)]], 5, False)
@example([[F(-1, 2), F(3, 4)], [F(-5)]], 4, True)
@example([[F(1, 3), F(-2, 7)]], 1, False)  # already in lowest terms: nothing to divide
def test_reduce_in_place_gives_the_lowest_terms(values, factor, shared):
    # numerators over a common denominator times a spare factor; a list
    # passed twice is still divided once
    flat = [v for row in values for v in row]
    den = math.lcm(*(v.denominator for v in flat)) * factor
    lists = [[int(v * den) for v in row] for row in values]
    passed = lists + lists[:1] if shared else lists
    reduced = reduce_in_place(den, *passed)
    assert [[F(n, reduced) for n in row] for row in lists] == values
    assert math.gcd(reduced, *(n for row in lists for n in row)) == 1
    assert reduced == (math.lcm(*(v.denominator for v in flat)) if any(flat) else 1)
