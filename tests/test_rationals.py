"""Wire-format scalars: the long-integer decimal conversion matches str()."""

import sys
from fractions import Fraction as F

import pytest

from harmlat import rationals
from harmlat.rationals import DECIMAL_LEAF_BITS, format_int, format_rational


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
