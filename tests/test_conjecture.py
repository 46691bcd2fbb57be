"""Growth tables of the planar families and the conjecture residual scan."""

import contextlib
import itertools
import math
from fractions import Fraction as F
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlat import (
    InvalidParameterError,
    ResourceLimitError,
    checks,
    conjecture,
    conjecture_scan,
    convexity_defect_check,
    enclose_pow,
    evaluate_on_ball,
    family_polynomial,
    growth_report,
    sqrt_enclosure,
)
from harmlat.conjecture import SCAN_CSV_HEADER, _scan_row
from harmlat.growth import growth_polynomial


def brute_force_Q_s2_n2():
    """Oracle: Q of (x^2-y^2)/2 after two steps, over all 16 walks."""
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    total = F(0)
    for s1, s2 in itertools.product(steps, repeat=2):
        x, y = s1[0] + s2[0], s1[1] + s2[1]
        total += F(x * x - y * y, 2) ** 2
    return total / 16


def walk_growth(family, k, n_max, d=None):
    """The walk-route growth report of a family member on B_n_max."""
    return growth_report(evaluate_on_ball(family_polynomial(family, k, d), n_max))


def test_s1_growth_is_half_n():
    rep = walk_growth("S", 1, 20)
    for n in range(21):
        assert rep.Q(n) == F(n, 2)


def test_t1_growth_matches_s1_by_symmetry():
    rs = walk_growth("S", 1, 12)
    rt = walk_growth("T", 1, 12)
    assert [rs.Q(n) for n in range(13)] == [rt.Q(n) for n in range(13)]


def test_s2_growth_at_2_matches_walk_enumeration():
    rep = walk_growth("S", 2, 4)
    assert rep.Q(2) == brute_force_Q_s2_n2()


def test_u_family_table():
    rep = walk_growth("u", 2, 15, d=3)
    for n in range(16):
        assert rep.Q(n) == F(2, 9) * math.comb(n, 2)


def test_scan_rejects_bad_family():
    with pytest.raises(InvalidParameterError):
        conjecture_scan(1, 1, F(1, 10), 2, 5, family="X")
    with pytest.raises(InvalidParameterError):
        conjecture_scan(1, 1, F(1, 10), 2, 5, family="S", d=3)


def test_scan_resource_cap(monkeypatch):
    # the scan reads Q(4n) = Q(200) from B_{deg + 1}, never from B_200
    monkeypatch.setenv("HARM_MAX_CELLS", "1000")
    with pytest.raises(ResourceLimitError):
        conjecture_scan(30, 1, F(1, 10), 50, 50)  # B_31 of Z^2: 1985 cells
    assert conjecture_scan(20, 1, F(1, 10), 50, 50).rows[0].n == 50  # B_21: 925 cells
    assert conjecture_scan(2, 1, F(1, 10), 50, 50).rows[0].n == 50  # B_3: 25 cells


def test_scan_refuses_its_ball_before_building_the_member(monkeypatch):
    # S_400 takes seconds to build; B_401 of Z^2 (322,405 cells) is refused first
    from harmlat import polynomials

    def unbuilt(k):
        raise AssertionError(f"S_{k} was built before its ball was checked")

    monkeypatch.setenv("HARM_MAX_CELLS", "1000")
    monkeypatch.setattr(polynomials, "sk_polynomial", unbuilt)
    with pytest.raises(ResourceLimitError, match="B_401 of Z\\^2"):
        conjecture_scan(400, 1, F(1, 10))


def test_scan_k1_no_violation():
    # Q(n) = n/2 is exactly log-convex at ratio 1:2:4, so the residual is <= 0
    result = conjecture_scan(1, 1, F(1, 10), 2, 12)
    assert all(r.violation is False for r in result.rows)
    assert all(r.residual.lo <= 0 for r in result.rows)
    assert result.summary["violations"] == 0


def test_scan_k6_window_runs_and_is_consistent():
    result = conjecture_scan(6, 1, F(1, 10), 17, 30)
    assert len(result.rows) == 14
    for row in result.rows:
        assert row.q_n > 0  # positivity at n >= k for this family
        assert row.ratio == row.q_2n**2 / (row.q_n * row.q_4n)
        verdict = convexity_defect_check(
            row.q_n, row.q_2n, row.q_4n, row.n, 1, F(1, 10)
        )
        assert (verdict.status == "holds") == bool(row.violation)
        # residual vs bound comparison agrees with the verdict
        if row.violation:
            assert row.residual.lo > row.bound.hi


def test_scan_empty_range():
    # an empty window checks nothing, so it cannot report "no violation"
    with pytest.raises(InvalidParameterError):
        conjecture_scan(2, 1, F(1, 10), 10, 9)
    with pytest.raises(InvalidParameterError):
        conjecture_scan(2, 1, F(1, 10), -5, 0)  # n starts at 1


def test_scan_csv_deterministic_and_schema():
    a = conjecture_scan(3, 1, F(1, 10), 17, 24).to_csv()
    b = conjecture_scan(3, 1, F(1, 10), 17, 24).to_csv()
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 9
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 11
        int(fields[0])
        assert fields[10] in ("0", "1", "?")


def test_scan_k40_default_window_under_default_cap(monkeypatch):
    # needs Q up to 1896; only B_41 of Z^2 is enumerated
    monkeypatch.delenv("HARM_MAX_CELLS", raising=False)
    result = conjecture_scan(40, 1, F(1, 10))
    assert len(result.rows) == 81
    assert result.summary["undecided"] == 0


def test_scan_summary_disclaims_finite_window():
    result = conjecture_scan(2, 2, F(1, 10), 17, 20)
    assert "not evidence against" in result.summary["note"]


def test_scan_default_window_centered_at_target():
    from harmlat.conjecture import default_window

    lo, hi = default_window(6)
    center = 36 / math.log(6)
    assert lo <= center <= hi
    assert hi - lo == 2 * 6
    result = conjecture_scan(4, 1, F(1, 10))
    assert result.rows[0].n == default_window(4)[0]
    assert result.rows[-1].n == default_window(4)[1]
    with pytest.raises(InvalidParameterError):
        default_window(1)


def test_uk_scan_flags_agree_with_search_verdicts():
    # growth of the coordinate product is an exact multiple of binom(n, k),
    # so scan flags must coincide with the binomial violation verdicts
    k = 2
    result = conjecture_scan(k, 1, F(1, 5), 17, 20, family="u", d=2)
    for row in result.rows:
        direct = convexity_defect_check(
            math.comb(row.n, k), math.comb(2 * row.n, k), math.comb(4 * row.n, k),
            row.n, 1, F(1, 5),
        )
        assert (direct.status == "holds") == bool(row.violation)


def _counting_enclose_pow(calls):
    """Patch ``enclose_pow`` where the scan and the checkers look it up, recording each call."""
    stack = contextlib.ExitStack()
    for module in (conjecture, checks):
        real = module.enclose_pow
        stack.enter_context(mock.patch.object(
            module, "enclose_pow", lambda *args, real=real: calls.append(args) or real(*args)))
    return stack


def test_scan_encloses_the_bound_once_per_row():
    calls = []
    with _counting_enclose_pow(calls):
        result = conjecture_scan(12, 1, F(1, 10))
    assert len(result.rows) == 25
    assert len(calls) == 25


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 200),
    C=st.sampled_from([F(1), F(5, 4), F(2)]),
    eps=st.sampled_from([F(1, 10), F(1, 5), F(1, 3)]),
    q_n=st.integers(1, 10**6),
    q_4n=st.integers(1, 10**12),
    shift=st.integers(-300, 300),
)
def test_scan_row_flag_is_the_violation_verdict(n, C, eps, q_n, q_4n, shift):
    """Q(2n) within 2^-|shift| (relative) of the violation boundary, above it
    for shift > 0, below for shift < 0: at every cap the row decides on the
    one bound it prints, and its flag is the status of convexity_defect_check
    (None where that is undecided), so a decided flag never flips as the cap
    grows."""
    rhs = C * sqrt_enclosure(F(q_n * q_4n), 1024) + enclose_pow(2, n, F(1, 2) + eps, 1024) * q_4n
    mid = (rhs.lo + rhs.hi) / 2
    q_2n = mid if shift == 0 else mid + (1 if shift > 0 else -1) * mid / 2 ** abs(shift)
    growth = SimpleNamespace(Q={n: F(q_n), 2 * n: q_2n, 4 * n: F(q_4n)}.__getitem__)
    flags = []
    for cap in (1, 8, 64, 128, 256):
        calls = []
        with _counting_enclose_pow(calls):
            row = _scan_row(growth, n, C, eps, cap)
        assert len(calls) == 1
        status = convexity_defect_check(q_n, q_2n, q_4n, n, C, eps, cap).status
        assert row.violation == {"holds": True, "fails": False, "undecided": None}[status]
        flags.append(row.violation)
    for i, flag in enumerate(flags):
        if flag is not None:
            assert flags[i:] == [flag] * (len(flags) - i), flags



def test_scan_row_builds_three_enclosures(enclosures_built):
    """A row builds one RealEnclosure each for its bound, the root of Q(n) Q(4n) and its residual."""
    growth = growth_polynomial(family_polynomial("S", 12, n_max=276), 276)
    enclosures_built.clear()
    row = _scan_row(growth, 57, F(1), F(1, 10), 256)
    assert len(enclosures_built) == 3
    assert enclosures_built[0] is row.bound and enclosures_built[2] is row.residual
