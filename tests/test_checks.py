"""Inequality verdicts: worked cases, scale invariance, search behavior."""

import hashlib
import json
import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlat import (
    GrowthPolynomial,
    HypothesisNotMetError,
    InvalidParameterError,
    RealEnclosure,
    aspect_ratio_check,
    binomial_inequality_check,
    continuous_three_circles_check,
    convexity_defect_check,
    counterexample_search,
    enclose_pow,
    exp_enclosure,
    general_P_check,
    growth_polynomial,
    ln_enclosure,
    no_error_check,
    ratio_125_check,
    sk_polynomial,
    three_circles_check,
)
from harmlat import checks
from harmlat.checks import (
    CounterexampleSearchResult,
    _ladder,
    _log_ratio_bound,
    _max_status,
    _nstar_candidates,
    _square_ratio_rules_out,
    _square_ratio_upper,
    _verdict,
    k2_over_ln_k_floors,
)
from harmlat.enclosure import _ends

from conftest import growth_of

# Q(n) = sum_k a_k C(n, k) on n = 0..599, from the known a_k
ONES = GrowthPolynomial(2, (F(1),), 599)
Q_XY = GrowthPolynomial(2, (F(0), F(0), F(1, 2)), 599)
Q_X1 = GrowthPolynomial(1, (F(0), F(1)), 599)  # d = 1 coordinate
Q_U3 = GrowthPolynomial(3, (F(0), F(0), F(0), F(6, 27)), 599)
Q_NEG = GrowthPolynomial(2, (F(1), F(-1, 2), F(1, 3)), 599)  # a_1 < 0, Q(n) = (n^2 - 4n + 6)/6
S6 = growth_polynomial(sk_polynomial(6))




# -- three circles with error -------------------------------------------------------


def test_three_circles_constant():
    v = three_circles_check(ONES, 17, 0)
    assert v.holds and v.hypothesis_met and v.margin > 0


def test_three_circles_xy():
    v = three_circles_check(Q_XY, 20, F(1, 4))
    assert v.holds and v.hypothesis_met


def test_three_circles_guard_and_explore():
    with pytest.raises(HypothesisNotMetError):
        three_circles_check(Q_XY, 10, 0)
    v = three_circles_check(Q_XY, 10, 0, explore=True)
    assert v.holds and v.hypothesis_met is False
    assert "outside" in v.note


def test_three_circles_eps_range():
    with pytest.raises(InvalidParameterError):
        three_circles_check(ONES, 20, F(3, 4))


def test_three_circles_out_of_range():
    from harmlat import OutOfRangeError

    short = GrowthPolynomial(2, (F(1),), 49)
    with pytest.raises(OutOfRangeError):
        three_circles_check(short, 20, 0)  # needs Q(80)


def test_three_circles_never_undecided_at_256():
    for eps in (F(0), F(1, 4), F(1, 2)):
        for n in (17, 20, 40):
            assert three_circles_check(Q_XY, n, eps).status == "holds"


# -- general inner:outer ratio P ---------------------------------------------------------


@pytest.mark.parametrize("eps", [F(0), F(1, 4), F(1, 2)])
@pytest.mark.parametrize("growth", [ONES, Q_XY, Q_U3, S6, Q_NEG], ids=["1", "xy", "u3", "S6", "neg"])
def test_general_P_reduces_to_three_circles_at_2(growth, eps):
    # one body: explored verdicts differ only in what the two guards say
    for n in range(1, 41):
        tc = three_circles_check(growth, n, eps, explore=True).to_json()
        gp = general_P_check(growth, n, 2, eps, explore=True).to_json()
        if n <= 16:
            assert tc.pop("note") == "outside guarantee hypotheses (n <= 16): empirical check"
            outside = "outside guarantee hypotheses (n < 4P^2): empirical check"
            assert gp.pop("note") == ("" if n == 16 else outside)
            assert (tc.pop("hypothesis_met"), gp.pop("hypothesis_met")) == (False, n == 16)
        assert tc == gp


def test_general_P_constant():
    assert general_P_check(ONES, 36, 3, 0).holds


def test_general_P_u3():
    v = general_P_check(Q_U3, 40, F(3, 2), F(1, 4))
    assert v.holds and v.hypothesis_met


def test_general_P_guard():
    with pytest.raises(HypothesisNotMetError):
        general_P_check(Q_U3, 8, 3, 0)
    v = general_P_check(Q_U3, 8, 3, 0, explore=True)
    assert v.hypothesis_met is False


def test_general_p_at_two_admits_n16_where_three_circles_does_not():
    g = growth_polynomial(sk_polynomial(6))
    v = general_P_check(g, 16, 2, 0)
    assert v.holds and v.hypothesis_met and v.note == ""
    with pytest.raises(HypothesisNotMetError, match="n > 16"):
        three_circles_check(g, 16, 0)
    # explored, three circles decides n = 16 alike but marks it outside its guarantee
    w = three_circles_check(g, 16, 0, explore=True)
    assert (w.status, w.main, w.error_term, w.margin) == (v.status, v.main, v.error_term, v.margin)
    assert w.hypothesis_met is False


# -- binomial inequality ---------------------------------------------------------------------


def test_binomial_k0_holds_both_forms():
    r = binomial_inequality_check(7, 0, 2, F(1, 2))
    assert r.plain.holds and r.max_form.holds


def test_binomial_k1_holds_all_n():
    for n in (1, 2, 5, 17, 100):
        r = binomial_inequality_check(n, 1, 2, 0)
        assert r.plain.holds


def test_binomial_n100_k5_positive_margin():
    r = binomial_inequality_check(100, 5, 2, F(1, 4))
    assert r.plain.holds and r.plain.margin > 0
    assert r.max_form.holds


def test_binomial_max_form_implies_plain():
    for n in (3, 10, 33):
        for k in (0, 2, 5, 9):
            r = binomial_inequality_check(n, k, F(3, 2), F(1, 4))
            if r.max_form.holds:
                assert r.plain.holds


# -- no-error form ------------------------------------------------------------------------------


def test_no_error_linear():
    v = no_error_check(Q_X1, 1, 20, 0)
    assert v.holds


def test_no_error_hypothesis_not_met_is_classified():
    with pytest.raises(HypothesisNotMetError):
        no_error_check(Q_X1, 5, 20, F(1, 4))  # 20^(1/2) < 25
    with pytest.raises(HypothesisNotMetError):
        no_error_check(Q_X1, 1, 10, 0)  # n <= 16


def test_no_error_u2():
    q_u2 = GrowthPolynomial(2, (F(0), F(0), F(1, 2)), 119)
    v = no_error_check(q_u2, 2, 25, 0)
    assert v.holds


# -- perturbed outer radius ----------------------------------------------------------------------


def test_ratio_125_examples():
    assert ratio_125_check(ONES, 11, F(1, 8)).holds
    assert ratio_125_check(Q_XY, 30, F(1, 8)).holds
    from harmlat import growth_polynomial, sk_polynomial

    q_s4 = growth_polynomial(sk_polynomial(4))  # reads Q up to ceil(4(1+1/5)*24) = 116
    assert ratio_125_check(q_s4, 24, F(1, 5)).holds


def test_ratio_125_delta_range():
    with pytest.raises(InvalidParameterError):
        ratio_125_check(ONES, 5, F(1, 4))
    with pytest.raises(InvalidParameterError):
        ratio_125_check(ONES, 5, 0)


# -- aspect ratios ------------------------------------------------------------------------------


def test_aspect_consistency_with_124():
    # p = P = 2 with alpha = 1/2 is the 1:2:4 statement up to the constant convention
    v = aspect_ratio_check(ONES, 40, 2, 2, F(1, 4), alpha=F(1, 2))
    assert v.holds


def test_aspect_u2():
    v = aspect_ratio_check(Q_XY, 60, 3, F(3, 2), F(1, 4))
    assert v.holds


def test_aspect_derived_alpha_vs_supplied():
    a = aspect_ratio_check(Q_XY, 30, 3, 2, F(1, 4))
    assert a.holds
    # alpha for p=P=2 is exactly 1/2; deriving must agree with supplying it
    d1 = aspect_ratio_check(Q_XY, 30, 2, 2, F(1, 4))
    d2 = aspect_ratio_check(Q_XY, 30, 2, 2, F(1, 4), alpha=F(1, 2))
    assert d1.status == d2.status == "holds"


def test_aspect_rejects_alpha_outside_unit_interval():
    # Q(n) = 0 would make Q(n)^alpha infinite for alpha < 0, not 0
    for alpha in (-1, 0, 1, F(3, 2)):
        with pytest.raises(InvalidParameterError, match="alpha"):
            aspect_ratio_check(Q_XY, 30, 3, 2, F(1, 4), alpha=alpha)


def test_aspect_parameter_order():
    with pytest.raises(InvalidParameterError):
        aspect_ratio_check(ONES, 10, F(1, 2), 2, 0)  # pP = 1 violates P < pP
    with pytest.raises(InvalidParameterError):
        aspect_ratio_check(ONES, 10, 3, 1, 0)


# -- continuous-time (exact) ----------------------------------------------------------------------


def test_continuous_constant_equality():
    qc = GrowthPolynomial(1, (F(9),))
    v = continuous_three_circles_check(qc, F(1, 2))
    assert v.holds and v.margin == 0


def test_continuous_single_term_equality():
    qc = GrowthPolynomial(1, (F(0), F(1)))
    v = continuous_three_circles_check(qc, 3)
    assert v.holds and v.margin == 0


def test_continuous_two_terms():
    qc = GrowthPolynomial(1, (F(0), F(1), F(1, 2)))  # Qc(t) = t + t^2/4
    for t in (F(1), F(3), F(10)):
        assert continuous_three_circles_check(qc, t).holds


def test_continuous_rejects_nonpositive_t():
    qc = GrowthPolynomial(1, (F(1),))
    with pytest.raises(InvalidParameterError):
        continuous_three_circles_check(qc, 0)


def test_continuous_detects_failure():
    # Qc(t) = (t - 2)^2 dips to zero at t = 2, so the bound fails at t = 1/2
    qc = GrowthPolynomial(1, (F(4), F(-4), F(2)))  # a_k = k! c_k
    v = continuous_three_circles_check(qc, F(1, 2))
    assert v.status == "fails" and v.margin < 0


# -- scale invariance and enclosure soundness --------------------------------------------------------


def test_verdicts_scale_invariant():
    c2 = F(9, 49)
    scaled = GrowthPolynomial(2, tuple(c2 * a for a in Q_XY.newton), Q_XY.n_max)
    cases = [
        lambda rep: three_circles_check(rep, 20, F(1, 4)),
        lambda rep: general_P_check(rep, 40, F(3, 2), 0),
        lambda rep: ratio_125_check(rep, 30, F(1, 8)),
        lambda rep: aspect_ratio_check(rep, 30, 3, 2, F(1, 4)),
        lambda rep: no_error_check(rep, 2, 25, 0),
    ]
    for check in cases:
        assert check(Q_XY).status == check(scaled).status


LADDER_CAPS = (1, 8, 64, 128, 256, 512)
OPEN = {"undecided"}


def _report_with(values):
    """A growth report that is 1 except at the given indices."""
    q = [F(1)] * (max(values) + 1)
    for n, v in values.items():
        q[n] = v
    return growth_of(q)


def _near_boundary(check):
    """(lhs, true status) pairs within about 2^-100 (relative) of the right-hand side.

    ``check(lhs, cap)`` returns a verdict of lhs <= main + err whose main and
    error terms do not depend on lhs; a coarse rung locates the right-hand
    side, a fine one brackets it.  Just above the bracket the statement
    fails, just below it holds; its midpoint has no known side.
    """
    v = check(F(1), 64)
    v = check((v.main.lo + v.error_term.lo + v.main.hi + v.error_term.hi) / 2, 1024)
    lo, hi = v.main.lo + v.error_term.lo, v.main.hi + v.error_term.hi
    t = F(1, 2**100)
    return [(hi * (1 + t), "fails"), (lo * (1 - t), "holds"), ((lo + hi) / 2, None)]


def _ladder_cases():
    """(name, outcome(cap), allowed outcomes or None) for every ladder checker.

    An outcome is a verdict status, or "raised" when the checker raised
    HypothesisNotMetError, which it does only once the hypothesis is
    certified false, so "raised" is a decided outcome.
    """
    a, b = F(7, 3), F(50)
    checks = []
    for n, eps in ((17, F(1, 4)), (20, F(0)), (5, F(1, 3))):
        checks += [
            (f"three-circles n={n} eps={eps}", lambda x, cap, n=n, eps=eps: three_circles_check(
                _report_with({n: a, 2 * n: x, 4 * n: b}), n, eps, cap, explore=True)),
            (f"general-P n={n} eps={eps}", lambda x, cap, n=n, eps=eps: general_P_check(
                _report_with({n: a, 3 * n // 2: x, math.ceil(F(9, 4) * n): b}), n, F(3, 2), eps, cap,
                explore=True)),
            (f"ratio-125 n={n}", lambda x, cap, n=n: ratio_125_check(
                _report_with({n: a, 2 * n: x, math.ceil(F(9, 2) * n): b}), n, F(1, 8), cap)),
            (f"aspect derived n={n} eps={eps}", lambda x, cap, n=n, eps=eps: aspect_ratio_check(
                _report_with({n: a, 2 * n: x, 6 * n: b}), n, 3, 2, eps, precision=cap)),
            (f"aspect alpha=2/5 n={n} eps={eps}", lambda x, cap, n=n, eps=eps: aspect_ratio_check(
                _report_with({n: a, 2 * n: x, 6 * n: b}), n, 3, 2, eps, alpha=F(2, 5), precision=cap)),
        ]
    for n in (17, 20):
        checks.append((f"no-error n={n}", lambda x, cap, n=n: no_error_check(
            _report_with({n: a, 2 * n: x, 4 * n: b}), 1, n, F(1, 4), cap)))
    # the max rule's only public input, the binomial max form, holds with room; drive it directly
    def square(p):
        return _ends(exp_enclosure(F(1, 3), p) * 5), ((0, 1), (0, 1))

    checks.append(("max rule", lambda x, cap: _verdict(x, square, cap, _max_status, True, "", combine=max)))
    for n, C, eps in ((17, F(1), F(1, 10)), (30, F(3, 2), F(1, 5))):
        checks.append((f"convexity-defect n={n} C={C}", lambda x, cap, n=n, C=C, eps=eps:
                       convexity_defect_check(F(11), x, F(10**6), n, C, eps, cap)))
    swap = {"holds": "fails", "fails": "holds"}
    cases = []
    for name, check in checks:
        for x, truth in _near_boundary(check) + [(F(1, 10**9), "holds"), (F(10**9), "fails")]:
            if name.startswith("convexity-defect"):  # the violation form: holds means lhs > rhs
                truth = swap.get(truth)
            allowed = OPEN | {truth} if truth else None
            cases.append((f"{name} lhs={float(x)}", lambda cap, check=check, x=x: check(x, cap).status, allowed))
    # real profiles, as in the corpus
    for rep, n, eps in ((Q_XY, 20, F(1, 4)), (ONES, 17, 0), (Q_U3, 20, F(1, 2))):
        cases.append((f"three-circles profile n={n}",
                       lambda cap, rep=rep, n=n, eps=eps: three_circles_check(rep, n, eps, cap).status, None))
    # the error-free form's degree hypothesis M^2 < n^(1-2eps) near equality:
    # 1 - 2eps within 2^-118 of ln 16 / ln 20, the first two below it (not met);
    # low caps leave it open, which is undecided, never raised
    edge = _degree_edge()
    for eps, allowed in ((edge, OPEN | {"raised"}), (edge + F(1, 2**119), OPEN | {"raised"}),
                         (edge - F(1, 2**119), OPEN | {"holds"})):
        cases.append((f"no-error hypothesis eps={float(eps)}",
                       lambda cap, eps=eps: _status_or_raised(lambda: no_error_check(Q_X1, 4, 20, eps, cap)),
                       allowed))
    for n, k in ((0, 0), (0, 3), (1, 1), (5, 2), (12, 7), (30, 4)):
        for P, eps in ((2, F(1, 4)), (F(3, 2), 0), (3, F(1, 2))):
            for form in ("plain", "max_form"):
                cases.append((f"binomial {form} n={n} k={k} P={P}", lambda cap, n=n, k=k, P=P, eps=eps, form=form:
                              getattr(binomial_inequality_check(n, k, P, eps, cap), form).status, None))
    return cases


def _degree_edge():
    """eps with 1 - 2eps just above ln 16 / ln 20: n = 20, M = 4 sits on the hypothesis' edge."""
    ratio = ln_enclosure(F(16), 300) / ln_enclosure(F(20), 300)
    return (1 - F(math.floor(ratio.lo * 2**120), 2**120)) / 2


def _status_or_raised(call):
    try:
        return call().status
    except HypothesisNotMetError:
        return "raised"


def test_precision_increase_never_flips():
    """A verdict decided at cap p keeps its status at every larger cap q.

    Inputs built on a known side of the boundary must, where decided, be
    decided on that side.
    """
    refined = 0
    for name, outcome, allowed in _ladder_cases():
        statuses = [outcome(cap) for cap in LADDER_CAPS]
        assert allowed is None or set(statuses) <= allowed, f"{name}: caps {LADDER_CAPS} gave {statuses}"
        for i, low in enumerate(statuses):
            if low not in OPEN:
                assert all(high == low for high in statuses[i + 1:]), f"{name}: caps {LADDER_CAPS} gave {statuses}"
        refined += statuses[0] in OPEN and statuses[-1] not in OPEN
    # the near-boundary inputs really exercise the ladder: low caps leave them open
    assert refined >= 20


def test_no_error_open_hypothesis_is_undecided():
    # met by 2^-119, which only caps >= 128 can certify
    eps = _degree_edge() - F(1, 2**119)
    for cap in (1, 8, 64):
        v = no_error_check(Q_X1, 4, 20, eps, cap)
        assert (v.status, v.hypothesis_met, v.precision_bits) == ("undecided", None, cap)
        assert "degree hypothesis" in v.note and "open" in v.note
        assert v.margin == 0 and v.lhs == 40
        main = math.sqrt(20 * 80 * math.exp(20 ** float(-2 * eps)))
        assert float(v.main.lo) <= main * (1 + 1e-12) and main <= float(v.main.hi) * (1 + 1e-12)
    for cap in (128, 256):
        assert no_error_check(Q_X1, 4, 20, eps, cap).status == "holds"


def test_undecided_ladder_verdict_has_zero_margin():
    # the midpoint of the bracketed right-hand side, where a 1-bit cap decides nothing
    n, eps = 17, F(1, 4)

    def check(x, cap):
        return three_circles_check(_report_with({n: F(7, 3), 2 * n: x, 4 * n: F(50)}), n, eps, cap, explore=True)

    (mid, _), = [case for case in _near_boundary(check) if case[1] is None]
    v = check(mid, 1)
    assert (v.status, v.precision_bits, v.margin) == ("undecided", 1, 0)
    with mpmath.workdps(60):
        msq = mpmath.exp(1 / mpmath.sqrt(n)) * 7 / 3 * 50  # e^(n^-2eps) Q(n) Q(4n)
        assert v.main.lo ** 2 <= F(str(msq)) <= v.main.hi ** 2
    # every printed byte of the undecided verdict, pinned
    digest = hashlib.sha256(json.dumps(v.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == "cf2525e44d4fce2149e5229dc862d21cb07791661661a05a55ba034cec784af8"


def test_no_error_certified_not_met_still_raises():
    # eps = 0 and n = M^2: n^(1-2eps) = M^2 exactly, so "M^2 < n" is certified false at every cap
    for cap in (1, 64, 256):
        with pytest.raises(HypothesisNotMetError):
            no_error_check(Q_X1, 5, 25, 0, cap)
    # missed by 2^-119, which caps >= 128 certify
    for cap in (128, 256):
        with pytest.raises(HypothesisNotMetError):
            no_error_check(Q_X1, 4, 20, _degree_edge() + F(1, 2**119), cap)


# -- violation certification and search ---------------------------------------------------------------


def test_convexity_defect_negative_case():
    # the 1:2:4 bound is not beaten by binom(n,2) profiles at C=1 and small n
    v = convexity_defect_check(F(math.comb(20, 2)), F(math.comb(40, 2)), F(math.comb(80, 2)), 20, 2, F(1, 10))
    assert v.status == "fails"


@pytest.mark.parametrize(
    "C, k, n",
    [(F(5, 4), 77, 1649), (F(3, 2), 313, 15174), (F(7, 4), 761, 64961), (F(2), 1410, 179890)],
)
def test_off_rule_witnesses_hold_at_64_bits(C, k, n):
    # violations at n far from the search's k^2/ln k candidates, with k below its k*(C)
    b = [math.comb(m, k) for m in (n, 2 * n, 4 * n)]
    assert convexity_defect_check(*b, n, C, F(1, 10), precision=64).status == "holds"


def test_witness_reads_its_estimates_off_its_verdict(monkeypatch):
    # every 2^(-n^(1/2+eps)) enclosure of the search is a rung of a verdict's ladder
    inside, outside = [], []
    real_pow, real_check = checks.enclose_pow, checks.convexity_defect_check

    def counted_pow(*args):
        outside.append(args)
        return real_pow(*args)

    def ladder(*args, **kwargs):
        before = len(outside)
        verdict = real_check(*args, **kwargs)
        inside.extend(outside[before:])
        del outside[before:]
        return verdict

    monkeypatch.setattr(checks, "enclose_pow", counted_pow)
    monkeypatch.setattr(checks, "convexity_defect_check", ladder)
    res = counterexample_search(1, F(1, 5), 30, n0=100)
    assert (res.k, res.n) == (17, 101) and res.verdict.holds
    assert res.ratio_estimate_certified and res.square_estimate_certified
    assert inside and outside == []


def test_search_finds_c1_witness_beyond_100():
    res = counterexample_search(F(1), F(1, 5), k_max=60, n0=100)
    assert res.found
    assert res.n > 100
    assert res.verdict.holds
    assert res.ratio_estimate_certified and res.square_estimate_certified
    # independent big-integer re-verification with a conservative error bound:
    # 2^(-n^(7/10)) <= 2^(-floor(n^(7/10))) and the violation still stands
    k, n = res.k, res.n
    b_n, b_2n, b_4n = (math.comb(m, k) for m in (n, 2 * n, 4 * n))
    e = n**7
    root = round(e ** (1 / 10.0))
    while root**10 > e:
        root -= 1
    while (root + 1) ** 10 <= e:
        root += 1
    lhs_scaled = b_2n * 2**root - b_4n  # (B2n - 2^-root B4n) * 2^root
    assert lhs_scaled > 0
    assert lhs_scaled * lhs_scaled > b_n * b_4n * 2 ** (2 * root)


def test_search_exhausts_for_huge_constant():
    res = counterexample_search(F(10) ** 6, F(1, 10), k_max=10)
    assert not res.found
    assert res.candidates_checked > 0
    assert res.k is None and res.n is None


def test_search_c2_exhausts_below_k60():
    # at C = 2 the main term can only be beaten for n below ~k^2/11 while the
    # error term only becomes negligible for n above ~k^(5/3); the windows are
    # disjoint for every k <= 60, so the scan must report exhaustion
    res = counterexample_search(F(2), F(1, 10), k_max=60)
    assert not res.found
    assert res.candidates_checked >= 4 * 50


def test_search_candidates_near_target():
    res = counterexample_search(F(1), F(1, 5), k_max=25, n0=0)
    assert res.found
    # the witness must sit near k^2 / ln k
    target = res.k**2 / math.log(res.k)
    assert abs(res.n - target) <= 2.5


def test_search_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        counterexample_search(0, F(1, 10), k_max=5)
    with pytest.raises(InvalidParameterError):
        counterexample_search(1, 0, k_max=5)
    # an empty k range checks nothing
    with pytest.raises(InvalidParameterError):
        counterexample_search(2, F(1, 10), k_max=10, k_min=50)
    with pytest.raises(InvalidParameterError):
        counterexample_search(2, F(1, 10), k_max=1)
    assert counterexample_search(2, F(1, 10), k_max=2, k_min=-5).k_range == (2, 2)
    # an n0 at or above every candidate checks nothing: k = 3 has n = 7..10
    for n0 in (10, 10**20):
        with pytest.raises(InvalidParameterError):
            counterexample_search(2, F(1, 10), k_max=3, k_min=3, n0=n0)
    assert counterexample_search(2, F(1, 10), k_max=3, k_min=3, n0=9).candidates_checked == 1


def _candidates_of(k):
    """The search's candidates at k, from the per-k floors rather than the search's run."""
    return _nstar_candidates(*k2_over_ln_k_floors(k))


def _reference_search(C, eps, k_max, n0):
    """math.comb and the full ladder on every candidate, as the search once ran."""
    checked, undecided = 0, []
    for k in range(2, k_max + 1):
        for n in _candidates_of(k):
            if n <= n0:
                continue
            checked += 1
            b = tuple(math.comb(m, k) for m in (n, 2 * n, 4 * n))
            v = convexity_defect_check(*b, n, C, eps)
            if v.status == "holds":
                square_ok = F(b[1]) ** 2 > C * C * F(b[0]) * F(b[2])
                return dict(found=True, k=k, n=n, checked=checked, undecided=tuple(undecided),
                            binomials=b, square_ok=square_ok, verdict=v.to_json())
            if v.status == "undecided":
                undecided.append((k, n))
    return dict(found=False, k=None, n=None, checked=checked, undecided=tuple(undecided),
                binomials=None, square_ok=False, verdict=None)


@pytest.mark.parametrize("C", [F(1), F(3, 2), F(2), F(10) ** 6])
@pytest.mark.parametrize("eps", [F(1, 10), F(1, 5)])
def test_search_equals_full_ladder_reference(C, eps):
    for n0 in (0, 100, 1000):
        ref = _reference_search(C, eps, 80, n0)
        res = counterexample_search(C, eps, k_max=80, n0=n0)
        assert (res.found, res.k, res.n) == (ref["found"], ref["k"], ref["n"])
        assert res.candidates_checked == ref["checked"]
        assert res.undecided == ref["undecided"]
        assert res.binomials == ref["binomials"]
        assert res.square_estimate_certified == ref["square_ok"]
        assert (res.verdict.to_json() if res.found else None) == ref["verdict"]
        if res.found:
            err_unit = enclose_pow(2, res.n, F(1, 2) + eps, 256)
            b_n, b_2n, b_4n = res.binomials
            assert res.ratio_estimate_certified == (F(b_2n, b_4n) > err_unit.hi)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(2, 60),
    dn=st.integers(0, 400),
    C=st.fractions(min_value=F(1, 50), max_value=5, max_denominator=50),
    eps=st.sampled_from([F(1, 10), F(1, 5), F(1, 3), F(1, 2)]),
)
def test_square_test_implies_ladder_fails(k, dn, C, eps):
    # the search skips every candidate whose main term alone reaches
    # binom(2n,k); the ladder must say "fails" there at every cap
    n = k + dn
    b = tuple(math.comb(m, k) for m in (n, 2 * n, 4 * n))
    if C.denominator**2 * b[1] ** 2 <= C.numerator**2 * b[0] * b[2]:
        for cap in (1, 64, 256):
            assert convexity_defect_check(*b, n, C, eps, precision=cap).status == "fails"


def test_log_ratio_bound_rules_out_only_square_test_failures():
    # exhaustive: wherever U <= ln C^2 (certified from below) lets the search
    # skip a candidate, the exact square test would have ruled it out too
    ruled_out = 0
    for C in (F(2), F(3, 2), F(5, 4), F(11, 10)):
        ln_c2 = ln_enclosure(C * C, 256).lo
        for k in range(2, 41):
            for n in range(k, 400):
                if _log_ratio_bound(n, k, ln_c2.numerator, ln_c2.denominator):
                    ruled_out += 1
                    b_n, b_2n, b_4n = (math.comb(m, k) for m in (n, 2 * n, 4 * n))
                    assert C.denominator**2 * b_2n**2 <= C.numerator**2 * b_n * b_4n, (C, k, n)
    assert ruled_out > 38000


def _square_test_reference(C, eps, k_max, n0):
    """The search without the log bound: math.comb, the square test, then the ladder."""
    checked, undecided = 0, []
    for k in range(2, k_max + 1):
        for n in _candidates_of(k):
            if n <= n0:
                continue
            checked += 1
            b_n, b_2n, b_4n = (math.comb(m, k) for m in (n, 2 * n, 4 * n))
            if C.denominator**2 * b_2n**2 <= C.numerator**2 * b_n * b_4n:
                continue
            v = convexity_defect_check(b_n, b_2n, b_4n, n, C, eps)
            if v.status == "holds":
                ratio_ok = F(b_2n, b_4n) > enclose_pow(2, n, F(1, 2) + eps, 256).hi
                return CounterexampleSearchResult(
                    True, k, n, v, (b_n, b_2n, b_4n), ratio_ok, True, (2, k_max), checked,
                    tuple(undecided),
                )
            if v.status == "undecided":
                undecided.append((k, n))
    return CounterexampleSearchResult(
        False, k_range=(2, k_max), candidates_checked=checked, undecided=tuple(undecided)
    )


@pytest.mark.parametrize("C", [F(2), F(3, 2), F(5, 4), F(1)])
@pytest.mark.parametrize("eps", [F(1, 10), F(1, 5)])
def test_search_equals_square_test_reference(C, eps):
    for n0 in (0, 3, 100):
        expected = _square_test_reference(C, eps, 120, n0).to_json()
        assert counterexample_search(C, eps, k_max=120, n0=n0).to_json() == expected


def test_log_bound_settles_c2_near_k60000_without_binomials(monkeypatch):
    def no_binomials(*args):
        raise AssertionError("a binomial was built")

    monkeypatch.setattr(checks.math, "comb", no_binomials)
    res = counterexample_search(F(2), F(1, 10), 60050, k_min=60000)
    assert not res.found and res.undecided == ()
    assert res.candidates_checked == sum(len(_candidates_of(k)) for k in range(60000, 60051))


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(2, 80),
    dn=st.integers(0, 400),
    C=st.fractions(min_value=1, max_value=3, max_denominator=50),
)
def test_square_ratio_product_encloses_the_ratio(k, dn, C):
    # every rung brackets S = binom(2n,k)^2 / (binom(n,k) binom(4n,k)), and a
    # rung that certifies S <= C^2 agrees with the exact square test
    n = k + dn
    b_n, b_2n, b_4n = (math.comb(m, k) for m in (n, 2 * n, 4 * n))
    S = F(b_2n * b_2n, b_n * b_4n)
    square_rules_out = C.denominator**2 * b_2n**2 <= C.numerator**2 * b_n * b_4n
    c_num2, c_den2 = C.numerator**2, C.denominator**2
    for p in _ladder(256):
        hi = _square_ratio_upper(n, k, p)
        assert F(hi, (1 << p) + k) <= S <= F(hi, 1 << p), p
        if c_den2 * hi <= c_num2 << p:
            assert square_rules_out, p
    if _square_ratio_rules_out(n, k, c_num2, c_den2, 256):
        assert square_rules_out
    # C^2 within 2^-99 below S: the square test passes, so no rung may rule it out
    root = F(math.isqrt(S.numerator * 4**100 // S.denominator), 2**100)
    if root * root < S:
        assert not _square_ratio_rules_out(n, k, root.numerator**2, root.denominator**2, 256)


def test_product_settles_c2_crossover_without_binomials(monkeypatch):
    # k = 65,452..65,454 sit past the reach of U; the running product settles
    # every candidate, and none passes the square test
    def no_binomials(*args):
        raise AssertionError("a binomial was built")

    monkeypatch.setattr(checks.math, "comb", no_binomials)
    res = counterexample_search(F(2), F(1, 10), 65454, k_min=65452)
    assert not res.found and res.undecided == ()
    assert res.candidates_checked == sum(len(_candidates_of(k)) for k in range(65452, 65455))


def _window_before_sharing(k):
    """conjecture.default_window as written before it shared the k^2/ln k floors."""
    target = RealEnclosure.exact(F(k * k)) / ln_enclosure(F(k), 96)
    center = (math.floor(target.lo) + math.floor(target.hi)) // 2
    return max(1, center - k), center + k


def _candidates_before_sharing(k):
    """checks._nstar_candidates as written before it shared the k^2/ln k floors."""
    return _candidates_by_set(*_floors_by_enclosure(k))


def _candidates_by_set(lo_f, hi_f):
    """checks._nstar_candidates as written before it returned one range."""
    if lo_f != hi_f:
        cands = set(range(lo_f - 1, hi_f + 2))
    else:
        cands = {lo_f - 1, lo_f, lo_f + 1, lo_f + 2}
    return sorted(c for c in cands if c >= 1)


def test_nstar_candidates_equal_the_set_rule():
    grid = [(lo_f, hi_f) for lo_f in range(40) for hi_f in range(lo_f, lo_f + 8)]
    run = [(lo_f, hi_f) for _, lo_f, hi_f, _ in checks._k2_over_ln_k_run(2, 2000)]
    for lo_f, hi_f in grid + run:
        assert _nstar_candidates(lo_f, hi_f) == _candidates_by_set(lo_f, hi_f), (lo_f, hi_f)


def _floors_by_enclosure(k):
    target = RealEnclosure.exact(F(k * k)) / ln_enclosure(F(k), 96)
    return math.floor(target.lo), math.floor(target.hi)


def test_integer_floors_equal_the_enclosure_route():
    ks = list(range(2, 3001)) + list(range(60000, 70001, 97))
    ks += [2**e + d for e in range(1, 21) for d in (-1, 0, 1) if 2**e + d >= 2]
    assert [k2_over_ln_k_floors(k) for k in ks] == [_floors_by_enclosure(k) for k in ks]
    for k in (1, 0, -3):
        with pytest.raises(InvalidParameterError):
            k2_over_ln_k_floors(k)


def test_shared_k2_over_ln_k_keeps_windows_and_candidates():
    from harmlat.conjecture import default_window

    assert [default_window(k) for k in range(2, 301)] == [
        _window_before_sharing(k) for k in range(2, 301)
    ]
    assert [_candidates_of(k) for k in range(2, 3001)] == [
        _candidates_before_sharing(k) for k in range(2, 3001)
    ]


# -- the search's running logarithm -------------------------------------------------


def _run_floors(k_min, k_max):
    return [(lo_f, hi_f) for _, lo_f, hi_f, _ in checks._k2_over_ln_k_run(k_min, k_max)]


@pytest.mark.parametrize("k_min, k_max", [(2, 3000), (65000, 65500)])
def test_run_floors_equal_the_per_k_floors(k_min, k_max):
    ks = range(k_min, k_max + 1)
    assert _run_floors(k_min, k_max) == [k2_over_ln_k_floors(k) for k in ks]


@settings(max_examples=100, deadline=None)
@given(k_min=st.integers(2, 10**7), length=st.integers(1, 300))
def test_run_encloses_ln_k(k_min, length):
    ks = range(k_min, k_min + length)
    run = list(checks._k2_over_ln_k_run(k_min, ks[-1]))
    assert [k for k, *_ in run] == list(ks)
    assert [(lo_f, hi_f) for _, lo_f, hi_f, _ in run] == [k2_over_ln_k_floors(k) for k in ks]
    with mpmath.workdps(200):
        for k, _, _, (lo, hi, wp) in run:
            assert lo <= mpmath.ldexp(mpmath.log(k), wp) <= hi, k


def test_atanh_step_encloses_atanh_of_the_reciprocal():
    # at wp = 4: 16/3 floors to 5 and 16/(3 * 27) to 0, so lo = 5 and
    # hi = 5 + 1 (the term summed) + 1 (the zero term) + 1 (the tail)
    assert checks._atanh_recip_fx(3, 4) == (5, 8)
    with mpmath.workdps(200):
        for q in [*range(3, 2002, 2), 2 * 65455 - 1, 2 * 10**7 - 1]:
            for wp in (64, 150):
                lo, hi = checks._atanh_recip_fx(q, wp)
                assert lo <= mpmath.ldexp(mpmath.atanh(mpmath.mpf(1) / q), wp) <= hi, (q, wp)


def test_run_reseeds_where_a_step_parts_the_floors(monkeypatch):
    # no k <= 70,000 reaches the reseed; a step whose hi gains a whole unit
    # parts the floors at every k, and each reseed restores that k's own pair
    step, ln_fx = checks._atanh_recip_fx, checks._ln_fx
    seeds = []

    def slack_step(q, wp):
        lo, hi = step(q, wp)
        return lo, hi + (1 << wp)

    monkeypatch.setattr(checks, "_atanh_recip_fx", slack_step)
    monkeypatch.setattr(checks, "_ln_fx", lambda *args: seeds.append(args) or ln_fx(*args))
    floors = _run_floors(2, 400)
    assert len(seeds) == 399
    assert floors == [k2_over_ln_k_floors(k) for k in range(2, 401)]


def test_search_takes_no_logarithm_per_k(monkeypatch):
    from harmlat import enclosure

    ln_fx, calls = enclosure._ln_fx, []

    def counting(*args):
        calls.append(args)
        return ln_fx(*args)

    monkeypatch.setattr(enclosure, "_ln_fx", counting)
    monkeypatch.setattr(checks, "_ln_fx", counting)
    res = counterexample_search(2, F(1, 10), 800)
    assert not res.found and res.candidates_checked == 3196
    # the run's seed, the n0 check's floors at k_max and ln C^2; the per-k
    # floors took one 96-bit logarithm at each of the 799 k
    assert len(calls) == 3
