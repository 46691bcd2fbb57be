"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The corpus fixture (conftest) provides 32 exact harmonic polynomials
with growth reports on B_80, so every inner radius up to 20 can be
checked at outer radius 4n within the tables.
"""

import math
import time
from fractions import Fraction as F

import pytest

from harmlat import (
    HypothesisNotMetError,
    MultivariatePolynomial,
    VanishingHypothesisError,
    aspect_ratio_check,
    check_absolute_monotonicity,
    conjecture_scan,
    continuous_three_circles_check,
    convexity_defect_check,
    counterexample_search,
    degree_bound,
    evaluate_on_ball,
    fk_polynomial,
    general_P_check,
    growth_polynomial,
    growth_report,
    is_harmonic,
    laplacian_power,
    monomial_uk,
    no_error_check,
    ratio_125_check,
    sk_polynomial,
    sos_laplacian_power,
    discrete_laplacian,
    three_circles_check,
    tk_polynomial,
    vanishing_ball_test,
)
from harmlat.conjecture import SCAN_CSV_HEADER
from harmlat.growth import _newton_via_laplacian
from harmlat.polynomials import is_harmonic_poly

from conftest import _full_triangle
from montecarlo import monte_carlo_Q


def _gate(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def test_c01_exact_growth_law():
    # Q of the coordinate product x_1..x_k equals (k!/d^k) binom(n, k) exactly
    t0 = time.time()
    for d in (2, 3):
        for k in range(1, d + 1):
            rep = growth_report(evaluate_on_ball(monomial_uk(d, k), 30))
            c = F(math.factorial(k), d**k)
            for n in range(0, 31):
                assert rep.Q(n) == c * math.comb(n, k), (d, k, n)
    _gate("1 exact-growth-law", True, f"{time.time() - t0:.1f}s")


def test_c02_newton_series_identity(corpus, corpus_build_seconds):
    t0 = time.time()
    assert len(corpus) >= 20
    for m in corpus:
        rep = m.report  # Q(0..80) of the walk route
        assert len(rep.newton) <= max(m.degree, 0) + 1, m.name
        # coefficients computed independently through iterated Laplacians, on B_12 (deg <= 8)
        a = _newton_via_laplacian(evaluate_on_ball(m.poly, 12))
        assert all(a[k] == 0 for k in range(max(m.degree, 0) + 1, len(a))), m.name
        for n in range(0, 61):
            assert rep.Q(n) == sum(a[k] * math.comb(n, k) for k in range(min(n, 12) + 1)), (m.name, n)
    elapsed = time.time() - t0 + corpus_build_seconds
    _gate(
        "2 newton-series-identity",
        elapsed < 120,
        f"{len(corpus)} members incl. table build, {elapsed:.1f}s",
    )


def test_c03_dual_coefficients(corpus):
    for m in corpus:
        u6 = evaluate_on_ball(m.poly, 6)
        origin = tuple([0] * m.poly.d)
        square = u6.square()
        for k in range(0, 7):
            triangle_value = (m.report.newton + (0,) * 7)[k]
            assert triangle_value == laplacian_power(square, k).value(origin), (m.name, k)
            assert triangle_value == sos_laplacian_power(u6, k), (m.name, k)
    _gate("3 dual-coefficients", True, "k <= 6 on the corpus")


def test_c04_absolute_monotonicity(corpus):
    violations = 0
    for m in corpus:
        res = check_absolute_monotonicity(m.report)
        if not res.holds:
            violations += 1
        # the reference takes every Delta^k Q(n) with k + n <= 60 directly
        for k, row in enumerate(_full_triangle([m.report.Q(n) for n in range(61)])):
            for n, v in enumerate(row):
                assert v >= 0, (m.name, k, n)
    _gate("4 absolute-monotonicity", violations == 0, "zero violations on k+n <= 60")


def test_c05_three_circles_with_error(corpus):
    t0 = time.time()
    eps_set = (F(0), F(1, 4), F(1, 2))
    undecided = 0
    for m in corpus:
        rep = m.report
        for eps in eps_set:
            for n in range(1, 16):
                v = three_circles_check(rep, n, eps, explore=True)
                assert v.holds, (m.name, n, eps)
                undecided += v.status == "undecided"
            for n in range(17, 21):  # all of 16 < n <= R/4 at R = 80
                v = three_circles_check(rep, n, eps)
                assert v.holds and v.hypothesis_met, (m.name, n, eps)
                undecided += v.status == "undecided"
        # general ratio P = 3/2 inside its guarantee (n >= 4P^2 = 9, ceil(P^2 n) <= 80)
        for n in range(9, 21):
            v = general_P_check(rep, n, F(3, 2), F(1, 4))
            assert v.holds and v.hypothesis_met, (m.name, n)
        # P = 3 cannot fit its guarantee window in an 80-long table; empirical checks
        for n in (4, 6, 8):
            v = general_P_check(rep, n, 3, F(1, 4), explore=True)
            assert v.holds, (m.name, n)
        # perturbed outer radius, guaranteed at every n
        for delta in (F(1, 8), F(1, 5)):
            for n in range(0, 16):
                v = ratio_125_check(rep, n, delta)
                assert v.holds, (m.name, n, delta)
        # aspect ratio (p, P) = (3, 2) with derived alpha
        for n in range(1, 14):
            v = aspect_ratio_check(rep, n, 3, 2, F(1, 4))
            assert v.holds, (m.name, n)
    # P = 3 within its guarantee needs a longer table; one cheap member suffices
    long_rep = growth_polynomial(sk_polynomial(2))  # Q at every n
    for n in (36, 37):
        v = general_P_check(long_rep, n, 3, F(1, 4))
        assert v.holds and v.hypothesis_met, n
    _gate(
        "5 three-circles-with-error",
        undecided == 0,
        f"no undecided at 256 bits; {time.time() - t0:.1f}s",
    )


def test_c06_error_omitted(corpus):
    by_degree = {}
    for m in corpus:
        by_degree.setdefault(m.degree, m)
    checked = 0
    classified = 0
    for M in (1, 2, 3):
        m = by_degree[M]
        for eps in (F(0), F(1, 4), F(2, 5)):
            a, b = eps.numerator, eps.denominator
            for n in range(10, 21):
                # independent integer oracle for the guard n^(1-2eps) > M^2
                guard = n > 16 and n ** (b - 2 * a) > (M * M) ** b
                if guard:
                    v = no_error_check(m.report, M, n, eps)
                    assert v.holds, (m.name, n, eps)
                    checked += 1
                else:
                    with pytest.raises(HypothesisNotMetError):
                        no_error_check(m.report, M, n, eps)
                    classified += 1
    _gate(
        "6 error-omitted",
        checked > 0 and classified > 0,
        f"{checked} in-hypothesis hold, {classified} correctly classified",
    )


def test_c07_continuous_three_circles(corpus):
    for m in corpus:
        qc = growth_polynomial(m.poly)
        for t in (F(1, 2), F(1), F(3), F(10)):
            v = continuous_three_circles_check(qc, t)
            assert v.holds, (m.name, t)
    _gate("7 continuous-three-circles", True, "t in {1/2, 1, 3, 10}")


def test_c08_optimality_witness():
    t0 = time.time()
    res = counterexample_search(F(2), F(1, 10), k_max=60)
    if res.found:
        # independent re-verification by direct big-integer evaluation,
        # with the conservative error bound 2^(-floor(n^(3/5)))
        k, n = res.k, res.n
        b_n, b_2n, b_4n = (math.comb(m, k) for m in (n, 2 * n, 4 * n))
        root = 1
        while (root + 1) ** 5 <= n**3:
            root += 1
        lhs_scaled = b_2n * 2**root - b_4n
        ok = lhs_scaled > 0 and lhs_scaled * lhs_scaled > 4 * b_n * b_4n * 2 ** (2 * root)
        _gate("8 optimality-witness", ok, f"(k={k}, n={n}), {time.time() - t0:.1f}s")
    else:
        _gate(
            "8 optimality-witness",
            False,
            "no violation exists for C=2, eps=1/10 with k <= 60: exhaustive exact "
            "scan over all n shows the window where binom(2n,k)^2 > 4 binom(n,k) "
            "binom(4n,k) (n below ~k^2/11) is disjoint from the window where "
            "2^(-n^(3/5)) binom(4n,k) < binom(2n,k) (n above ~(k+2)^(5/3)) for all "
            "k <= 60; the first C=2 witness near k^2/ln k is at k = 65,455",
        )


def test_c09_correspondence_harmonicity(corpus):
    # basis recursions as exact polynomial identities
    for k in range(2, 13):
        assert discrete_laplacian(fk_polynomial(k)) == fk_polynomial(k - 2).scale(F(1, 2))
    for k in range(1, 13):
        fk = fk_polynomial(k)
        assert fk.shift(0, 1) - fk == fk_polynomial(k - 1).shift(0, F(1, 2))
    # every corpus member is lattice-harmonic, formally and on a ball
    for m in corpus:
        assert is_harmonic_poly(m.poly), m.name
        assert is_harmonic(evaluate_on_ball(m.poly, max(m.degree, 0) + 4)), m.name
    # discretized powers of (x + iy)
    X = MultivariatePolynomial.variable(2, 0)
    Y = MultivariatePolynomial.variable(2, 1)
    re = MultivariatePolynomial.constant(2, 1)
    im = MultivariatePolynomial.zero(2)
    from harmlat import correspondence

    for k in range(1, 11):
        re, im = re * X - im * Y, re * Y + im * X
        assert correspondence(re) == sk_polynomial(k).scale(math.factorial(k))
        assert correspondence(im) == tk_polynomial(k).scale(math.factorial(k))
    _gate("9 correspondence-harmonicity", True, "k <= 12 identities, k <= 10 powers")


def test_c10_monte_carlo_consistency(corpus):
    t0 = time.time()
    by_name = {m.name: m for m in corpus}
    picks = ["u2_d2", "S3", "T2", "u3_d3", "rand_d2_101"]
    worst = 0.0
    for name in picks:
        m = by_name[name]
        u = evaluate_on_ball(m.poly, 20)
        for n in (10, 20):
            est = monte_carlo_Q(u, n, 10**6, seed=20240)
            exact = m.report.Q(n)
            if est.stderr == 0:
                assert est.mean == exact
                continue
            dev = abs(float(est.mean - exact)) / est.stderr
            worst = max(worst, dev)
            assert dev <= 5, (name, n, dev)
    elapsed = time.time() - t0
    _gate(
        "10 monte-carlo-consistency",
        elapsed < 60,
        f"worst deviation {worst:.2f} sigma, {elapsed:.1f}s",
    )


def test_c11_conjecture_scan():
    result = conjecture_scan(6, 1, F(1, 10), 17, 50)
    csv = result.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 35
    for line in lines[1:]:
        assert len(line.split(",")) == 11
    for row in result.rows:
        verdict = convexity_defect_check(row.q_n, row.q_2n, row.q_4n, row.n, 1, F(1, 10))
        assert (verdict.status == "holds") == bool(row.violation), row.n
    _gate(
        "11 conjecture-scan",
        True,
        f"{result.summary['rows']} rows, {result.summary['violations']} violations "
        "(consistency criterion only)",
    )


def test_c12_liouville_machinery(corpus):
    known = [m for m in corpus if m.name[0] in "STu"][:20]
    tested = 0
    for m in known:
        if tested >= 10:
            break
        if m.degree >= 0:
            assert degree_bound(m.poly) == m.degree + 1, m.name
            tested += 1
    assert tested == 10
    assert vanishing_ball_test(MultivariatePolynomial.zero(2), M=2) == 2
    s3 = sk_polynomial(3)
    with pytest.raises(VanishingHypothesisError) as info:
        vanishing_ball_test(s3, M=3)
    assert s3.evaluate(info.value.witness) != 0
    _gate("12 liouville-machinery", True, "degree bounds and vanishing rigidity")
