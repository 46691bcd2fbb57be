"""Workload inputs, timed job bodies and correctness gates.

A workload has three parts, all run inside one fresh interpreter by
``job.py``:

- ``build(seed)`` makes the inputs (part of set-up, untimed);
- ``run(inputs)`` is the timed job; it only calls into ``harmlat`` and
  keeps the raw outputs;
- ``gate(outcome)`` checks the outputs through a route the timed job does
  not use, and raises :class:`GateError` on any mismatch (untimed).

``stats(outcome)`` counts the certified verdicts the job issued, how many
were undecided, and when the verdict phase began and ended, in
``time.perf_counter`` seconds (None: the whole job, as in ``scan`` and
``search``, whose verdicts cannot be timed apart from the rest without
tracing).

Library calls go through the ``harmlat`` module objects at call time
(``harmlat.evaluate_on_ball``, ``cli.main``), never through names bound
at import, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from fractions import Fraction

SCAN_ARGV = ["conjecture", "scan", "--family", "S", "--k", "12", "--C", "1", "--eps", "1/10"]
SCAN_K = 12
SCAN_WINDOW = range(45, 70)  # default window of k = 12: k^2/ln k +- k

SEARCH_NONE_ARGV = ["search", "counterexample", "--C", "2", "--eps", "1/10", "--k-max", "800"]
SEARCH_NONE_CANDIDATES = 3196
SEARCH_HIT_ARGV = [
    "search", "counterexample", "--C", "1", "--eps", "1/5", "--k-max", "30", "--n0", "100",
]
SEARCH_HIT_WITNESS = (17, 101)

CORPUS_RADIUS = 80
CORPUS_VERDICTS = 3744


class GateError(AssertionError):
    """An output of the timed job disagrees with the independent route."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def run_cli(argv):
    """Run ``harm <argv>`` in-process; return (exit code, stdout text)."""
    from harmlat import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


# -- scan: one large polynomial input -----------------------------------------------


def scan_coefficients(k: int):
    """a_j = L^j(S_k^2)(0) for j <= k, by iterated Laplacians on B_k.

    S_k is harmonic of degree k, so a_j = 0 for j > k and
    Q(n) = sum_{j<=k} a_j C(n, j) for every n.
    """
    import harmlat

    u = harmlat.evaluate_on_ball(harmlat.sk_polynomial(k), k)
    square = u.square()
    origin = (0, 0)
    return [harmlat.laplacian_power(square, j).value(origin) for j in range(k + 1)]


def _newton_value(coeffs, n: int) -> Fraction:
    return sum((a * math.comb(n, j) for j, a in enumerate(coeffs)), Fraction(0))


def _mpf(q: Fraction):
    import mpmath

    return mpmath.mpf(q.numerator) / q.denominator


def _mp_violation(q_n, q_2n, q_4n, n: int, C, eps):
    """Q(2n) - C sqrt(Q(n)Q(4n)) - 2^(-n^(1/2+eps)) Q(4n) in mpmath; None if too close to 0."""
    import mpmath

    with mpmath.workdps(80):
        bound = mpmath.power(2, -mpmath.power(n, _mpf(Fraction(1, 2) + eps)))
        slack = _mpf(q_2n) - _mpf(C) * mpmath.sqrt(_mpf(q_n) * _mpf(q_4n)) - bound * _mpf(q_4n)
        if abs(slack) <= mpmath.mpf(10) ** -60 * _mpf(q_4n):
            return None
        return slack


def check_scan(code, text, coeffs, window, C=Fraction(1), eps=Fraction(1, 10)) -> None:
    _require(code == 0, f"scan exit code {code}, expected 0 (no violation)")
    rows = json.loads(text)["rows"]
    _require(
        [int(r["n"]) for r in rows] == list(window),
        f"scan rows cover n = {[r['n'] for r in rows]}, expected {list(window)}",
    )
    for r in rows:
        n = int(r["n"])
        _require(r["violation"] != "?", f"scan row n={n} is undecided")
        qs = [Fraction(r[key]) for key in ("Q_n", "Q_2n", "Q_4n")]
        for m, q in zip((n, 2 * n, 4 * n), qs):
            _require(q == _newton_value(coeffs, m), f"scan Q({m}) differs from sum a_j C({m},j)")
        slack = _mp_violation(*qs, n, C, eps)
        if slack is not None:
            _require(
                (r["violation"] == "1") == (slack > 0),
                f"scan row n={n}: violation flag {r['violation']} but mpmath slack {slack}",
            )


def scan_build(seed: int):
    return {"argv": SCAN_ARGV}


def scan_run(inputs):
    code, text = run_cli(inputs["argv"])
    return {"code": code, "text": text}


def scan_gate(outcome) -> None:
    check_scan(outcome["code"], outcome["text"], scan_coefficients(SCAN_K), SCAN_WINDOW)


def scan_stats(outcome):
    rows = json.loads(outcome["text"]).get("rows", [])
    undecided = sum(1 for r in rows if r["violation"] == "?")
    return len(rows), undecided, None


# -- corpus: many small inputs sharing cached tables ----------------------------------


def corpus_random_seeds(seed: int):
    """The ten random members' seeds; workload seed 0 gives the tests' 101-105, 201-205."""
    return [1000 * seed + s for s in (101, 102, 103, 104, 105)], [
        1000 * seed + s for s in (201, 202, 203, 204, 205)
    ]


def corpus_build(seed: int):
    import harmlat

    polys = []
    for d in (2, 3):
        for k in range(1, d + 1):
            polys.append((f"u{k}_d{d}", harmlat.monomial_uk(d, k)))
    for k in range(0, 9):
        polys.append((f"S{k}", harmlat.sk_polynomial(k)))
    for k in range(1, 9):
        polys.append((f"T{k}", harmlat.tk_polynomial(k)))
    seeds2, seeds3 = corpus_random_seeds(seed)
    for s in seeds2:
        polys.append((f"rand_d2_{s}", harmlat.random_harmonic(2, 6, s)))
    for s in seeds3:
        polys.append((f"rand_d3_{s}", harmlat.random_harmonic(3, 6, s)))
    return {"polys": polys}


def _sweep(report):
    """The acceptance sweep of one member: (label, verdict, must meet hypotheses)."""
    import harmlat

    F = Fraction
    three_circles, general_P = harmlat.three_circles_check, harmlat.general_P_check
    out = []
    for eps in (F(0), F(1, 4), F(1, 2)):
        for n in range(1, 16):
            out.append(("three-circles", three_circles(report, n, eps, explore=True), False))
        for n in range(17, 21):
            out.append(("three-circles", three_circles(report, n, eps), True))
    for n in range(9, 21):
        out.append(("general-P 3/2", general_P(report, n, F(3, 2), F(1, 4)), True))
    for n in (4, 6, 8):
        out.append(("general-P 3", general_P(report, n, 3, F(1, 4), explore=True), False))
    for delta in (F(1, 8), F(1, 5)):
        for n in range(0, 16):
            out.append(("ratio-125", harmlat.ratio_125_check(report, n, delta), False))
    for n in range(1, 14):
        out.append(("aspect", harmlat.aspect_ratio_check(report, n, 3, 2, F(1, 4)), False))
    return out


def corpus_run(inputs):
    import harmlat

    reports = []
    for name, poly in inputs["polys"]:
        u = harmlat.evaluate_on_ball(poly, CORPUS_RADIUS)
        reports.append((name, poly, harmlat.growth_report(u)))
    t0 = time.perf_counter()
    verdicts = [(name, check) for name, _, rep in reports for check in _sweep(rep)]
    return {"reports": reports, "verdicts": verdicts, "verdict_window": (t0, time.perf_counter())}


def coordinate_product_growth(d: int, k: int, n: int) -> Fraction:
    """Closed form Q(n) = (k!/d^k) C(n, k) of u_k = x_1...x_k on Z^d."""
    return Fraction(math.factorial(k), d**k) * math.comb(n, k)


def check_corpus(reports, verdicts, expected=coordinate_product_growth, count=CORPUS_VERDICTS):
    products = 0
    for name, poly, rep in reports:
        if name.startswith("u"):
            k = int(name[1 : name.index("_")])
            products += 1
            for n in range(rep.n_max + 1):
                want = expected(poly.d, k, n)
                _require(rep.Q(n) == want, f"corpus {name}: Q({n}) = {rep.Q(n)}, closed form {want}")
    _require(products == 5, f"corpus has {products} coordinate products, expected 5")
    _require(len(verdicts) == count, f"corpus sweep issued {len(verdicts)} verdicts, not {count}")
    for name, (label, v, in_hypothesis) in verdicts:
        _require(v.holds, f"corpus {name}: {label} verdict is {v.status}")
        _require(not in_hypothesis or v.hypothesis_met, f"corpus {name}: {label} off hypotheses")


def corpus_gate(outcome) -> None:
    check_corpus(outcome["reports"], outcome["verdicts"])


def corpus_stats(outcome):
    verdicts = outcome["verdicts"]
    undecided = sum(1 for _, (_, v, _) in verdicts if v.status == "undecided")
    return len(verdicts), undecided, outcome["verdict_window"]


# -- search: verdict engine and binomials only ----------------------------------------


def check_search_none(code, text, candidates=SEARCH_NONE_CANDIDATES) -> None:
    res = json.loads(text)
    _require(code == 0, f"C=2 search exit code {code}, expected 0 (nothing found)")
    _require(not res["found"], f"C=2 search reports a witness {res.get('k')}, {res.get('n')}")
    _require(
        res["candidates_checked"] == candidates,
        f"C=2 search checked {res['candidates_checked']} candidates, expected {candidates}",
    )
    _require(not res.get("undecided"), f"C=2 search left undecided {res.get('undecided')}")


def check_search_hit(code, text, witness=SEARCH_HIT_WITNESS, C=Fraction(1), eps=Fraction(1, 5)):
    res = json.loads(text)
    _require(code == 1, f"C=1 search exit code {code}, expected 1 (witness found)")
    _require(res["found"], "C=1 search found no witness")
    k, n = res["k"], res["n"]
    _require((k, n) == tuple(witness), f"C=1 witness is {(k, n)}, expected {tuple(witness)}")
    _require(not res.get("undecided"), f"C=1 search left undecided {res.get('undecided')}")
    _require(
        res["ratio_estimate_certified"] and res["square_estimate_certified"],
        "C=1 witness estimates are not certified",
    )
    qs = [Fraction(math.comb(m, k)) for m in (n, 2 * n, 4 * n)]
    _require([Fraction(b) for b in res["binomials"]] == qs, "C=1 witness binomials are wrong")
    margin = Fraction(res["verdict"]["margin"])
    slack = _mp_violation(*qs, n, C, eps)
    _require(
        margin > 0 and slack is not None and slack >= _mpf(margin),
        f"C=1 certified margin {margin} is not a positive lower bound of the mpmath slack {slack}",
    )


def search_build(seed: int):
    return {"none": SEARCH_NONE_ARGV, "hit": SEARCH_HIT_ARGV}


def search_run(inputs):
    return {"none": run_cli(inputs["none"]), "hit": run_cli(inputs["hit"])}


def search_gate(outcome) -> None:
    check_search_none(*outcome["none"])
    check_search_hit(*outcome["hit"])


def search_stats(outcome):
    results = [json.loads(text) for _, text in (outcome["none"], outcome["hit"])]
    verdicts = sum(r["candidates_checked"] for r in results)
    undecided = sum(len(r.get("undecided", ())) for r in results)
    return verdicts, undecided, None


WORKLOADS = {
    "scan": (scan_build, scan_run, scan_gate, scan_stats),
    "corpus": (corpus_build, corpus_run, corpus_gate, corpus_stats),
    "search": (search_build, search_run, search_gate, search_stats),
}
