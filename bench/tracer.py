"""Spans and counters around ``harmlat``'s layers, taken from outside.

The tracer replaces each traced function, in every ``harmlat`` module
that holds a reference to it, with a wrapper that records a span (name,
parent, start, end) in memory and updates the layer's counters.  Spans
are written as JSONL only when the job ends.  A traced name that no
longer exists is skipped, so its layer reports 0 calls instead of
failing the run.  A call into a layer from inside the same layer records
no new span.

A layer's self time is the total duration of its spans minus the
durations of their direct child spans; root self time is the job's wall
time minus its top-level spans.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict


def _module(name):
    return sys.modules.get("harmlat." + name)


def _state(module, attr, default):
    mod = _module(module)
    return getattr(mod, attr, default) if mod is not None else default


# -- counters taken at layer boundaries ----------------------------------------------


def _cache_info(fn, args):
    return fn.cache_info() if hasattr(fn, "cache_info") else None


def _ball_points(counts, fn, args, result, info):
    # cells enumerated: only calls that missed the cache did the work
    if info is None or info.misses != fn.cache_info().misses:
        counts["balls.ball_points.cells"] += len(result)


def _evaluate_on_ball(counts, fn, args, result, state):
    counts["polynomials.evaluate_on_ball.cells"] += len(result.scaled_values()[0])


def _walk_rows_cached(fn, args):
    return len(_state("growth", "_walk_rows", {}).get(args[0], []))


def _walk_rows(counts, fn, args, rows, cached):
    built = len(rows) - cached
    counts["growth.walk_rows.rows_built"] += built
    counts["growth.walk_rows.rows_reused"] += args[1] + 1 - built
    counts["growth.walk_rows.entries"] += sum(len(row) for row in rows[cached:])


def _cascade(counts, fn, args, result, state):
    u = args[0]
    table = _state("balls", "_orbit_tables", {}).get(u.d)
    if table is not None:
        steps = range(1, u.R + 1)
        counts["growth.cascade.entries"] += sum(table.count_up_to(u.R - k) for k in steps)


def _verdicts(counts, fn, args, result, state):
    if hasattr(result, "status"):
        verdicts = [result]
    else:  # binomial_inequality_check returns two verdicts
        verdicts = [result.plain, result.max_form]
    for v in verdicts:
        counts["checks.verdicts"] += 1
        counts["checks.undecided"] += v.status == "undecided"
        bits = v.precision_bits
        # precision ladder 64, 128, ..., cap: the rung that decided
        counts["checks.rungs"] += (1 + max(0, math.ceil(math.log2(bits / 64)))) if bits else 0


# (layer, module, function names, state before the call, counters after it)
LAYERS = [
    ("balls.ball_points", "balls", ["ball_points"], _cache_info, _ball_points),
    ("balls.point_orbit_indices", "balls", ["point_orbit_indices"], None, None),
    ("balls.orbit_table", "balls", ["orbit_table"], None, None),
    ("polynomials.evaluate_on_ball", "polynomials", ["evaluate_on_ball"], None, _evaluate_on_ball),
    ("growth.walk_rows", "growth", ["_orbit_walk_rows"], _walk_rows_cached, _walk_rows),
    ("growth.cascade", "growth", ["_newton_via_laplacian"], None, _cascade),
    ("growth.triangle", "growth", ["_difference_triangle"], None, None),
    ("growth.growth_report", "growth", ["growth_report"], None, None),
    (
        "checks.verdict",
        "checks",
        [
            "three_circles_check",
            "general_P_check",
            "no_error_check",
            "ratio_125_check",
            "aspect_ratio_check",
            "binomial_inequality_check",
            "continuous_three_circles_check",
            "convexity_defect_check",
        ],
        None,
        _verdicts,
    ),
    ("checks.search", "checks", ["counterexample_search"], None, None),
    (
        "enclosure",
        "enclosure",
        [
            "enclose_exp",
            "enclose_pow",
            "exp_enclosure",
            "ln_enclosure",
            "pow_enclosure",
            "rational_npow",
            "sqrt_enclosure",
        ],
        None,
        None,
    ),
    ("conjecture.scan_rows", "conjecture", ["_scan_row"], None, None),
    ("cli", "cli", ["main"], None, None),
]

# Per-layer metrics: (name, unit, better, which end-to-end metric it should
# move, on which workload).  bench/README.md has the same map as a table.
BALLS = "wall_s on scan and corpus (Z^3); peak_rss_mb everywhere"
REUSE = "corpus wall_s and peak_rss_mb"
CASCADE = "wall_s on scan and corpus"
VERDICTS = "search wall_s; verdicts_per_s on search and corpus; undecided_share"
PER_LAYER = [
    ("balls.orbit_table.self_s", "s", "lower", BALLS),
    ("balls.orbit_table.reps", "count", "lower", BALLS),
    ("balls.point_orbit_indices.self_s", "s", "lower", BALLS),
    ("balls.ball_points.self_s", "s", "lower", BALLS),
    ("balls.ball_points.cells", "count", "lower", BALLS),
    ("balls.cache_hits", "count", "higher", REUSE),
    ("balls.cache_misses", "count", "lower", REUSE),
    ("growth.walk_rows.rows_built", "count", "lower", REUSE),
    ("growth.walk_rows.rows_reused", "count", "higher", REUSE),
    ("polynomials.evaluate_on_ball.self_s", "s", "lower", "corpus wall_s"),
    ("polynomials.evaluate_on_ball.cells", "count", "lower", "corpus wall_s"),
    ("growth.walk_rows.self_s", "s", "lower", "scan wall_s"),
    ("growth.walk_rows.entries", "count", "lower", "scan wall_s"),
    ("growth.cascade.self_s", "s", "lower", CASCADE),
    ("growth.cascade.entries", "count", "lower", CASCADE),
    ("growth.triangle.self_s", "s", "lower", CASCADE),
    ("growth.growth_report.self_s", "s", "lower", CASCADE),
    ("checks.verdict.self_s", "s", "lower", VERDICTS),
    ("checks.verdicts", "count", "higher", VERDICTS),
    ("checks.rungs_per_verdict", "rungs/verdict", "lower", VERDICTS),
    ("checks.undecided", "count", "lower", VERDICTS),
    ("checks.search.self_s", "s", "lower", "search wall_s"),
    ("enclosure.self_s", "s", "lower", VERDICTS),
    ("enclosure.calls", "count", "lower", VERDICTS),
    ("conjecture.scan_rows.self_s", "s", "lower", "not scan wall_s today"),
    ("cli.self_s", "s", "lower", "not scan wall_s today"),
    ("root.self_s", "s", "lower", "nothing; stays under a tenth of wall_s"),
    ("trace.overhead_s", "s", "lower", "nothing; traced minus untraced wall_s"),
]


class Tracer:
    """Wraps the functions in :data:`LAYERS`; spans stay in memory until written."""

    def __init__(self):
        self.spans = []  # [id, parent id, name, start, end]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []
        self._caches = []

    def _wrap(self, layer, fn, before, after):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][2] == layer:
                return fn(*args, **kwargs)
            state = before(fn, args) if before else None
            span = [len(spans), stack[-1][0] if stack else None, layer, clock(), None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            counts[layer + ".calls"] += 1
            if after:
                after(counts, fn, args, result, state)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded ``harmlat`` module."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "harmlat"]
        balls = _module("balls")
        self._caches = [f for f in vars(balls).values() if hasattr(f, "cache_info")] if balls else []
        for layer, module, names, before, after in LAYERS:
            mod = _module(module)
            for name in names:
                fn = getattr(mod, name, None) if mod is not None else None
                if fn is None:
                    continue
                traced = self._wrap(layer, fn, before, after)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, traced)
                            self._patches.append((m, attr, fn))

    def remove(self) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the job; ``wall_s`` is its traced wall time."""
        self_s = defaultdict(float)
        names = {}
        top = 0.0
        for sid, parent, name, start, end in self.spans:
            names[sid] = name
            self_s[name] += end - start
            if parent is None:
                top += end - start
            else:
                self_s[names[parent]] -= end - start
        counts = self.counts
        out = {f"{layer}.self_s": self_s[layer] for layer, *_ in LAYERS}
        for key in (
            "balls.ball_points.cells",
            "polynomials.evaluate_on_ball.cells",
            "growth.walk_rows.rows_built",
            "growth.walk_rows.rows_reused",
            "growth.walk_rows.entries",
            "growth.cascade.entries",
            "checks.verdicts",
            "checks.undecided",
        ):
            out[key] = counts[key]
        out["checks.rungs_per_verdict"] = counts["checks.rungs"] / max(1, counts["checks.verdicts"])
        out["enclosure.calls"] = counts["enclosure.calls"]
        tables = _state("balls", "_orbit_tables", {}).values()
        out["balls.orbit_table.reps"] = sum(len(t.reps) for t in tables)
        out["balls.cache_hits"] = sum(f.cache_info().hits for f in self._caches)
        out["balls.cache_misses"] = sum(f.cache_info().misses for f in self._caches)
        out["root.self_s"] = wall_s - top
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                span = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts)}) + "\n")
