"""The harmlat benchmark: cold jobs on fixed workloads, timed end to end.

    python3 bench/run.py --workload scan|corpus|search --seed N --seconds S --trace 0|1

Each job runs in a fresh interpreter (``job.py``), one at a time, so
module caches start cold as they do for every ``harm`` invocation.  A
run repeats jobs for about ``--seconds`` seconds.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates traced
and untraced jobs and prints the per-layer metrics (``tracer.py``),
including the tracing overhead.  Every job's outputs pass a correctness
gate.  The last line of standard output is the JSON result; the lines
before it summarise every sample and record the environment, which also
goes with the samples to ``bench/out/<workload>-seed<N>-trace<T>.json``.

All times are at the reference host speed.  On a shared host a core's
speed drifts by half again over seconds to minutes, longer than a run,
so each job probes the host's speed while it runs (``pace.py``) and its
raw times are multiplied by the speed it saw relative to the reference.
A change to the code moves the scaled times as it moves the raw ones;
drift of the host moves neither.  The metrics are medians over the jobs
of a run; the summary lines print the raw medians beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

HARD_LIMIT_S = 170  # the whole run, including a job that ends past --seconds
MIN_SETUPS = 5  # set-up samples per run; set-up-only probes top up what the jobs gave

# (name, unit, better): the metrics BENCHMARK.json lists as end to end
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("verdicts_per_s", "1/s", "higher"),
]


def run_job(workload, seed, deadline, trace=False, setup_only=False):
    """Run one job process; return its JSON record with ``setup_s`` added."""
    cmd = [sys.executable, str(BENCH / "job.py"), "--root", str(ROOT), "--workload", workload]
    cmd += ["--seed", str(seed)]
    if trace:
        cmd += ["--trace", str(OUT / f"trace-{workload}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    record = {"ok": False, "traced": trace, "setup_only": setup_only}
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        timeout = max(1.0, deadline - spawned)
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        return dict(record, error="timed out")
    try:
        record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    except (IndexError, json.JSONDecodeError):
        record["error"] = f"no result (exit {proc.returncode}): {proc.stderr[-2000:]}"
    record["ok"] = record["ok"] and proc.returncode == 0
    record["elapsed_s"] = time.monotonic() - spawned
    if "ready" in record:
        record["setup_s"] = record["ready"] - spawned
    return record


def measure(workload, seed, seconds, trace):
    """Run jobs for about ``seconds``; return every job record."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    # writes the bytecode caches, so no measured set-up pays for compiling
    jobs = [dict(run_job(workload, seed, deadline, setup_only=True), warmup=True)]
    timed = []
    while True:
        timed.append(run_job(workload, seed, deadline, trace=trace and len(timed) % 2 == 0))
        if timed[-1].get("error") == "timed out":
            break
        longest = max(j["elapsed_s"] for j in timed)
        now = time.monotonic()
        # at least two jobs, so a traced run has a traced and an untraced one
        if (len(timed) >= 2 and now - start + longest > seconds) or now + longest > deadline:
            break
    jobs += timed
    for _ in range(MIN_SETUPS - sum(1 for j in timed if "setup_s" in j)):
        if time.monotonic() + 10 > deadline:
            break
        jobs.append(run_job(workload, seed, deadline, setup_only=True))
    return jobs


def samples(jobs, scaled=True):
    """Every end-to-end sample of the run, by metric; raw times if not ``scaled``."""
    good = [j for j in jobs if j["ok"]]
    runs = [j for j in good if not j["setup_only"] and not j["traced"]]

    def at(j, name):
        return j[name + "_s"] * (j[name + "_scale"] if scaled else 1.0)

    return {
        "wall_s": [at(j, "wall") for j in runs],
        "setup_s": [at(j, "setup") for j in good if not j.get("warmup")],
        "peak_rss_mb": [j["peak_rss_mb"] for j in runs],
        "verdicts_per_s": [j["verdicts"] / at(j, "verdict") for j in runs],
    }


def end_to_end(jobs):
    s = samples(jobs)
    if not s["wall_s"] or not s["setup_s"]:
        return None
    return {name: statistics.median(values) for name, values in s.items()}


def per_layer(jobs):
    """Layers of the traced job fastest at the reference speed, its times scaled too."""
    good = [j for j in jobs if j["ok"] and not j["setup_only"]]
    traced = [j for j in good if j["traced"]]
    untraced = [j for j in good if not j["traced"]]
    if not traced or not untraced:
        return None
    fastest = min(traced, key=lambda j: j["wall_s"] * j["wall_scale"])
    scale = fastest["wall_scale"]
    out = {name: value * scale if name.endswith("_s") else value
           for name, value in fastest["layers"].items()}
    untraced_s = statistics.median(j["wall_s"] * j["wall_scale"] for j in untraced)
    out["trace.overhead_s"] = fastest["wall_s"] * scale - untraced_s
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(jobs, args) -> dict:
    commit = None  # a checkout without .git is identified by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            git = ["git", "rev-parse", "HEAD"]
            head = subprocess.run(git, cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = head.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    versions = next((j["versions"] for j in jobs if "versions" in j), {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "harmlat": versions.get("harmlat"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": source_digest(),
    }


def summary_lines(workload, jobs, trace):
    timed = [j for j in jobs if not j["setup_only"]]
    lines = [f"workload {workload}: {len(timed)} jobs ({sum(j['traced'] for j in timed)} traced), "
             f"{len(jobs) - len(timed)} set-up-only probes"]
    lines += [f"  FAILED: {j.get('error')}" for j in jobs if not j["ok"]]
    if not trace:
        raw = samples(jobs, scaled=False)
        for name, values in samples(jobs).items():
            if values:
                median = statistics.median(values)
                lines.append(f"  {name:16s} n={len(values):<3d} median {median:<12.6g} "
                             f"min {min(values):<12.6g} max {max(values):<12.6g} "
                             f"raw median {statistics.median(raw[name]):.6g}")
    good = [j for j in timed if j["ok"]]
    verdicts = sum(j["verdicts"] for j in good)
    undecided = sum(j["undecided"] for j in good)
    failed = sum(1 for j in jobs if not j["ok"])
    lines.append(f"  undecided_share  {undecided / max(1, verdicts)} of {verdicts} verdicts")
    lines.append(f"  failed_share     {failed / len(jobs)} of {len(jobs)} operations")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "harmlat" / "__init__.py").is_file():
        print(f"error: no harmlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    jobs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(jobs)
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        metrics = end_to_end(jobs)
        units = {name: unit for name, unit, _ in END_TO_END}
    env = environment(jobs, args)
    for line in summary_lines(args.workload, jobs, args.trace):
        print(line)
    for name, value in (metrics or {}).items():
        print(f"  reported {name:36s} {value} {units[name]}")
    print(json.dumps({"env": env}))
    record = {"env": env, "metrics": metrics, "jobs": jobs}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    if metrics is None:
        print("error: too few jobs succeeded to report the metrics", file=sys.stderr)
        return 1
    failed = sum(1 for j in jobs if not j["ok"])
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
