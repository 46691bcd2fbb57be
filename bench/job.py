"""One cold job: a fresh interpreter runs one workload once and checks it.

    python3 bench/job.py --root . --workload scan --seed 1 [--trace FILE] [--setup-only]

Set-up is interpreter start, ``import harmlat`` and building the
workload's inputs; it ends at ``ready`` (``time.monotonic``, which all
processes share), right before the timed job.  The cold-state guard runs
before the job, the correctness gate after it.  ``pace`` probes the
host's speed from the first line of ``main`` to the end of the job, and
the record carries the raw times with the factors (``*_scale``) that put
them at the reference speed.  The last line of standard output is one
JSON object describing the job.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import pace

# Module-level caches that a warm process would carry from job to job.
COLD_STATE = [("growth", "_walk_rows"), ("balls", "_orbit_tables"), ("enclosure", "_ln2_cache")]


class ColdStateError(RuntimeError):
    """The job would start with warm caches or a changed cell cap."""


def assert_cold() -> None:
    if "HARM_MAX_CELLS" in os.environ:
        raise ColdStateError("HARM_MAX_CELLS is set; the benchmark runs under the default cap")
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "harmlat":
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_info") and value.cache_info().currsize:
                size = value.cache_info().currsize
                raise ColdStateError(f"{name}.{attr} cache holds {size} entries")
    for module, attr in COLD_STATE:
        state = getattr(sys.modules.get("harmlat." + module), attr, None)
        if state:
            raise ColdStateError(f"harmlat.{module}.{attr} is not empty")


def import_harmlat(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import harmlat
    import harmlat.cli  # noqa: F401  (the CLI module is traced too)

    if Path(harmlat.__file__).resolve().parent != src / "harmlat":
        raise ImportError(f"harmlat was imported from {harmlat.__file__}, not from {src}")
    return harmlat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", help="trace the job and write its spans to this JSONL file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = {"ok": False, "error": None}
    pace.start()
    started = time.perf_counter()
    try:
        harmlat = import_harmlat(Path(args.root))
        import numpy
        import workloads

        out["versions"] = {"harmlat": harmlat.__version__, "numpy": numpy.__version__}
        build, run, gate, stats = workloads.WORKLOADS[args.workload]
        inputs = build(args.seed)
        assert_cold()
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        out["ready"] = time.monotonic()
        t0 = time.perf_counter()
        out["setup_scale"], out["setup_probes"] = pace.scale(started, t0)
        if args.setup_only:
            out["ok"] = True
        else:
            outcome = run(inputs)
            t1 = time.perf_counter()
            pace.stop()
            out["wall_s"] = t1 - t0
            out["wall_scale"], out["wall_probes"] = pace.scale(t0, t1)
            # ru_maxrss is in KiB on Linux; read before the gate allocates anything
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.remove()
                out["layers"] = tracer.metrics(out["wall_s"])
                tracer.write_jsonl(args.trace)
            out["verdicts"], out["undecided"], window = stats(outcome)
            v0, v1 = (t0, t1) if window is None else window
            out["verdict_s"] = v1 - v0
            out["verdict_scale"], _ = pace.scale(v0, v1)
            gate(outcome)
            out["ok"] = True
    except Exception as exc:  # the job boundary: report the failure, do not crash the run
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["traceback"] = traceback.format_exc()
    finally:
        pace.stop()
    print(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
