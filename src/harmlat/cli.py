"""Command line interface: one binary, verb-noun subcommands, exact I/O.

All numeric parameters are parsed as exact rationals ("3/4", "0.25",
"7").  `--family random` is fully determined by --seed, which only the
commands offering the random family accept.  Exit codes: 0
holds/confirmed, 1 fails/violation-found (the expected success of
`search`), 2 undecided, 3 usage (parser errors included), hypothesis or
resource-cap errors, 4 internal failure (any other exception, e.g. out
of memory).  `--help` and `--version` exit 0.  Exact integers print in
full, however long: a command lifts the interpreter's limit on
int-to-str digits while it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from . import SCHEMA_VERSION, __version__
from .checks import (
    DEFAULT_PRECISION,
    FAILS,
    HOLDS,
    UNDECIDED,
    Verdict,
    aspect_ratio_check,
    binomial_inequality_check,
    continuous_three_circles_check,
    counterexample_search,
    general_P_check,
    no_error_check,
    ratio_125_check,
    three_circles_check,
)
from .conjecture import conjecture_scan
from .errors import HarmError, HarmonicityError, UsageError
from .growth import GrowthReport, growth_polynomial, growth_report
from .lattice import LatticeFunction
from .polynomials import MultivariatePolynomial, discrete_laplacian, family_polynomial
from .rationals import format_rational, parse_rational

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {HOLDS: EXIT_HOLDS, FAILS: EXIT_FAILS, UNDECIDED: EXIT_UNDECIDED}


@dataclass
class CommandConfig:
    """Resolved invocation: precision and output routing."""

    precision: int = DEFAULT_PRECISION
    fmt: str = "json"
    out: Optional[str] = None


def _emit(config: CommandConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(config: CommandConfig, obj: dict) -> None:
    obj = {"schema": SCHEMA_VERSION, **obj}
    _emit(config, json.dumps(obj, indent=2))


def _verdict_csv(v: Verdict) -> str:
    head = "status,lhs,main_lo,main_hi,error_lo,error_hi,margin,hypothesis_met"
    row = ",".join(
        [
            v.status,
            format_rational(v.lhs),
            format_rational(v.main.lo),
            format_rational(v.main.hi),
            format_rational(v.error_term.lo),
            format_rational(v.error_term.hi),
            format_rational(v.margin),
            "" if v.hypothesis_met is None else str(int(v.hypothesis_met)),
        ]
    )
    return head + "\n" + row + "\n"


def _emit_verdict(config: CommandConfig, v: Verdict, extra: Optional[dict] = None) -> int:
    if config.fmt == "csv":
        _emit(config, _verdict_csv(v))
    else:
        obj = {"kind": "verdict", **v.to_json()}
        if extra:
            obj.update(extra)
        _emit_json(config, obj)
    return _STATUS_EXIT[v.status]


# -- input loading ---------------------------------------------------------------


def _load_polynomial(args) -> MultivariatePolynomial:
    if getattr(args, "poly", None):
        raw = args.poly
        try:
            if raw.strip().startswith("{"):
                obj = json.loads(raw)
            else:
                with open(raw) as fh:
                    obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read polynomial: {exc}") from exc
        return MultivariatePolynomial.from_json(obj)
    if getattr(args, "family", None):
        if args.k is None:
            raise UsageError("--family needs --k")
        return family_polynomial(args.family, args.k, args.d, args.seed)
    raise UsageError("no input: pass --poly, --family or --function")


def _load_function(args, needed_radius: int) -> LatticeFunction:
    try:
        with open(args.function) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read lattice function: {exc}") from exc
    u = LatticeFunction.from_json(obj, sparse=args.sparse)
    if u.R < needed_radius:
        raise UsageError(
            f"function lives on B_{u.R} but the command needs values up to B_{needed_radius}"
        )
    return u


def _report_for(args, needed_n: int) -> GrowthReport:
    if getattr(args, "function", None):
        return growth_report(_load_function(args, needed_n), needed_n)
    return growth_polynomial(_load_polynomial(args), needed_n).report(needed_n)


# -- subcommand handlers -----------------------------------------------------------


def _cmd_growth(args, config: CommandConfig) -> int:
    report = _report_for(args, args.n_max)
    if config.fmt == "csv":
        if args.newton:
            lines = ["k,a_k"]
            for k, a in enumerate(report.newton):
                lines.append(f"{k},{format_rational(a)}")
        else:
            K = min(args.diff_cols, report.n_max)
            header = "n,Q" + "".join(f",d{j}" for j in range(1, K + 1))
            lines = [header]
            for n in range(report.n_max + 1):
                cells = [str(n), format_rational(report.Q(n))]
                for j in range(1, K + 1):
                    row = report.triangle[j]
                    cells.append(format_rational(row[n]) if n < len(row) else "")
                lines.append(",".join(cells))
        _emit(config, "\n".join(lines) + "\n")
    else:
        _emit_json(config, report.to_json(include_newton=args.newton))
    return EXIT_HOLDS


def _cmd_check(args, config: CommandConfig) -> int:
    kind = args.check_kind
    eps = parse_rational(args.eps) if getattr(args, "eps", None) is not None else None
    if kind == "three-circles":
        report = _report_for(args, 4 * args.n)
        v = three_circles_check(report, args.n, eps, config.precision, explore=args.explore)
        return _emit_verdict(config, v)
    if kind == "general-p":
        P = parse_rational(args.P)
        outer = math.ceil(P * P * args.n)
        report = _report_for(args, outer)
        v = general_P_check(report, args.n, P, eps, config.precision, explore=args.explore)
        return _emit_verdict(config, v)
    if kind == "no-error":
        report = _report_for(args, 4 * args.n)
        v = no_error_check(report, args.degree, args.n, eps, config.precision)
        return _emit_verdict(config, v)
    if kind == "ratio-125":
        delta = parse_rational(args.delta)
        outer = math.ceil(4 * (1 + delta) * args.n)
        report = _report_for(args, outer)
        v = ratio_125_check(report, args.n, delta, config.precision)
        return _emit_verdict(config, v)
    if kind == "aspect":
        p = parse_rational(args.p)
        P = parse_rational(args.P)
        outer = math.ceil(p * P * args.n)
        report = _report_for(args, outer)
        alpha = parse_rational(args.alpha) if args.alpha is not None else None
        v = aspect_ratio_check(report, args.n, p, P, eps, alpha=alpha, precision=config.precision)
        return _emit_verdict(config, v)
    if kind == "continuous":
        P = _load_polynomial(args)
        if not discrete_laplacian(P).is_zero():
            raise HarmonicityError("continuous-time growth requires a lattice-harmonic polynomial")
        growth = growth_polynomial(P)
        v = continuous_three_circles_check(growth, parse_rational(args.t))
        return _emit_verdict(config, v, extra={"growth_polynomial": growth.continuous_json()})
    if kind == "binomial":
        P = parse_rational(args.P)
        result = binomial_inequality_check(args.n, args.k, P, eps, config.precision)
        if config.fmt == "csv":
            _emit(config, _verdict_csv(result.plain) + _verdict_csv(result.max_form))
        else:
            _emit_json(
                config,
                {
                    "kind": "binomial_check",
                    "plain": result.plain.to_json(),
                    "max_form": result.max_form.to_json(),
                },
            )
        return _STATUS_EXIT[result.plain.status]
    raise UsageError(f"unknown check {kind!r}")


def _cmd_search(args, config: CommandConfig) -> int:
    result = counterexample_search(
        parse_rational(args.C),
        parse_rational(args.eps),
        k_max=args.k_max,
        k_min=args.k_min,
        n0=args.n0,
        precision=config.precision,
    )
    _emit_json(config, {"kind": "counterexample_search", **result.to_json()})
    return EXIT_FAILS if result.found else EXIT_HOLDS


def _cmd_conjecture_scan(args, config: CommandConfig) -> int:
    if args.k is None:
        raise UsageError("conjecture scan needs --k (family index)")
    result = conjecture_scan(
        args.k,
        parse_rational(args.C),
        parse_rational(args.eps),
        args.n_from,
        args.n_to,
        precision=config.precision,
        family=args.family,
        d=args.d,
    )
    if config.fmt == "csv":
        _emit(config, result.to_csv())
    else:
        _emit_json(config, result.to_json())
    violations = result.summary.get("violations", 0)
    return EXIT_FAILS if violations else EXIT_HOLDS


# -- parser ------------------------------------------------------------------------


def _add_common_options(sp):
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    sp.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    sp.add_argument("--out", help="write output to this file instead of stdout")


def _add_io_options(sp, with_explore=False):
    sp.add_argument("--function", help="lattice function JSON file")
    sp.add_argument("--sparse", action="store_true", help="omitted table points default to 0")
    sp.add_argument("--poly", help="polynomial JSON (inline or a file path)")
    sp.add_argument("--family", choices=["S", "T", "u", "random"], help="named harmonic family")
    sp.add_argument("--k", type=int, help="family index / degree")
    sp.add_argument("--d", type=int, help="dimension for the u/random families")
    sp.add_argument("--seed", type=int, default=0, help="seed for the random family")
    _add_common_options(sp)
    if with_explore:
        sp.add_argument(
            "--explore",
            action="store_true",
            help="check outside the guarantee hypotheses (verdict marked accordingly)",
        )


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 3 (usage), not argparse's 2 (undecided)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="harm",
        description="Exact growth functions of discrete harmonic functions and "
        "certified log-convexity verdicts.",
    )
    ap.add_argument(
        "--version", action="version", version=f"harm {__version__} (schema {SCHEMA_VERSION})"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("growth", help="exact growth report of a function")
    _add_io_options(g)
    g.add_argument("--n-max", type=int, required=True)
    g.add_argument("--newton", action="store_true", help="emit the binomial coefficients a_k")
    g.add_argument("--diff-cols", type=int, default=6, help="difference columns in CSV output")
    g.set_defaults(handler=_cmd_growth)

    c = sub.add_parser("check", help="certified inequality verdicts")
    csub = c.add_subparsers(dest="check_kind", required=True)

    tc = csub.add_parser("three-circles", help="1:2:4 bound with error term")
    _add_io_options(tc, with_explore=True)
    tc.add_argument("--n", type=int, required=True)
    tc.add_argument("--eps", required=True)
    tc.set_defaults(handler=_cmd_check)

    gp = csub.add_parser("general-p", help="1:P:P^2 bound with error term")
    _add_io_options(gp, with_explore=True)
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--P", required=True)
    gp.add_argument("--eps", required=True)
    gp.set_defaults(handler=_cmd_check)

    ne = csub.add_parser("no-error", help="error-free bound for degree-bounded inputs")
    _add_io_options(ne)
    ne.add_argument("--n", type=int, required=True)
    ne.add_argument("--eps", required=True)
    ne.add_argument("--degree", type=int, required=True, help="degree bound M")
    ne.set_defaults(handler=_cmd_check)

    r125 = csub.add_parser("ratio-125", help="perturbed 1:2:4(1+delta) bound")
    _add_io_options(r125)
    r125.add_argument("--n", type=int, required=True)
    r125.add_argument("--delta", required=True)
    r125.set_defaults(handler=_cmd_check)

    asp = csub.add_parser("aspect", help="general aspect-ratio bound")
    _add_io_options(asp)
    asp.add_argument("--n", type=int, required=True)
    asp.add_argument("--p", required=True)
    asp.add_argument("--P", required=True)
    asp.add_argument("--eps", required=True)
    group = asp.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", help="user-supplied balancing exponent, in (0, 1)")
    group.add_argument(
        "--derive-alpha",
        action="store_true",
        help="solve P^alpha = p^(1-alpha) with certified logarithms",
    )
    asp.set_defaults(handler=_cmd_check)

    cont = csub.add_parser("continuous", help="exact continuous-time bound")
    _add_io_options(cont)
    cont.add_argument("--t", required=True)
    cont.set_defaults(handler=_cmd_check)

    bino = csub.add_parser("binomial", help="per-degree binomial inequality")
    _add_common_options(bino)
    bino.add_argument("--n", type=int, required=True)
    bino.add_argument("--k", type=int, required=True)
    bino.add_argument("--P", required=True)
    bino.add_argument("--eps", required=True)
    bino.set_defaults(handler=_cmd_check)

    s = sub.add_parser("search", help="searches")
    ssub = s.add_subparsers(dest="search_kind", required=True)
    ce = ssub.add_parser("counterexample", help="certified violation near n = k^2/ln k")
    _add_common_options(ce)
    ce.add_argument("--C", required=True)
    ce.add_argument("--eps", required=True)
    ce.add_argument("--k-max", type=int, required=True)
    ce.add_argument("--k-min", type=int, default=2)
    ce.add_argument("--n0", type=int, default=0)
    ce.set_defaults(handler=_cmd_search)

    cj = sub.add_parser("conjecture", help="conjecture evidence scans")
    cjsub = cj.add_subparsers(dest="conjecture_kind", required=True)
    scan = cjsub.add_parser("scan", help="residual scan against the conjectured bound")
    scan.add_argument(
        "--family", choices=["S", "T", "u"], default="S", help="named harmonic family"
    )
    scan.add_argument("--k", type=int, help="family index / degree")
    scan.add_argument("--d", type=int, help="dimension for the u family")
    _add_common_options(scan)
    scan.add_argument("--C", required=True)
    scan.add_argument("--eps", required=True)
    scan.add_argument(
        "--n-from", type=int, help="window start (default: k^2/ln k minus k)"
    )
    scan.add_argument("--n-to", type=int, help="window end (default: k^2/ln k plus k)")
    scan.set_defaults(handler=_cmd_conjecture_scan)

    return ap


def dispatch(args) -> int:
    config = CommandConfig(
        precision=getattr(args, "precision", DEFAULT_PRECISION),
        fmt=getattr(args, "fmt", "json"),
        out=getattr(args, "out", None),
    )
    if config.precision < 1:
        raise UsageError("--precision must be >= 1")
    return args.handler(args, config)


def main(argv=None) -> int:
    ap = build_parser()
    # exact outputs (a search witness's binomials, say) may run past the
    # interpreter's 4300-digit cap on int <-> str conversion
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = ap.parse_args(argv)
        code = dispatch(args)
    except HarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a crash must not read as holds, fails or undecided
        detail = " ".join(str(exc).split())
        print(f"error: internal failure: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
