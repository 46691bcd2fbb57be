"""Command line interface: one binary, verb-noun subcommands, exact I/O.

All numeric parameters are parsed as exact rationals ("3/4", "0.25",
"7").  `--family random` is fully determined by --seed (default 0);
--k, --d and --seed are refused where the input does not read them.
Exit codes: 0 holds/confirmed, 1 fails/violation-found (the expected
success of `search`), 2 undecided (for `search` and `conjecture scan`:
no violation certified, but a candidate or row left undecided), 3 usage
(parser errors included), hypothesis or resource-cap errors, 4 internal
failure (any other exception, e.g. out of memory); a reader that closes
stdout early changes none of them.  `--help` and `--version` exit 0.  Exact integers print in
full, however long: a command lifts the interpreter's limit on
int-to-str digits while it runs.  A command registers only the options
it reads; --function, --poly and --family exclude one another.  Every
command reads one growth object, a GrowthPolynomial: a table's growth
report on B_N, or a polynomial's growth polynomial.  A check reads Q(n)
from it where its statement asks, and builds it only at that first read,
after the checker has refused any bad parameter (no-error refuses there
a polynomial of degree above --degree); `growth` prints Q(0..N)
and the zero-padded a_k, and --diff-cols is read by its CSV of Q only,
whose difference columns are read off the a_k.  --out gets the bytes
stdout would.  One command table defines the parser tree, and `main`
builds only the branch that argv names: the invoked command's parser.
A level whose next word names none of its commands (help, --version,
a missing or unknown command) is built whole, so help and usage errors
read the full tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cached_property
from typing import Callable, NamedTuple, Optional

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
from .errors import HarmError, HarmonicityError, HypothesisNotMetError, UsageError
from .growth import GrowthPolynomial, growth_polynomial, growth_report, harmonic_growth_polynomial
from .lattice import LatticeFunction
from .polynomials import MultivariatePolynomial, family_polynomial
from .rationals import format_rational, parse_rational

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {HOLDS: EXIT_HOLDS, FAILS: EXIT_FAILS, UNDECIDED: EXIT_UNDECIDED}


def _emit(args, text: str) -> None:
    """Write ``text``, ending in one newline, to --out or stdout (the same bytes)."""
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise UsageError(f"cannot write output: {exc}") from exc
        with fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early; what is left, and the flush at exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_json(args, obj: dict) -> None:
    obj = {"schema": SCHEMA_VERSION, **obj}
    _emit(args, json.dumps(obj, indent=2))


def _verdict_csv(*verdicts: Verdict) -> str:
    """One header line, then one row per verdict, in the order given."""
    lines = ["status,lhs,main_lo,main_hi,error_lo,error_hi,margin,hypothesis_met"]
    for v in verdicts:
        cells = [v.lhs, v.main.lo, v.main.hi, v.error_term.lo, v.error_term.hi, v.margin]
        met = "" if v.hypothesis_met is None else str(int(v.hypothesis_met))
        lines.append(",".join([v.status, *map(format_rational, cells), met]))
    return "\n".join(lines) + "\n"


def _emit_verdict(args, v: Verdict, extra: Optional[dict] = None) -> int:
    if args.fmt == "csv":
        _emit(args, _verdict_csv(v))
    else:
        obj = {"kind": "verdict", **v.to_json()}
        if extra:
            obj.update(extra)
        _emit_json(args, obj)
    return _STATUS_EXIT[v.status]


# -- input loading ---------------------------------------------------------------


def _refuse_family_options(args, options=("k", "d", "seed")) -> None:
    """A usage error for any of ``options`` given although the input does not read it."""
    given = [f"--{o}" for o in options if getattr(args, o) is not None]
    if given:
        reader = "--family random" if args.family else "--family"
        raise UsageError(f"{', '.join(given)} not read by this input (only by {reader})")


def _read_json(source: str, what: str, inline: bool = False):
    """The JSON document in the file ``source``, or ``source`` itself when ``inline``.

    A file that cannot be opened, is not UTF-8, is not JSON or nests past
    the recursion limit is a usage error naming ``what``.
    """
    try:
        if inline:
            return json.loads(source)
        with open(source, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc


def _load_polynomial(args, n_max: Optional[int] = None) -> MultivariatePolynomial:
    """The --poly or --family input, read up to n_max; the parser demands exactly one input."""
    if args.poly:
        _refuse_family_options(args)
        inline = args.poly.strip().startswith("{")
        return MultivariatePolynomial.from_json(_read_json(args.poly, "polynomial", inline))
    if args.family != "random":
        _refuse_family_options(args, ["seed"])
    if args.k is None:
        raise UsageError("--family needs --k")
    seed = 0 if args.seed is None else args.seed
    return family_polynomial(args.family, args.k, args.d, seed, n_max)


def _load_function(args, needed_radius: int) -> LatticeFunction:
    _refuse_family_options(args)
    obj = _read_json(args.function, "lattice function")
    u = LatticeFunction.from_json(obj, sparse=args.sparse)
    if u.R < needed_radius:
        raise UsageError(
            f"function lives on B_{u.R} but the command needs values up to B_{needed_radius}"
        )
    return u


def _growth_for(args, needed_n: int):
    """A --function table's report on B_needed_n, or a polynomial's growth polynomial.

    A polynomial of degree above no-error's --degree is refused before
    its growth is built; a table's degree is the caller's obligation.
    """
    if args.function:
        return growth_report(_load_function(args, needed_n), needed_n)
    if args.sparse:
        raise UsageError("--sparse applies to --function tables only")
    P = _load_polynomial(args, needed_n)
    degree = getattr(args, "degree", None)  # registered by no-error only
    if degree is not None and degree < P.degree:
        raise HypothesisNotMetError(
            f"--degree {degree} is below the degree {P.degree} of the input polynomial"
        )
    return growth_polynomial(P, needed_n)


class _GrowthOnRead:
    """``_growth_for(args, needed_n)``, built when a checker first reads ``Q``.

    Every checker of Q refuses its parameters and an unmet hypothesis
    before it reads Q, so a refused check never builds its input.
    """

    def __init__(self, args, needed_n: int):
        self._args, self._needed_n = args, needed_n

    @cached_property
    def _growth(self):
        return _growth_for(self._args, self._needed_n)

    def Q(self, n: int):
        return self._growth.Q(n)


# -- subcommand handlers -----------------------------------------------------------


def _cmd_growth(args) -> int:
    if args.diff_cols is not None and (args.fmt == "json" or args.newton):
        raise UsageError("--diff-cols is read only by --format csv without --newton")
    if args.diff_cols is not None and args.diff_cols < 0:
        raise UsageError("--diff-cols must be >= 0")
    growth = _growth_for(args, args.n_max)
    report = growth.to_json(args.n_max, include_newton=args.newton)
    if args.fmt == "json":
        _emit_json(args, report)
        return EXIT_HOLDS
    if args.newton:
        lines = ["k,a_k"] + [f"{k},{a}" for k, a in enumerate(report["newton"])]
    else:
        N = args.n_max
        K = min(6 if args.diff_cols is None else args.diff_cols, N)
        # Delta^j Q(n) = sum_i a_(j+i) C(n, i), for n <= N - j
        diffs = [GrowthPolynomial(growth.d, growth.newton[j:]) for j in range(1, K + 1)]
        lines = ["n,Q" + "".join(f",d{j}" for j in range(1, K + 1))]
        for n, q in enumerate(report["values"]):
            cells = [format_rational(d.Q(n)) if n <= N - j else "" for j, d in enumerate(diffs, 1)]
            lines.append(",".join([str(n), q, *cells]))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_HOLDS


def _cmd_check(args) -> int:
    kind = args.check_kind
    eps = parse_rational(args.eps) if getattr(args, "eps", None) is not None else None
    if kind == "three-circles":
        growth = _GrowthOnRead(args, 4 * args.n)
        v = three_circles_check(growth, args.n, eps, args.precision, explore=args.explore)
        return _emit_verdict(args, v)
    if kind == "general-p":
        P = parse_rational(args.P)
        growth = _GrowthOnRead(args, math.ceil(P * P * args.n))
        v = general_P_check(growth, args.n, P, eps, args.precision, explore=args.explore)
        return _emit_verdict(args, v)
    if kind == "no-error":
        growth = _GrowthOnRead(args, 4 * args.n)
        v = no_error_check(growth, args.degree, args.n, eps, args.precision)
        return _emit_verdict(args, v)
    if kind == "ratio-125":
        delta = parse_rational(args.delta)
        growth = _GrowthOnRead(args, math.ceil(4 * (1 + delta) * args.n))
        v = ratio_125_check(growth, args.n, delta, args.precision)
        return _emit_verdict(args, v)
    if kind == "aspect":
        p = parse_rational(args.p)
        P = parse_rational(args.P)
        growth = _GrowthOnRead(args, math.ceil(p * P * args.n))
        alpha = parse_rational(args.alpha) if args.alpha is not None else None
        v = aspect_ratio_check(growth, args.n, p, P, eps, alpha=alpha, precision=args.precision)
        return _emit_verdict(args, v)
    if kind == "continuous":
        growth = harmonic_growth_polynomial(_load_polynomial(args))
        if growth is None:
            raise HarmonicityError("continuous-time growth requires a lattice-harmonic polynomial")
        v = continuous_three_circles_check(growth, parse_rational(args.t))
        return _emit_verdict(args, v, extra={"growth_polynomial": growth.continuous_json()})
    P = parse_rational(args.P)  # binomial: argparse admits no other check
    result = binomial_inequality_check(args.n, args.k, P, eps, args.precision)
    if args.fmt == "csv":
        _emit(args, _verdict_csv(result.plain, result.max_form))
    else:
        _emit_json(
            args,
            {
                "kind": "binomial_check",
                "plain": result.plain.to_json(),
                "max_form": result.max_form.to_json(),
            },
        )
    return _STATUS_EXIT[result.plain.status]


def _cmd_search(args) -> int:
    result = counterexample_search(
        parse_rational(args.C),
        parse_rational(args.eps),
        k_max=args.k_max,
        k_min=args.k_min,
        n0=args.n0,
        precision=args.precision,
    )
    _emit_json(args, {"kind": "counterexample_search", **result.to_json()})
    return _found_exit(result.found, result.undecided)


def _cmd_conjecture_scan(args) -> int:
    if args.k is None:
        raise UsageError("conjecture scan needs --k (family index)")
    result = conjecture_scan(
        args.k,
        parse_rational(args.C),
        parse_rational(args.eps),
        args.n_from,
        args.n_to,
        precision=args.precision,
        family=args.family,
        d=args.d,
    )
    if args.fmt == "csv":
        _emit(args, result.to_csv())
    else:
        _emit_json(args, result.to_json())
    return _found_exit(result.summary["violations"], result.summary["undecided"])


def _found_exit(found, undecided) -> int:
    """1 when a violation is certified, else 2 when a candidate was left undecided, else 0."""
    if found:
        return EXIT_FAILS
    return EXIT_UNDECIDED if undecided else EXIT_HOLDS


# -- parser ------------------------------------------------------------------------


def _add_output_options(sp, csv: bool = True):
    """--out, and --format json|csv for a command that can print CSV."""
    if csv:
        sp.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    sp.add_argument("--out", help="write output to this file instead of stdout")


def _add_common_options(sp, csv: bool = True):
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    _add_output_options(sp, csv)


def _add_polynomial_inputs(sp, inputs):
    """--poly and --family into the exclusive group ``inputs``; --k, --d, --seed."""
    inputs.add_argument("--poly", help="polynomial JSON (inline or a file path)")
    inputs.add_argument("--family", choices=["S", "T", "u", "random"], help="named harmonic family")
    sp.add_argument("--k", type=int, help="family index / degree")
    sp.add_argument("--d", type=int, help="dimension for the u/random families")
    sp.add_argument("--seed", type=int, help="seed for the random family (default 0)")


def _add_io_options(sp):
    """Exactly one input: a --function table or a polynomial."""
    inputs = sp.add_mutually_exclusive_group(required=True)
    inputs.add_argument("--function", help="lattice function JSON file")
    _add_polynomial_inputs(sp, inputs)
    sp.add_argument("--sparse", action="store_true", help="omitted table points default to 0")


def _add_q_check(sp):
    """A check of Q: one input, --precision, --format, --out and --n."""
    _add_io_options(sp)
    _add_common_options(sp)
    sp.add_argument("--n", type=int, required=True)


_EXPLORE = "check outside the guarantee hypotheses (verdict marked accordingly)"

# Leaf fillers: each adds one subcommand's options (and, outside `check`,
# its handler) to that subcommand's parser.


def _fill_growth(sp):
    _add_io_options(sp)
    _add_output_options(sp)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--newton", action="store_true", help="emit the binomial coefficients a_k")
    sp.add_argument(
        "--diff-cols", type=int, help="difference columns in CSV output without --newton (default 6)"
    )
    sp.set_defaults(handler=_cmd_growth)


def _fill_three_circles(sp):
    _add_q_check(sp)
    sp.add_argument("--explore", action="store_true", help=_EXPLORE)
    sp.add_argument("--eps", required=True)


def _fill_general_p(sp):
    _add_q_check(sp)
    sp.add_argument("--explore", action="store_true", help=_EXPLORE)
    sp.add_argument("--P", required=True)
    sp.add_argument("--eps", required=True)


def _fill_no_error(sp):
    _add_q_check(sp)
    sp.add_argument("--eps", required=True)
    sp.add_argument("--degree", type=int, required=True, help="degree bound M")


def _fill_ratio_125(sp):
    _add_q_check(sp)
    sp.add_argument("--delta", required=True)


def _fill_aspect(sp):
    _add_q_check(sp)
    sp.add_argument("--p", required=True)
    sp.add_argument("--P", required=True)
    sp.add_argument("--eps", required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", help="user-supplied balancing exponent, in (0, 1)")
    group.add_argument(
        "--derive-alpha",
        action="store_true",
        help="solve P^alpha = p^(1-alpha) with certified logarithms",
    )


def _fill_continuous(sp):
    _add_polynomial_inputs(sp, sp.add_mutually_exclusive_group(required=True))
    _add_output_options(sp)
    sp.add_argument("--t", required=True)


def _fill_binomial(sp):
    _add_common_options(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--P", required=True)
    sp.add_argument("--eps", required=True)


def _fill_counterexample(sp):
    _add_common_options(sp, csv=False)
    sp.add_argument("--C", required=True)
    sp.add_argument("--eps", required=True)
    sp.add_argument("--k-max", type=int, required=True)
    sp.add_argument("--k-min", type=int, default=2)
    sp.add_argument("--n0", type=int, default=0)
    sp.set_defaults(handler=_cmd_search)


def _fill_scan(sp):
    sp.add_argument("--family", choices=["S", "T", "u"], default="S", help="named harmonic family")
    sp.add_argument("--k", type=int, help="family index / degree")
    sp.add_argument("--d", type=int, help="dimension for the u family")
    _add_common_options(sp)
    sp.add_argument("--C", required=True)
    sp.add_argument("--eps", required=True)
    sp.add_argument("--n-from", type=int, help="window start (default: k^2/ln k minus k)")
    sp.add_argument("--n-to", type=int, help="window end (default: k^2/ln k plus k)")
    sp.set_defaults(handler=_cmd_conjecture_scan)


class _Level(NamedTuple):
    """One level of subcommands: the namespace attribute that gets the
    chosen name, (name, help, leaf filler or _Level) per subcommand in help
    order, and the handler the level sets, if any."""

    dest: str
    children: tuple
    handler: Optional[Callable] = None


# the one definition of the command tree, full or pruned
_COMMANDS = _Level("command", (
    ("growth", "exact growth report of a function", _fill_growth),
    ("check", "certified inequality verdicts", _Level("check_kind", (
        ("three-circles", "1:2:4 bound with error term", _fill_three_circles),
        ("general-p", "1:P:P^2 bound with error term", _fill_general_p),
        ("no-error", "error-free bound for degree-bounded inputs", _fill_no_error),
        ("ratio-125", "perturbed 1:2:4(1+delta) bound", _fill_ratio_125),
        ("aspect", "general aspect-ratio bound", _fill_aspect),
        ("continuous", "exact continuous-time bound", _fill_continuous),
        ("binomial", "per-degree binomial inequality", _fill_binomial),
    ), _cmd_check)),
    ("search", "searches", _Level("search_kind", (
        ("counterexample", "certified violation near n = k^2/ln k", _fill_counterexample),
    ))),
    ("conjecture", "conjecture evidence scans", _Level("conjecture_kind", (
        ("scan", "residual scan against the conjectured bound", _fill_scan),
    ))),
))


def _add_level(parser, level: _Level, argv) -> None:
    """Register ``level`` on ``parser``: only the subcommand argv[0] names, else all.

    A pruned level names every subcommand in its usage metavar, so the
    usage lines of errors read as the full tree's.  A full level leaves
    the metavar unset, so its errors name the level by its dest
    ("argument command: invalid choice: ...").
    """
    if level.handler:
        parser.set_defaults(handler=level.handler)
    names = [name for name, _, _ in level.children]
    chosen = argv[0] if argv and argv[0] in names else None
    sub = parser.add_subparsers(
        dest=level.dest, required=True, metavar="{" + ",".join(names) + "}" if chosen else None
    )
    for name, help, node in level.children:
        if chosen in (None, name):
            sp = sub.add_parser(name, help=help)
            if isinstance(node, _Level):
                _add_level(sp, node, argv[1:] if chosen else ())
            else:
                node(sp)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 3 (usage), not argparse's 2 (undecided)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of `harm argv`: the branch of subcommands that argv names.

    Levels that argv names no subcommand of are built whole (see
    `_add_level`), so build_parser() is the full tree.
    """
    ap = _ArgumentParser(
        prog="harm",
        description="Exact growth functions of discrete harmonic functions and "
        "certified log-convexity verdicts.",
    )
    ap.add_argument(
        "--version", action="version", version=f"harm {__version__} (schema {SCHEMA_VERSION})"
    )
    _add_level(ap, _COMMANDS, argv)
    return ap


def dispatch(args) -> int:
    if getattr(args, "precision", DEFAULT_PRECISION) < 1:
        raise UsageError("--precision must be >= 1")
    return args.handler(args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # exact outputs (a search witness's binomials, say) may run past the
    # interpreter's 4300-digit cap on int <-> str conversion
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser(argv).parse_args(argv)
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
