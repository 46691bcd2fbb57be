"""CLI surface: parsing, wire formats, exit codes."""

import argparse
import ast
import hashlib
import json
import math
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import harmlat
from harmlat import MultivariatePolynomial, cli, evaluate_on_ball, monomial_uk
from harmlat import growth
from harmlat.cli import main
from harmlat.growth import GrowthPolynomial, growth_polynomial, growth_report
from harmlat.rationals import format_rational, parse_rational

from conftest import _child_env, _full_triangle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _readme_examples():
    """The commands of the README's "Examples:" block, as argv lists without ``harm``."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()]


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_examples_exit_as_documented(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if "f.json" in argv:
        table = evaluate_on_ball(harmlat.sk_polynomial(3), 40).to_json()
        (tmp_path / "f.json").write_text(json.dumps(table))
    witness = argv[:2] == ["search", "counterexample"] and "--n0" in argv
    assert main(argv) == (1 if witness else 0), capsys.readouterr()


def test_version_subprocess():
    res = subprocess.run(
        [sys.executable, "-m", "harmlat.cli", "--version"], capture_output=True, text=True,
        env=_child_env(),
    )
    assert res.returncode == 0
    assert "schema" in res.stdout


def test_cli_import_leaves_numpy_unloaded():
    # no command needs numpy; the tests' Monte Carlo oracle is its only user
    code = "import sys, harmlat.cli; print('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert (res.returncode, res.stdout, res.stderr) == (0, "False\n", "")


# math names exact on ints and Fractions; every other math name is float-valued
_EXACT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod", "trunc"}
_FLOAT_MODULES = {"numpy", "mpmath", "random", "cmath"}


def _floating_point_uses(tree):
    """(line, use) for each float or complex literal, float() call, float-valued
    math name and import of a floating-point module in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float()"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            if node.attr not in _EXACT_MATH:
                yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names if a.name.split(".")[0] in _FLOAT_MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in _FLOAT_MODULES:
                yield node.lineno, node.module
            elif node.module == "math":
                yield from ((node.lineno, f"math.{a.name}") for a in node.names if a.name not in _EXACT_MATH)


def test_floating_point_guard_flags_each_kind():
    src = "\n".join([
        "import numpy", "from cmath import pi", "from math import log, comb",
        "x = 0.5 + float(1) + math.sqrt(2) + math.floor(q)",
    ])
    assert sorted(_floating_point_uses(ast.parse(src))) == [
        (1, "numpy"), (2, "cmath"), (3, "math.log"), (4, "0.5"), (4, "float()"), (4, "math.sqrt"),
    ]


def test_library_source_uses_no_floating_point():
    """No result may pass through a float: the package's source names none.

    decimal stays allowed: format_int runs it exactly, with Inexact trapped.
    """
    found = []
    for path in sorted(Path(harmlat.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line} {use}" for line, use in _floating_point_uses(ast.parse(path.read_text()))]
    assert found == []


def _gcd_uses(tree):
    """(line, use) for each math.gcd or math.lcm named in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            if node.attr in ("gcd", "lcm"):
                yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, f"math.{a.name}") for a in node.names if a.name in ("gcd", "lcm"))


def test_only_rationals_takes_a_gcd_or_lcm():
    """Lists are brought to one denominator and reduced by the two helpers of rationals only."""
    src = "from math import lcm, comb\ng = math.gcd(a, b) + math.prod(c)"
    assert sorted(_gcd_uses(ast.parse(src))) == [(1, "math.lcm"), (2, "math.gcd")]
    found = []
    for path in sorted(Path(harmlat.__file__).parent.glob("*.py")):
        if path.name != "rationals.py":
            found += [f"{path.name}:{line} {use}" for line, use in _gcd_uses(ast.parse(path.read_text()))]
    assert found == []


def test_closed_stdout_pipe_is_not_a_crash():
    argv = ["search", "counterexample", "--C", "1", "--eps", "1/5", "--k-max", "30", "--n0", "100"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "harmlat.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    proc.stdout.close()  # the reader is gone before the search prints its witness
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


def test_check_continuous_single_term(capsys):
    poly = '{"d":1,"terms":[{"alpha":[1],"coeff":"1"}]}'
    code, out, _ = run(capsys, "check", "continuous", "--poly", poly, "--t", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "holds"
    assert obj["growth_polynomial"]["coeffs"] == ["0", "1"]


def test_check_continuous_non_harmonic_exit_3(capsys):
    poly = '{"d":1,"terms":[{"alpha":[2],"coeff":"1"}]}'  # x^2: L x^2 = 2
    code, out, err = run(capsys, "check", "continuous", "--poly", poly, "--t", "3")
    assert code == 3
    assert out == ""
    assert "lattice-harmonic" in err


@pytest.mark.parametrize(
    "fmt,digest",
    [
        ("json", "c2905a207de4feb233aa22dac7dc32023177dc125e56b7ff0b592eea1e5572b4"),
        ("csv", "4be657aaa58159eb1ca080e8ea282e38fa44d56ffb47e59b074975b69aa49de8"),
    ],
)
def test_check_continuous_evaluates_once(capsys, evaluation_radii, fmt, digest):
    # one table of S_100 on B_101 decides harmonicity and gives the growth;
    # the digests are those printed when each read a table of its own
    argv = ["check", "continuous", "--family", "S", "--k", "100", "--t", "1", "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, err, evaluation_radii) == (0, "", [101])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family", ["S", "T"])
@pytest.mark.parametrize("command", ["growth", "scan"])
def test_planar_family_off_z2_exit_3(capsys, family, command):
    if command == "growth":
        argv = ["growth", "--family", family, "--k", "3", "--d", "3", "--n-max", "6"]
    else:
        argv = ["conjecture", "scan", "--family", family, "--k", "3", "--d", "3", "--C", "1",
                "--eps", "1/10"]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "lives on Z^2" in err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_coordinate_product_k_below_1_names_k(capsys, k):
    # k is checked before it stands in for the dimension d
    code, out, err = run(capsys, "growth", "--family", "u", "--k", k, "--n-max", "3")
    assert code == 3
    assert out == ""
    assert f"need k >= 1 for the coordinate product; got k={k}" in err
    assert "dimension" not in err


def test_growth_json_golden(capsys, tmp_path):
    u = evaluate_on_ball(monomial_uk(2, 2), 8)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(u.to_json()))
    code, out, _ = run(capsys, "growth", "--function", str(path), "--n-max", "8", "--newton")
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == 2 and obj["n_max"] == 8
    expected = growth_report(evaluate_on_ball(monomial_uk(2, 2), 8))
    assert obj["values"] == [
        str(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        for v in map(expected.Q, range(9))
    ]
    assert obj["newton"][2] == "1/2"


def test_growth_round_trip_of_emitted_values(capsys):
    code, out, _ = run(capsys, "growth", "--family", "S", "--k", "2", "--n-max", "6")
    obj = json.loads(out)
    values = [parse_rational(v) for v in obj["values"]]
    expected = growth_report(evaluate_on_ball(harmlat.sk_polynomial(2), 6))  # the walk route
    assert values == [expected.Q(n) for n in range(7)]


def test_growth_csv(capsys):
    code, out, _ = run(
        capsys, "growth", "--family", "u", "--k", "1", "--d", "2", "--n-max", "5",
        "--format", "csv", "--diff-cols", "2",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,Q,d1,d2"
    assert lines[1].startswith("0,0,1/2,0")


def _csv_from_full_triangle(values, diff_cols):
    """The CSV of ``harm growth``, from every forward difference of the values."""
    N = len(values) - 1
    tri = _full_triangle(values)
    K = min(diff_cols, N)
    lines = ["n,Q" + "".join(f",d{j}" for j in range(1, K + 1))]
    for n in range(N + 1):
        cells = [format_rational(row[n]) if n < len(row) else "" for row in tri[: K + 1]]
        lines.append(",".join([str(n), *cells]))
    return "\n".join(lines) + "\n"


_NOT_HARMONIC = MultivariatePolynomial(2, {(3, 1): 1, (0, 2): Fraction(-2, 3), (1, 0): 5})


# below the degree, above it, above n_max, none, and the default 6 when omitted
@pytest.mark.parametrize("diff_cols", [2, 5, 14, 0, None])
@pytest.mark.parametrize("source", ["function", "not-harmonic", "family", "poly"])
def test_growth_csv_equals_full_triangle(capsys, tmp_path, source, diff_cols):
    N = 10
    P = _NOT_HARMONIC if source == "not-harmonic" else harmlat.sk_polynomial(3)
    if source == "family":
        argv = ["--family", "S", "--k", "3"]
    elif source == "poly":
        argv = ["--poly", json.dumps(P.to_json())]
    else:
        path = tmp_path / "u.json"
        path.write_text(json.dumps(evaluate_on_ball(P, N).to_json()))
        argv = ["--function", str(path)]
    if diff_cols is not None:
        argv += ["--diff-cols", str(diff_cols)]
    code, out, err = run(capsys, "growth", *argv, "--n-max", str(N), "--format", "csv")
    assert (code, err) == (0, "")
    walk = growth_report(evaluate_on_ball(P, N))
    values = [walk.Q(n) for n in range(N + 1)]
    assert out == _csv_from_full_triangle(values, 6 if diff_cols is None else diff_cols)


def test_growth_csv_takes_differences_once(capsys, tmp_path, monkeypatch):
    # the walk route of growth_report finds the a_k; every other difference is read off them
    calls = []
    triangle = growth._difference_triangle

    def counted(values):
        calls.append(len(values))
        return triangle(values)

    monkeypatch.setattr(growth, "_difference_triangle", counted)
    u = evaluate_on_ball(_NOT_HARMONIC, 6)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(u.to_json()))
    code, _, err = run(
        capsys, "growth", "--function", str(path), "--n-max", "6", "--format", "csv",
        "--diff-cols", "6",
    )
    assert (code, err, calls) == (0, "", [7])
    report = growth_report(u)
    calls.clear()
    assert harmlat.check_absolute_monotonicity(report).holds  # every a_k >= 0 here
    assert calls == []


def test_growth_newton_csv(capsys):
    code, out, err = run(
        capsys, "growth", "--family", "S", "--k", "3", "--n-max", "6", "--format", "csv",
        "--newton",
    )
    assert (code, err) == (0, "")
    newton = growth_polynomial(harmlat.sk_polynomial(3)).newton
    a = list(newton) + [0] * (7 - len(newton))
    assert out == "k,a_k\n" + "".join(f"{k},{format_rational(a[k])}\n" for k in range(7))


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "--family", "S", "--k", "3", "--n-max", "4"],
        ["conjecture", "scan", "--k", "2", "--C", "1", "--eps", "1/10", "--n-from", "17",
         "--n-to", "18", "--format", "csv"],
    ],
)
def test_out_file_holds_the_bytes_of_stdout(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
    assert out.endswith("\n") and target.read_bytes() == out.encode()


def test_poly_file_path_reads_as_inline_json(capsys, tmp_path):
    inline = json.dumps(harmlat.sk_polynomial(3).to_json())
    path = tmp_path / "p.json"
    path.write_text(inline)
    by_path = run(capsys, "growth", "--poly", str(path), "--n-max", "5")
    assert by_path[0] == 0 and by_path == run(capsys, "growth", "--poly", inline, "--n-max", "5")


@pytest.mark.parametrize(
    "flag, what", [("--poly", "polynomial"), ("--function", "lattice function")]
)
def test_unreadable_input_path_exit_3(capsys, tmp_path, flag, what):
    code, out, err = run(capsys, "growth", flag, str(tmp_path / "missing.json"), "--n-max", "2")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot read {what}: ")


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000])
@pytest.mark.parametrize(
    "flag, what", [("--poly", "polynomial"), ("--function", "lattice function")]
)
def test_malformed_input_file_exit_3(capsys, tmp_path, flag, what, content):
    # a file that is not UTF-8, or whose JSON nests past the recursion limit
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "growth", flag, str(path), "--n-max", "1")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot read {what}: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["growth", "--family", "S", "--n-max", "4"], "--family needs --k"),
        (["conjecture", "scan", "--C", "1", "--eps", "1/10"],
         "conjecture scan needs --k (family index)"),
    ],
)
def test_family_without_k_exit_3(capsys, argv, message):
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")


def test_check_three_circles_family(capsys):
    code, out, _ = run(
        capsys, "check", "three-circles", "--family", "S", "--k", "2", "--n", "20",
        "--eps", "1/4",
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) >= {"status", "lhs", "main", "error_term", "margin", "hypothesis_met"}
    assert obj["status"] == "holds" and obj["hypothesis_met"] is True
    assert "lo" in obj["main"] and "hi" in obj["error_term"]


def test_check_three_circles_guard_exit_3(capsys):
    code, out, err = run(
        capsys, "check", "three-circles", "--family", "S", "--k", "2", "--n", "10",
        "--eps", "0",
    )
    assert code == 3
    assert "explore" in err


def test_check_three_circles_explore(capsys):
    code, out, _ = run(
        capsys, "check", "three-circles", "--family", "S", "--k", "2", "--n", "10",
        "--eps", "0", "--explore",
    )
    assert code == 0
    assert json.loads(out)["hypothesis_met"] is False


def test_check_binomial(capsys):
    code, out, _ = run(
        capsys, "check", "binomial", "--n", "100", "--k", "5", "--P", "2", "--eps", "1/4"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["plain"]["status"] == "holds"
    assert obj["max_form"]["status"] == "holds"


def test_check_binomial_csv_prints_one_header(capsys):
    argv = ["check", "binomial", "--n", "100", "--k", "5", "--P", "2", "--eps", "1/4"]
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    obj = json.loads(run(capsys, *argv)[1])
    header, plain, max_form = out.splitlines()
    assert out.count("status,") == 1 and header.startswith("status,lhs,")
    for line, form in ((plain, obj["plain"]), (max_form, obj["max_form"])):
        assert line.split(",")[:2] == [form["status"], form["lhs"]]
        assert line.split(",")[6] == form["margin"]
    assert plain != max_form


def test_check_aspect_with_derived_alpha(capsys):
    code, out, _ = run(
        capsys, "check", "aspect", "--family", "u", "--k", "2", "--d", "2", "--n", "10",
        "--p", "3", "--P", "2", "--eps", "1/4", "--derive-alpha",
    )
    assert code == 0
    assert json.loads(out)["status"] == "holds"


def test_check_aspect_alpha_outside_unit_interval_exit_3(capsys, tmp_path):
    # u = 1 at |x| = 2 on Z, so Q(1) = 0 and Q(1)^alpha is infinite for alpha = -1
    path = tmp_path / "t.json"
    entries = [[x, "1" if abs(x) == 2 else "0"] for x in range(-12, 13)]
    path.write_text(json.dumps({"d": 1, "R": 12, "entries": entries}))
    code, out, err = run(
        capsys, "check", "aspect", "--function", str(path), "--n", "1",
        "--p", "3", "--P", "2", "--eps", "1/4", "--alpha=-1",
    )
    assert code == 3
    assert out == ""
    assert "alpha must lie in (0, 1)" in err


def test_check_aspect_requires_alpha_choice(capsys):
    code, _, err = run(
        capsys, "check", "aspect", "--family", "u", "--k", "2", "--d", "2",
        "--n", "10", "--p", "3", "--P", "2", "--eps", "1/4",
    )
    assert code == 3
    assert "--alpha" in err


_X = '{"d":2,"terms":[{"alpha":[1,0],"coeff":"1"}]}'  # the polynomial x


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "three-circles", "--family", "S", "--k", "2", "--n", "20"],  # no --eps
        ["conjecture", "scan", "--family", "S", "--k", "4", "--C", "1", "--eps", "1/10",
         "--threads", "2"],  # removed option
        ["check", "three-circles", "--family", "S", "--k", "x", "--n", "20", "--eps", "1/4"],
        ["no-such-command"],
        # --seed belongs to --family; these commands take no family
        ["search", "counterexample", "--C", "1", "--eps", "1/5", "--k-max", "30",
         "--seed", "1"],
        ["check", "binomial", "--n", "20", "--k", "2", "--P", "2", "--eps", "1/4",
         "--seed", "1"],
        # the scan reads a named family only: S, T or u with --k and --d
        ["conjecture", "scan", "--poly", '{"d":2,"terms":[[[1,0],"1"]]}', "--k", "3",
         "--C", "1", "--eps", "1/10"],
        ["conjecture", "scan", "--function", "f.json", "--k", "3", "--C", "1", "--eps", "1/10"],
        ["conjecture", "scan", "--family", "S", "--k", "3", "--C", "1", "--eps", "1/10",
         "--sparse"],
        ["conjecture", "scan", "--family", "S", "--k", "3", "--C", "1", "--eps", "1/10",
         "--seed", "1"],
        ["conjecture", "scan", "--family", "random", "--k", "3", "--d", "2", "--C", "1",
         "--eps", "1/10"],
        # growth computes no enclosure, so it takes no --precision
        ["growth", "--family", "S", "--k", "3", "--n-max", "4", "--precision", "3"],
        # the continuous check is exact and reads a polynomial only
        ["check", "continuous", "--family", "S", "--k", "3", "--t", "1", "--precision", "64"],
        ["check", "continuous", "--family", "S", "--k", "3", "--t", "1", "--sparse"],
        ["check", "continuous", "--function", "f.json", "--t", "1"],
        # one input at a time
        ["check", "three-circles", "--poly", '{"d":2,"terms":[[[1,0],"1"]]}', "--family", "S",
         "--k", "3", "--n", "20", "--eps", "1/4"],
        ["check", "three-circles", "--function", "f.json", "--family", "S", "--k", "3",
         "--n", "20", "--eps", "1/4"],
        # --sparse fills the points a --function table omits
        ["check", "three-circles", "--family", "S", "--k", "3", "--n", "20", "--eps", "1/4",
         "--sparse"],
        ["growth", "--family", "S", "--k", "3", "--n-max", "4", "--sparse"],
        # the search prints JSON only
        ["search", "counterexample", "--C", "1", "--eps", "1/5", "--k-max", "30",
         "--format", "csv"],
        # --k, --d and --seed belong to --family; --seed to --family random
        ["check", "three-circles", "--poly", _X, "--k", "3", "--n", "20", "--eps", "1/4"],
        ["check", "three-circles", "--poly", _X, "--d", "7", "--n", "20", "--eps", "1/4"],
        ["check", "three-circles", "--poly", _X, "--seed", "5", "--n", "20", "--eps", "1/4"],
        ["growth", "--poly", _X, "--seed", "5", "--n-max", "4"],
        ["check", "continuous", "--poly", _X, "--k", "3", "--t", "1"],
        ["check", "three-circles", "--family", "S", "--k", "3", "--seed", "5", "--n", "20",
         "--eps", "1/4"],
        ["growth", "--family", "u", "--k", "2", "--d", "2", "--seed", "0", "--n-max", "4"],
        # an empty k range checks nothing, so it cannot report "holds"
        ["search", "counterexample", "--C", "2", "--eps", "1/10", "--k-min", "50",
         "--k-max", "10"],
        # likewise an n0 at or above every candidate (k = 3 has n = 7..10)
        ["search", "counterexample", "--C", "2", "--eps", "1/10", "--k-min", "3", "--k-max", "3",
         "--n0", "100000000000000000000"],
        # likewise an empty scan window
        ["conjecture", "scan", "--family", "S", "--k", "6", "--C", "1", "--eps", "1/10",
         "--n-from", "50", "--n-to", "10"],
        # --diff-cols is read by the CSV of Q only, and counts columns
        ["growth", "--family", "S", "--k", "3", "--n-max", "4", "--diff-cols", "2"],
        ["growth", "--family", "S", "--k", "3", "--n-max", "4", "--format", "json",
         "--diff-cols", "2"],
        ["growth", "--family", "S", "--k", "3", "--n-max", "4", "--format", "csv", "--newton",
         "--diff-cols", "2"],
        ["growth", "--family", "S", "--k", "3", "--n-max", "4", "--format", "csv",
         "--diff-cols", "-2"],
    ],
)
def test_parser_errors_exit_3_not_undecided(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "error:" in err


_S3 = ["growth", "--family", "S", "--k", "3", "--n-max", "4"]


@pytest.mark.parametrize(
    "cells, argv, message",
    [
        ("abc", _S3, "HARM_MAX_CELLS must be a positive integer, got 'abc'"),
        ("0", _S3, "HARM_MAX_CELLS must be a positive integer, got '0'"),
        ("-5", _S3, "HARM_MAX_CELLS must be a positive integer, got '-5'"),
        (None, ["growth", "--poly", '{"d":2,"terms":[{"alpha":[1,0],"coeff":"1"},{"alpha":[1,0],"coeff":"2"}]}',
                "--n-max", "4"], "duplicate term (1, 0)"),
        (None, ["growth", "--poly", '{"d":2,"terms":[{"alpha":[1,0,0],"coeff":"1"}]}', "--n-max", "4"],
         "bad exponent tuple (1, 0, 0)"),
        (None, ["growth", "--poly", '{"d":2}', "--n-max", "4"], "malformed polynomial JSON: 'terms'"),
        (None, ["growth", "--function", "NO_ENTRIES", "--n-max", "1"], "malformed lattice function JSON: 'entries'"),
        (None, ["check", "three-circles", "--family", "S", "--k", "2", "--n", "0", "--eps", "1/4"],
         "n must be >= 1"),
        (None, ["check", "aspect", "--family", "S", "--k", "2", "--n", "0", "--p", "3", "--P", "2",
                "--eps", "1/4", "--derive-alpha"], "n must be >= 1"),
        (None, ["check", "no-error", "--family", "S", "--k", "2", "--degree", "-1", "--n", "20", "--eps", "1/10"],
         "degree M must be non-negative"),
        (None, ["check", "ratio-125", "--family", "S", "--k", "2", "--n", "-1", "--delta", "1/8"],
         "n must be non-negative"),
        (None, ["check", "binomial", "--n", "-1", "--k", "2", "--P", "2", "--eps", "1/4"],
         "n and k must be non-negative"),
        (None, ["check", "binomial", "--n", "5", "--k", "2", "--P", "1", "--eps", "1/4"], "P must be > 1"),
        (None, ["conjecture", "scan", "--family", "S", "--k", "4", "--C", "0", "--eps", "1/10"],
         "need C > 0 and eps > 0"),
        (None, ["conjecture", "scan", "--family", "S", "--k", "4", "--C", "1", "--eps", "0"],
         "need C > 0 and eps > 0"),
    ],
)
def test_refused_inputs_exit_3_with_their_message(capsys, tmp_path, monkeypatch, cells, argv, message):
    if cells is not None:
        monkeypatch.setenv("HARM_MAX_CELLS", cells)
    no_entries = tmp_path / "no_entries.json"
    no_entries.write_text('{"d": 1, "R": 2}')
    argv = [str(no_entries) if word == "NO_ENTRIES" else word for word in argv]
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("option", [["--k", "3"], ["--d", "2"], ["--seed", "0"]])
def test_family_options_refused_with_function_table(capsys, tmp_path, option):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(evaluate_on_ball(monomial_uk(2, 2), 4).to_json()))
    code, out, err = run(capsys, "growth", "--function", str(path), "--n-max", "4", *option)
    assert (code, out) == (3, "")
    assert f"{option[0]} not read by this input" in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "three-circles" in capsys.readouterr().out


def test_check_no_error_hypothesis_exit_3(capsys):
    code, _, err = run(
        capsys, "check", "no-error", "--family", "S", "--k", "5", "--n", "20",
        "--eps", "1/4", "--degree", "5",
    )
    assert code == 3
    assert "n^(1-2eps)" in err


_S20 = ["--family", "S", "--k", "20"]
_POLY5 = ["--poly", json.dumps(harmlat.sk_polynomial(5).to_json())]


@pytest.mark.parametrize("source, deg, degree, n", [
    (_S20, 20, 1, 17), (_S20, 20, 1, 20), (_S20, 20, 19, 500), (_POLY5, 5, 4, 20),
    (_S20, 20, 20, 500), (_POLY5, 5, 5, 30),
], ids=["S20-1-17", "S20-1-20", "S20-19-500", "poly5-4-20", "S20-20-500", "poly5-5-30"])
def test_check_no_error_reads_the_degree_of_a_polynomial_input(capsys, source, deg, degree, n):
    """A --degree below the input's degree is an unmet hypothesis, not a verdict; an equal one is read."""
    code, out, err = run(capsys, "check", "no-error", *source, "--degree", str(degree), "--n", str(n), "--eps", "0")
    if degree < deg:
        message = f"--degree {degree} is below the degree {deg} of the input polynomial"
        assert (code, out, err) == (3, "", f"error: {message}\n")
    else:
        obj = json.loads(out)
        assert (code, err, obj["status"], obj["hypothesis_met"]) == (0, "", "holds", True)


def test_check_no_error_open_hypothesis_exit_2(capsys):
    # 1 - 2eps exceeds ln 16 / ln 20 by about 2^-119: u = x on Z^1 (Q(n) = n
    # up to scale), M = 4, n = 20; 64 bits leave the degree hypothesis open
    ratio = harmlat.ln_enclosure(Fraction(16), 300) / harmlat.ln_enclosure(Fraction(20), 300)
    eps = (1 - Fraction(math.floor(ratio.lo * 2**120), 2**120)) / 2 - Fraction(1, 2**119)
    argv = ["check", "no-error", "--family", "u", "--k", "1", "--d", "1", "--n", "20",
            "--eps", str(eps), "--degree", "4"]
    code, out, err = run(capsys, *argv, "--precision", "64")
    assert (code, err) == (2, "")
    obj = json.loads(out)
    assert obj["status"] == "undecided" and obj["hypothesis_met"] is None
    assert "degree hypothesis" in obj["note"] and obj["precision_bits"] == 64
    code, out, _ = run(capsys, *argv, "--precision", "128")
    assert code == 0 and json.loads(out)["status"] == "holds"


def test_search_counterexample_found_exit_1(capsys):
    code, out, _ = run(
        capsys, "search", "counterexample", "--C", "1", "--eps", "1/5", "--k-max", "30",
        "--n0", "100",
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["found"] and obj["n"] > 100
    assert obj["ratio_estimate_certified"] and obj["square_estimate_certified"]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_search_witness_beyond_digit_limit_prints_in_full(capsys):
    # the witness at k = 250 has binomials of about 670 digits
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(
            capsys, "search", "counterexample", "--C", "1", "--eps", "1/5",
            "--k-min", "250", "--k-max", "250",
        )
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(0)
    try:
        assert (code, err) == (1, "")
        obj = json.loads(out)
        assert obj["found"] and obj["k"] == 250
        n = obj["n"]
        assert [int(b) for b in obj["binomials"]] == [math.comb(m, 250) for m in (n, 2 * n, 4 * n)]
        assert max(len(b) for b in obj["binomials"]) > 640
    finally:
        sys.set_int_max_str_digits(old)


def test_search_counterexample_exhausted_exit_0(capsys):
    code, out, _ = run(
        capsys, "search", "counterexample", "--C", "1000000", "--eps", "1/10",
        "--k-max", "6",
    )
    assert code == 0
    assert json.loads(out)["found"] is False


def _undecided_rule(monkeypatch):
    """Make the sum rule, which decides every search verdict and scan row, leave all open."""
    rule = lambda lhs, msq, err: "undecided"  # noqa: E731
    monkeypatch.setattr(harmlat.checks, "_sum_status", rule)
    monkeypatch.setattr(harmlat.conjecture, "_sum_status", rule)


def test_search_left_undecided_exit_2(capsys, monkeypatch):
    _undecided_rule(monkeypatch)
    code, out, err = run(
        capsys, "search", "counterexample", "--C", "1", "--eps", "1/5", "--k-max", "30",
        "--n0", "100",
    )
    assert (code, err) == (2, "")
    obj = json.loads(out)
    assert obj["found"] is False and obj["undecided"]


def test_conjecture_scan_left_undecided_exit_2(capsys, monkeypatch):
    _undecided_rule(monkeypatch)
    argv = ["conjecture", "scan", "--family", "S", "--k", "4", "--C", "1", "--eps", "1/10"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (2, "")
    summary = json.loads(out)["summary"]
    assert summary["violations"] == 0 and summary["undecided"] == summary["rows"] > 0
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 2 and all(line.endswith(",?") for line in out.splitlines()[1:])


def test_conjecture_scan_violation_outranks_undecided_exit_1(capsys, monkeypatch):
    # S_4's default window at C = 1/2 certifies one violation; leave every other row open
    real = harmlat.conjecture._sum_status

    def rule(lhs, msq, err):
        status = real(lhs, msq, err)
        return status if status == "fails" else "undecided"

    monkeypatch.setattr(harmlat.conjecture, "_sum_status", rule)
    code, out, _ = run(
        capsys, "conjecture", "scan", "--family", "S", "--k", "4", "--C", "1/2", "--eps", "1/10",
    )
    summary = json.loads(out)["summary"]
    assert (summary["violations"], summary["undecided"], summary["rows"]) == (1, 8, 9)
    assert code == 1


def test_conjecture_scan_csv(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys, "conjecture", "scan", "--k", "2", "--C", "1", "--eps", "1/10",
        "--n-from", "17", "--n-to", "20", "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("n,Q_n,Q_2n,Q_4n")
    assert len(lines) == 5


def test_conjecture_scan_row_with_q_4n_zero(capsys):
    # u_5 on Z^5 vanishes on B_4: Q(1) = Q(2) = Q(4) = 0, so row 1 has no ratio and no residual
    code, out, err = run(
        capsys, "conjecture", "scan", "--family", "u", "--k", "5", "--C", "1", "--eps", "1/10",
        "--n-from", "1", "--n-to", "2", "--format", "csv",
    )
    assert (code, err) == (0, "")
    header, row1, row2 = out.splitlines()
    cells = dict(zip(header.split(","), row1.split(",")))
    assert [cells[c] for c in ("n", "Q_n", "Q_2n", "Q_4n")] == ["1", "0", "0", "0"]
    assert [cells[c] for c in ("ratio_num", "ratio_den")] == ["", ""]
    assert [cells[c] for c in ("residual_lo", "residual_hi", "violation")] == ["0", "0", "0"]
    assert row2.split(",")[3] != "0"  # Q(8) > 0: row 2 is decided on its residual


def test_sparse_function_loading(capsys, tmp_path):
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"d": 1, "R": 4, "entries": [[0, "1"]]}))
    code, _, err = run(capsys, "growth", "--function", str(path), "--n-max", "4")
    assert code == 3
    code, out, _ = run(
        capsys, "growth", "--function", str(path), "--n-max", "4", "--sparse"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["values"][0] == "1"


@pytest.mark.parametrize(
    "flag, obj",
    [
        ("--poly", {"d": 1, "terms": [{"alpha": [1.9], "coeff": "1"}]}),
        ("--poly", {"d": 1.5, "terms": [{"alpha": [1], "coeff": "1"}]}),
        ("--poly", {"d": 1, "terms": [{"alpha": [True], "coeff": "1"}]}),
        ("--poly", {"d": 2, "terms": [{"alpha": "11", "coeff": "1"}]}),
        ("--function", {"d": 1, "R": 2.7, "entries": [[0, "1"]]}),
        ("--function", {"d": 1, "R": 2, "entries": [[1.9, "1"]]}),
        ("--function", {"d": 1, "R": 2, "entries": [[True, "1"]]}),
        ("--function", {"d": 1, "R": 2, "entries": [["x", "1"]]}),
        ("--function", {"d": 1, "R": 2, "entries": [5]}),
        ("--function", {"d": 1, "R": 2, "entries": 5}),
    ],
)
def test_json_integer_fields_refuse_other_values(capsys, tmp_path, flag, obj):
    # integer fields take exact integers only: nothing is truncated, nothing crashes
    if flag == "--poly":
        argv = ["--poly", json.dumps(obj)]
    else:
        path = tmp_path / "f.json"
        path.write_text(json.dumps(obj))
        argv = ["--function", str(path), "--sparse"]
    code, out, err = run(capsys, "growth", *argv, "--n-max", "2")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "internal failure" not in err


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("flag", ["--poly", "--function"])
def test_json_bool_values_are_refused(capsys, tmp_path, flag, value):
    # a JSON true or false is not the rational 1 or 0
    if flag == "--poly":
        argv = ["--poly", json.dumps({"d": 1, "terms": [{"alpha": [1], "coeff": value}]})]
    else:
        path = tmp_path / "f.json"
        entries = [[x, value if x == 0 else "1"] for x in range(-2, 3)]
        path.write_text(json.dumps({"d": 1, "R": 2, "entries": entries}))
        argv = ["--function", str(path)]
    code, out, err = run(capsys, "growth", *argv, "--n-max", "2")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "internal failure" not in err


def test_json_integer_fields_read_integral_strings(capsys):
    plain = run(capsys, "growth", "--poly", '{"d":1,"terms":[{"alpha":[1],"coeff":"1"}]}',
                "--n-max", "3")
    quoted = run(capsys, "growth", "--poly", '{"d":"1","terms":[{"alpha":["1"],"coeff":"1"}]}',
                 "--n-max", "3")
    assert plain[0] == 0 and quoted == plain


def test_unwritable_out_path_exit_3(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "growth", "--family", "S", "--k", "3", "--n-max", "3", "--out", str(target)
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot write output: ")


def test_verdict_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "check", "three-circles", "--family", "S", "--k", "2", "--n", "20",
        "--eps", "1/4",
    )
    obj = json.loads(out)
    for key in ("lhs", "margin"):
        parse_rational(obj[key])
    for enc in (obj["main"], obj["error_term"]):
        assert parse_rational(enc["lo"]) <= parse_rational(enc["hi"])


def test_malformed_rational_exit_3(capsys):
    code, _, err = run(
        capsys, "check", "binomial", "--n", "10", "--k", "2", "--P", "2", "--eps", "zebra"
    )
    assert code == 3
    assert "rational" in err


def test_precision_below_one_exit_3(capsys):
    code, out, err = run(
        capsys, "check", "binomial", "--n", "20", "--k", "2", "--P", "2", "--eps", "1/4",
        "--precision", "0",
    )
    assert (code, out, err) == (3, "", "error: --precision must be >= 1\n")


def test_missing_input_exit_3(capsys):
    code, _, err = run(capsys, "check", "three-circles", "--n", "20", "--eps", "0")
    assert code == 3


def test_function_too_small_for_check(capsys, tmp_path):
    u = evaluate_on_ball(monomial_uk(2, 2), 8)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(u.to_json()))
    code, _, err = run(
        capsys, "check", "three-circles", "--function", str(path), "--n", "20", "--eps", "0"
    )
    assert code == 3


def test_function_table_above_cap_refused_exit_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HARM_MAX_CELLS", "1000")
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"d": 2, "R": 100, "entries": [[0, 0, "1"]]}))  # 20201 cells
    code, out, err = run(capsys, "growth", "--function", str(path), "--n-max", "4", "--sparse")
    assert code == 3
    assert out == ""
    assert "HARM_MAX_CELLS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["conjecture", "scan", "--family", "S", "--k", "400", "--C", "1", "--eps", "1/10"],
        ["growth", "--family", "T", "--k", "400", "--n-max", "2000"],
    ],
)
def test_named_family_above_cap_refused_before_it_is_built(capsys, monkeypatch, argv):
    from harmlat import polynomials

    def unbuilt(k):
        raise AssertionError(f"member {k} was built before its ball was checked")

    monkeypatch.setenv("HARM_MAX_CELLS", "1000")
    monkeypatch.setattr(polynomials, "sk_polynomial", unbuilt)
    monkeypatch.setattr(polynomials, "tk_polynomial", unbuilt)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "error: ball B_401 of Z^2 has 322405 points, above the cap 1000 "
        "(raise HARM_MAX_CELLS to override)\n"
    )


def test_named_family_cap_reads_the_commands_ball(capsys, monkeypatch):
    # three-circles at n = 1 reads Q(4), so S_6 is read on B_4 (41 cells), not B_7
    monkeypatch.setenv("HARM_MAX_CELLS", "41")
    argv = ["check", "three-circles", "--family", "S", "--k", "6", "--n", "1", "--eps", "0"]
    assert run(capsys, *argv, "--explore")[0] == 0
    monkeypatch.setenv("HARM_MAX_CELLS", "40")
    assert run(capsys, *argv, "--explore")[0] == 3


@pytest.mark.parametrize(
    "kind,options,message",
    [
        ("ratio-125", ["--delta", "100"], "delta must lie in (0, 1/4), got 100"),
        ("three-circles", ["--eps", "1"], "eps must lie in [0, 1/2], got 1"),
        ("general-p", ["--P", "1", "--eps", "1/4"], "P must be > 1"),
        ("aspect", ["--p", "3", "--P", "2", "--eps", "1/4", "--alpha", "2"],
         "alpha must lie in (0, 1), got 2"),
        ("no-error", ["--degree", "3", "--eps", "1/2"], "eps must lie in [0, 1/2), got 1/2"),
        ("three-circles", ["--n", "10", "--eps", "1/4"],
         "the guarantee needs n > 16 (got n=10); pass explore=True to check anyway"),
    ],
)
def test_check_refuses_parameters_before_building_the_member(capsys, monkeypatch, kind, options, message):
    from harmlat import cli

    def unbuilt(*args, **kwargs):
        raise AssertionError("the family member was built before its parameters were checked")

    monkeypatch.setattr(cli, "family_polynomial", unbuilt)
    n = [] if "--n" in options else ["--n", "20"]
    code, out, err = run(capsys, "check", kind, "--family", "S", "--k", "200", *n, *options)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_internal_failure_exit_4(capsys, monkeypatch):
    from harmlat import cli

    def crash(*args, **kwargs):
        raise MemoryError("no room\nfor the table")

    monkeypatch.setattr(cli, "growth_polynomial", crash)
    code, out, err = run(capsys, "growth", "--family", "S", "--k", "2", "--n-max", "6")
    assert code == 4
    assert out == ""
    assert err == "error: internal failure: MemoryError: no room for the table\n"


def _poly_inputs(k, j):
    """--family S_k, and --poly S_k + T_j / 3, both of degree k."""
    poly = harmlat.sk_polynomial(k) + harmlat.tk_polynomial(j).scale(Fraction(1, 3))
    return {"family": ["--family", "S", "--k", str(k)], "poly": ["--poly", json.dumps(poly.to_json())]}


# deg 70: the small n of each kind needs Q up to some needed_n <= 70 (a
# partial growth polynomial), the large n beyond it (a complete one).
# no-error reads degree-4 inputs, as its --degree must bound the degree:
# then n^(1-2eps) > M^2 forces 4n > M + 1, so it has no partial side.
_INPUTS = _poly_inputs(70, 20)
_KINDS = {
    "three-circles": (_INPUTS, ["--eps", "1/4", "--explore"], 5, 20),
    "general-p": (_INPUTS, ["--P", "3/2", "--eps", "1/4", "--explore"], 5, 40),
    "no-error": (_poly_inputs(4, 3), ["--eps", "0", "--degree", "4"], None, 17),
    "ratio-125": (_INPUTS, ["--delta", "1/8"], 3, 20),
    "aspect": (_INPUTS, ["--p", "3", "--P", "2", "--eps", "1/4", "--derive-alpha"], 2, 15),
}
_SIDES = ["partial", "complete"]


@pytest.mark.parametrize("kind, source, side", [
    pytest.param(kind, source, side, id=f"{kind}-{source}-{_SIDES[side]}")
    for kind in sorted(_KINDS) for source in sorted(_INPUTS) for side in (0, 1)
    if _KINDS[kind][2 + side] is not None
])
def test_check_reads_q_from_growth_polynomial(capsys, monkeypatch, kind, source, side):
    """A check on a polynomial prints what its checker gives on the walk route's report."""
    inputs, options, *ns = _KINDS[kind]
    built = []

    def spy(P, n_max):
        built.append(growth_polynomial(P, n_max))
        return built[-1]

    def via_report(P, n_max):
        return growth_report(evaluate_on_ball(P, n_max))  # the walk route on B_n_max

    for fmt in ("json", "csv"):
        argv = ["check", kind, *inputs[source], "--n", str(ns[side]), *options, "--format", fmt]
        monkeypatch.setattr(cli, "growth_polynomial", spy)
        got = run(capsys, *argv)
        monkeypatch.setattr(cli, "growth_polynomial", via_report)
        assert got == run(capsys, *argv)
        assert got[0] in (0, 1) and got[2] == ""
    assert [g.n_max is None for g in built] == [bool(side)] * 2


def test_check_large_n_builds_no_report(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a check must not build a table of Q")

    growth_triangle = growth._difference_triangle

    def differences_on_b7_only(values):
        # the walk route of growth_polynomial(S_6) reads B_7, so 8 values
        return growth_triangle(values) if len(values) <= 8 else refuse()

    monkeypatch.setattr(GrowthPolynomial, "to_json", refuse)
    monkeypatch.setattr(growth, "_difference_triangle", differences_on_b7_only)
    code, out, err = run(
        capsys, "check", "three-circles", "--family", "S", "--k", "6", "--n", "4000",
        "--eps", "1/4",
    )
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["status"] == "holds" and obj["hypothesis_met"] is True
    assert parse_rational(obj["lhs"]) == growth_polynomial(harmlat.sk_polynomial(6)).Q(8000)


# -- the parser's help and usage-error bytes ---------------------------------------

_LEAVES = [
    "growth",
    *(f"check {kind}" for kind in
      ("three-circles", "general-p", "no-error", "ratio-125", "aspect", "continuous", "binomial")),
    "search counterexample",
    "conjecture scan",
]

PARSER_CASES = [
    "",
    "-h",
    "--version",
    "--bogus",
    "bogus",
    "check",
    "check bogus",
    "search",
    "conjecture",
    "growth check",
    "growth --family S --k 3 --n-max 4 check",
    "check three-circles --family S --k 3 --n 2 --eps 1/4 --bogus",
    "search counterexample --C 1",
    "check aspect --family S --k 3 --n 2 --p 3 --P 2 --eps 1/4",
    "check --help",
    "search --help",
    "conjecture --help",
    *(f"{leaf} --help" for leaf in _LEAVES),
]

# sha256 of json.dumps([exit code, stdout, stderr]) per (COLUMNS, case), taken
# when every parser was built whole; argparse's layout is that of Python 3.11
PARSER_DIGESTS = {
    (100, ''):
        'c1749acf0692fa6118ca1d07592ca4dcd21ddd1446506ce031ca2d0cde12911d',
    (100, '-h'):
        '09c57395eb94f191d19b1c4899094b27bc448afebdcb642732ecffebb6722315',
    (100, '--version'):
        '87004a5c986b3bc96252ace051c7992dcc91eef730038edbf546f537005b7552',
    (100, '--bogus'):
        'c1749acf0692fa6118ca1d07592ca4dcd21ddd1446506ce031ca2d0cde12911d',
    (100, 'bogus'):
        '3c468afa30ddbc8abb1fb7f514a58a8d3603040dba23cf1a4a96b2897cde5292',
    (100, 'check'):
        '93e8d2419cc4a6730ae0ac9f39c0f6e4dbc03879acdce405052b7df9899b9e26',
    (100, 'check bogus'):
        'e3fa84130b5517840c6c11c55edab0092cf1cb3f5a07fbefcfaa583254f53f65',
    (100, 'search'):
        'e2f0ff7c7f75d7e817324cd90a80c1c4419a051ccc6955d508cca40ddfe5a8ae',
    (100, 'conjecture'):
        '5a9d1a79a386657652727585f75fb37b4f68d45fb25967ba8a0d5c2fb29242dd',
    (100, 'growth check'):
        '63b8178934271e9e514c65283d537689b9f99275cbee67787b7e8bb0dec48241',
    (100, 'growth --family S --k 3 --n-max 4 check'):
        '0966f61079ae7c2a240e958db4146ddd080dc81825ba7fb0d5052d785a95c948',
    (100, 'check three-circles --family S --k 3 --n 2 --eps 1/4 --bogus'):
        '42d91877ce4d5376f1cd8a772133de96c52089718772629fe4466cbff6116e60',
    (100, 'search counterexample --C 1'):
        '64b6dca187efe7aa88e242a02f8e15898141591ee3a6ac74facd742b7524d6b6',
    (100, 'check aspect --family S --k 3 --n 2 --p 3 --P 2 --eps 1/4'):
        '73a9e1204081ae80bfbbf9fb763b49e0b7d708f73b4ef4c09480517d304e1d2d',
    (100, 'check --help'):
        'af38d0a881673df3ae89769241d0b885ddb5531a92f61279b06caf550d1cc9e3',
    (100, 'search --help'):
        'fc1683593cd6d0d2078e8bb0c46996d97651a899417d6cceaf097edaf81d1d4c',
    (100, 'conjecture --help'):
        'f57e945210d24f65e3b8fb55c73bb5f3b474f2a1233739251c9a6d808e3b752e',
    (100, 'growth --help'):
        '87a4f255c7a2d1250d4c022bc5a3369a2d005faed32d4bee5f11ac28301a4c75',
    (100, 'check three-circles --help'):
        '84b2a3bbfa15e824e0ad2858ad1e47cc2007436a1bcf5bfa7a540ca9ecd75938',
    (100, 'check general-p --help'):
        'ce78aeb50daabe1cc0f7025292b12a217519c5655bcd8fbd1ded4f5a69288a1e',
    (100, 'check no-error --help'):
        '025d0b729606069b99d4a4f67023e78ab508c188a7c4782b9e41e842e49a0ffa',
    (100, 'check ratio-125 --help'):
        'fa7cc57a8e13d8225926b9df1b4f1aff457231c6c7d118952224953ca2b09fed',
    (100, 'check aspect --help'):
        '54725ef0185252f452bee24ad0dbbfb58046e13db2070813408e06c4e73a1992',
    (100, 'check continuous --help'):
        '9b2e2d1b0ec5ec63f6fd0808066eda160ed84031cc050b0911d275f4f4425050',
    (100, 'check binomial --help'):
        'da5615313affb0ef58713691364aa7d80722f80aa1e45de68b0a8233f0ad1bbb',
    (100, 'search counterexample --help'):
        'eb155ff5365e65a549daccf160c3ae80ccdbd4cc291e74b647940a36fceaa0cc',
    (100, 'conjecture scan --help'):
        '4d3dadbf630c2029d493e74cd585a8e90e41127d3bd867a57764a1e126d8c975',
    (40, ''):
        'd97510dbd91b47e895bf930268100f3e778d7c7a72c889cb2ad591f86ae444e6',
    (40, '-h'):
        '37c6f74bb16aac7dc1155bb47e027cce4a34be80c3c92bb5bda54538de0d7732',
    (40, '--version'):
        '87004a5c986b3bc96252ace051c7992dcc91eef730038edbf546f537005b7552',
    (40, '--bogus'):
        'd97510dbd91b47e895bf930268100f3e778d7c7a72c889cb2ad591f86ae444e6',
    (40, 'bogus'):
        '7cf8806d1d3b7ad28a500441e206514eb0125c2bbcaa785ea06e49c6e6307710',
    (40, 'check'):
        '32a2a80bd8fe22fe92d8d40a8a58c0f7545d93b68a2bd7723d04df3ad90b9545',
    (40, 'check bogus'):
        '2d5897c2f8b942015a74fa4556295b74503b2ec81d737c2c0fa2dadabecf1c1d',
    (40, 'search'):
        '1e969cfc745ca64087df3bc4c7bd03f69d372c6f40eb67730c0e441f89f0119e',
    (40, 'conjecture'):
        '5a9d1a79a386657652727585f75fb37b4f68d45fb25967ba8a0d5c2fb29242dd',
    (40, 'growth check'):
        '6c3caf59c74eccebac9e4b1b81a4767f74f6f272a44e4441ea79cc5bf91f3130',
    (40, 'growth --family S --k 3 --n-max 4 check'):
        'bc2f2c483c81b30614de616db11355bacc64c3c878ee1a17c58ddcadd42efc7b',
    (40, 'check three-circles --family S --k 3 --n 2 --eps 1/4 --bogus'):
        '11e4a012d459832e273d009e84d3f2feb56a250f1432d7e966a7ae0cab0ed044',
    (40, 'search counterexample --C 1'):
        'ce5edad8793fa4637c74f1dff688cea0f3ef950b1e85c8eb4da97f287a8d04a5',
    (40, 'check aspect --family S --k 3 --n 2 --p 3 --P 2 --eps 1/4'):
        '9baaa7f9a244cfc06119d94dc885e570fbaadc907001ad7ad05b1d4a9ad501b7',
    (40, 'check --help'):
        'd86a68eaec14cc1986515e7549c9a2153604050561ecf6f9e83f6b7f693f6af8',
    (40, 'search --help'):
        '31eca1c42d4ecd7ab46f780455c97b3fed9922641b95b5de7acb4339a5e532ec',
    (40, 'conjecture --help'):
        '567fc8c2facb686c919719a205dbc82f1d9e0ee0c5f7ea25751fa9b2d1bb5b93',
    (40, 'growth --help'):
        '39385e679d9174ffaeb946e54e15a1fded46e9e5ca0874a853565043e42e9891',
    (40, 'check three-circles --help'):
        '948a5e36259ace7cd3659e425128f99eee707a7e37b145253d65db31d9cdfa09',
    (40, 'check general-p --help'):
        '651b054d54f852a2e31ba4767e08c2614bf80aed887309b7be6ec2363cee2e06',
    (40, 'check no-error --help'):
        '1a81aa49f9e0b2b236c5a51a5aafe1085ff5418f325269f644fc72ddec3bdc52',
    (40, 'check ratio-125 --help'):
        '4fc28f9420d495f2b5fe4ab60026bf457b788de475b6d860aa9ee99a70d5c3d5',
    (40, 'check aspect --help'):
        'be86cdd6d111a8f153829e0a01ee1e3ab60a1a98b67b44cba596acd029d5370c',
    (40, 'check continuous --help'):
        '6875b309133fb29b2cd45eda8b5a38fcf290a2e5ee9b0cf2fd4dd88787011114',
    (40, 'check binomial --help'):
        '7757b83b014eaf71351c84e023a435e12f6ebe43207f154d4de3cc8aa1da53a1',
    (40, 'search counterexample --help'):
        '1cacc15391dd736c73cbcb42147ad0d27c9aead43b392eb742a2a45d63c93ae6',
    (40, 'conjecture scan --help'):
        '0112caf056e9bc2dab22564b23b80e5e845b488c880c834aafae10b517ba31ce',
}


def _parser_digest(capsys, monkeypatch, columns, case):
    monkeypatch.setenv("COLUMNS", str(columns))
    try:
        code = main(case.split())
    except SystemExit as exc:  # --help and --version
        code = exc.code
    out = capsys.readouterr()
    return hashlib.sha256(json.dumps([code, out.out, out.err]).encode()).hexdigest()


@pytest.mark.parametrize("columns", [100, 40])
@pytest.mark.parametrize("case", PARSER_CASES)
def test_parser_help_and_errors_are_pinned(capsys, monkeypatch, columns, case):
    assert _parser_digest(capsys, monkeypatch, columns, case) == PARSER_DIGESTS[columns, case]


def _registered(parser, *path):
    """The subcommand names registered on ``parser`` at the level below ``path``."""
    while True:
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not path:
            return list(sub.choices)
        parser, path = sub.choices[path[0]], path[1:]


def test_parser_registers_only_the_named_branch():
    assert _registered(cli.build_parser()) == ["growth", "check", "search", "conjecture"]
    assert _registered(cli.build_parser(["search", "counterexample"])) == ["search"]
    assert _registered(cli.build_parser(["search", "counterexample"]), "search") == ["counterexample"]
    # no token, an option or an unknown name registers the whole level, and all below it
    for argv in ([], ["-h"], ["--version"], ["bogus", "three-circles"]):
        assert len(_registered(cli.build_parser(argv))) == 4
        assert len(_registered(cli.build_parser(argv), "check")) == 7
    assert _registered(cli.build_parser(["check", "bogus"])) == ["check"]
    assert len(_registered(cli.build_parser(["check", "bogus"]), "check")) == 7


def test_crash_while_building_the_parser_exit_4(capsys, monkeypatch):
    def crash(sp):
        raise RuntimeError("no parser\ntoday")

    monkeypatch.setattr(cli, "_add_io_options", crash)
    code, out, err = run(capsys, "growth", "--family", "S", "--k", "2", "--n-max", "6")
    assert (code, out, err) == (4, "", "error: internal failure: RuntimeError: no parser today\n")


def test_console_script_path_reads_sys_argv(capsys):
    argv = ["search", "counterexample", "--C", "1", "--eps", "1/5", "--k-max", "30", "--n0", "100"]
    code = "import sys; from harmlat.cli import main; sys.exit(main())"
    res = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=_child_env(),
    )
    assert (res.returncode, res.stdout, res.stderr) == (*run(capsys, *argv)[:2], "")
    assert res.returncode == 1
