"""Literal parsing, formatting round-trips, and the CLI surface."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from octopoly import (
    SPLIT,
    ConfigurationError,
    OctonionAlgebra,
    ParseError,
    StandardPolynomial,
    format_octonion,
    format_polynomial,
    parse_octonion,
    parse_polynomial,
    verify_root,
)
from octopoly.cli import main
from conftest import rand_octonion

F = Fraction


def test_parse_octonion_golden(alg):
    x = parse_octonion("1/2 + 1/2*k + 1/2*il + 1/2*jl", alg)
    assert x.coords == (F(1, 2), 0, 0, F(1, 2), 0, F(1, 2), F(1, 2), 0)
    assert parse_octonion("i", alg) == alg.basis_element(1)
    assert parse_octonion("-j", alg) == -alg.basis_element(2)
    assert parse_octonion("3 - 2*kl", alg) == alg.octonion([3, 0, 0, 0, 0, 0, 0, -2])
    with pytest.raises(ParseError):
        parse_octonion("2*m", alg)
    with pytest.raises(ParseError):
        parse_octonion("", alg)
    # decimals only in float mode
    with pytest.raises(ParseError):
        parse_octonion("0.5 + i", alg)
    xf = parse_octonion("0.5 + i", OctonionAlgebra(-1, -1, -1, mode="float"))
    assert xf.coords[0] == 0.5
    # a malformed number is a ParseError at its offset in both modes
    for a in (alg, OctonionAlgebra(-1, -1, -1, mode="float")):
        with pytest.raises(ParseError, match=r"^zero denominator \(at position 4\)$"):
            parse_octonion("i - 1/0*j", a)
        with pytest.raises(ParseError, match=r"^a number of 5000 digits .* \(at position 2\)$"):
            parse_octonion("i+1/" + "7" * 5000, a)


def test_parse_roundtrip(alg, rng):
    for _ in range(200):
        x = rand_octonion(rng, alg, -9, 9, max_den=7)
        assert parse_octonion(format_octonion(x), alg) == x


def test_parse_roundtrip_float(alg_float, rng):
    for _ in range(100):
        x = rand_octonion(rng, alg_float, -5, 5)
        assert parse_octonion(format_octonion(x), alg_float) == x


def test_parse_polynomial_golden(alg):
    p = parse_polynomial("i*z^2 + j*z + l", alg)
    assert p.coeffs == (
        alg.basis_element(4),
        alg.basis_element(2),
        alg.basis_element(1),
    )
    p2 = parse_polynomial("z^2 + i*z + (1 + k)", alg)
    assert p2.coeffs == (
        alg.one + alg.basis_element(3),
        alg.basis_element(1),
        alg.one,
    )
    p3 = parse_polynomial("z + z", alg)
    assert p3.coeffs == (alg.zero, alg.scalar_octonion(2))
    p4 = parse_polynomial("1/2*k*z^3 - z", alg)
    assert p4.degree == 3
    assert p4.coeffs[3] == alg.octonion([0, 0, 0, F(1, 2), 0, 0, 0, 0])
    assert p4.coeffs[1] == -alg.one


def test_parse_polynomial_errors(alg):
    with pytest.raises(ParseError):
        parse_polynomial("", alg)
    with pytest.raises(ParseError):
        parse_polynomial("z - z", alg)  # sums to zero
    with pytest.raises(ParseError):
        parse_polynomial("z^17 + 1", alg)  # degree cap
    with pytest.raises(ParseError):
        parse_polynomial("z^2 +", alg)
    with pytest.raises(ParseError):
        parse_polynomial("q*z", alg)
    # malformed numbers: a zero denominator, and digit strings longer than
    # int() converts (4300 digits by default)
    for text, message in [
        ("1/0", "zero denominator (at position 0)"),
        ("z^2 + 3/0*z", "zero denominator (at position 6)"),
        ("z^" + "9" * 5000 + " + 1", "degree of 5000 digits exceeds the maximum 16 (at position 2)"),
        ("9" * 5000 + "*z + 1", "a number of 5000 digits is too long to convert (at position 0)"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, alg)
        assert str(info.value) == message


# (literal, message, offset) of malformed polynomial literals, the same in
# both modes; the message and offset are part of the interface
MALFORMED = [
    ("z^", "expected a nonnegative integer exponent", 2),
    ("z^-1", "expected a nonnegative integer exponent", 2),
    ("(1+i", "expected ')'", 4),
    ("2*3", "expected 'z' after '*'", 1),
    ("i*j", "expected 'z' after '*'", 1),
    ("1/2/3", "unexpected character '/'", 3),
    ("+", "expected a coefficient or basis symbol", 1),
    ("z z", "expected '+' or '-' between terms", 2),
    ("()", "empty octonion literal", 1),
    ("z^1.5", "expected a nonnegative integer exponent", 2),
    ("3*z*z", "expected '+' or '-' between terms", 3),
    ("(i)(j)", "expected '+' or '-' between terms", 3),
    ("", "empty polynomial", 0),
    ("2*m", "unknown basis symbol 'm'", 2),
    ("z^2 +", "expected a coefficient or basis symbol", 5),
    ("1/2*", "expected 'z' after '*'", 3),
    ("z*i", "expected '+' or '-' between terms", 1),
    ("(i)*z^", "expected a nonnegative integer exponent", 6),
    ("2*z^+3", "expected a nonnegative integer exponent", 4),
    ("i @ z", "unexpected character '@'", 2),
]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("text, message, pos", MALFORMED)
def test_malformed_polynomial_message_and_offset(text, message, pos, mode):
    alg = OctonionAlgebra(-1, -1, -1, mode=mode)
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, alg)
    assert str(info.value) == "%s (at position %d)" % (message, pos)
    assert info.value.pos == pos


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_malformed_literal_messages_without_offset(mode):
    # whole-literal errors carry no offset; 1e999 is a decimal in exact mode
    # and out of range in float mode
    alg = OctonionAlgebra(-1, -1, -1, mode=mode)
    for text, message in [
        ("z^17 + 1", "degree 17 exceeds the maximum 16"),
        ("z - z", "the zero polynomial is not a valid StandardPolynomial"),
        ("(1 - 1 + 0*i)*z", "the zero polynomial is not a valid StandardPolynomial"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, alg)
        assert str(info.value) == message and info.value.pos is None
    if mode == "exact":
        for text in ("1e999*z+1", ".5*z+1"):
            with pytest.raises(ParseError) as info:
                parse_polynomial(text, alg)
            assert str(info.value) == "decimal coefficients need float mode (at position 0)"
    else:
        # a literal, or a sum of finite literals, beyond float64
        for text in ("1e999*z+1", "z + 1e308 + 1e308", "(1e308*i + 1e308*i)*z"):
            with pytest.raises(ConfigurationError) as info:
                parse_polynomial(text, alg)
            assert str(info.value) == "scalar inf is not a finite float64"
        with pytest.raises(ConfigurationError) as info:
            parse_octonion("-1e308 - 1e308", alg)
        assert str(info.value) == "scalar -inf is not a finite float64"
        assert parse_polynomial(".5*z+1", alg).coeffs[1].coords[0] == 0.5


def _rand_coeff(rng, alg):
    # zero, unit, negative and p/q coordinates, or floats of any magnitude
    # (formatted with 17 significant digits)
    coords = [0] * 8
    for idx in rng.sample(range(8), rng.randint(0, 8)):
        if alg.mode == "float":
            coords[idx] = rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20)
        else:
            coords[idx] = F(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 7, 12]))
    return alg.octonion(coords)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_parse_polynomial_roundtrip(mode, rng):
    alg = OctonionAlgebra(-1, -1, -1, mode=mode)
    for _ in range(150):
        degree = rng.randint(0, 16)
        coeffs = [_rand_coeff(rng, alg) for _ in range(degree)]
        lead = alg.zero
        while lead.is_exactly_zero():
            lead = _rand_coeff(rng, alg)
        phi = StandardPolynomial(alg, coeffs + [lead])
        assert parse_polynomial(format_polynomial(phi), alg) == phi


def test_cli_solve_golden(capsys):
    rc = main(["solve", "--poly", "i*z^2 + j*z + l"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert list(doc.keys()) == [
        "algebra",
        "polynomial",
        "companion",
        "classes",
        "warnings",
    ]
    assert doc["companion"] == ["1", "0", "1", "0", "1"]
    assert [c["resolution"] for c in doc["classes"]] == ["single_root", "single_root"]
    assert doc["classes"][0]["trace"] == "1"
    assert doc["classes"][0]["root"] == ["1/2", "0", "0", "1/2", "0", "1/2", "1/2", "0"]
    assert doc["classes"][1]["trace"] == "-1"
    assert doc["warnings"] == []


def test_cli_solve_full_class(capsys):
    rc = main(["solve", "--poly", "z^2 + 1"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    cls = doc["classes"]
    assert len(cls) == 1
    assert cls[0]["resolution"] == "full_class"
    assert cls[0]["witness"] == ["0", "1", "0", "0", "0", "0", "0", "0"]
    assert cls[0]["multiplicity"] == 2


def test_cli_deterministic_output(capsys):
    args = ["solve", "--poly", "z^2 + i*z + (1 + k)"]
    rc = main(args)
    first = capsys.readouterr().out
    rc2 = main(args)
    second = capsys.readouterr().out
    assert rc == rc2 == 0
    assert first == second


def test_cli_eigen_golden(capsys):
    rc = main(
        ["eigen", "--poly", "z^2 + i*z + (1+k)", "--lambda", "j", "--side", "left"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert list(doc.keys()) == ["member", "kernel_element", "eigenvector", "class"]
    assert doc["member"] is True
    assert doc["kernel_element"] == "l"
    assert doc["class"] == {"trace": "0", "norm": "1"}
    rc = main(
        ["eigen", "--poly", "z^2 + i*z + (1+k)", "--lambda", "-j", "--side", "right"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["member"] is True and doc["kernel_element"] == "1"
    for side in ("left", "right"):
        rc = main(
            ["eigen", "--poly", "z^2 + i*z + (1+k)", "--lambda", "1", "--side", side]
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["member"] is False and doc["kernel_element"] is None


def test_cli_exit_codes(capsys):
    assert main(["solve", "--gamma", "1", "--poly", "z + i"]) == 3
    assert main(["solve", "--poly", "2*m"]) == 2
    assert main(["solve", "--poly", "5"]) == 2  # constant polynomial
    assert main(["eigen", "--poly", "2*z^2 + 1", "--lambda", "j"]) == 2  # non-monic
    err = capsys.readouterr().err
    assert "monic" in err


def test_indefinite_algebra_is_split(capsys):
    # one positive parameter makes the norm form indefinite, hence split by
    # Hasse-Minkowski, even when the witness search finds none:
    # 10 + i + l is isotropic here but has unequal coordinates
    A = OctonionAlgebra(-1, -1, 101)
    check = A.division_check()
    assert check.status == SPLIT and check.witness is None
    assert A.parse("10 + i + l").norm() == 0
    assert main(["solve", "--gamma", "101", "--poly", "z + i"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "indefinite" in captured.err


def test_cli_float_double_roots_resolve(capsys):
    # Phi = phi^2 has only double roots, found to about half the precision;
    # each pair of approximations is one inclusion-disc cluster whose centre
    # is refined on Phi', so the complex class of z^3 - 2 is a full class
    # and its real class the real cube root of 2
    assert main(["solve", "--mode", "float", "--poly", "z^3 - 2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    by_degree = {c["field_degree"]: c for c in doc["classes"]}
    assert sorted(by_degree) == [1, 2] and len(doc["classes"]) == 2
    assert all(c["multiplicity"] == 2 for c in doc["classes"])
    assert by_degree[1]["resolution"] == "single_root"
    assert float(by_degree[1]["root"][0]) == pytest.approx(2 ** (1 / 3), rel=1e-14)
    assert by_degree[2]["resolution"] == "full_class"
    A = OctonionAlgebra(-1, -1, -1, mode="float")
    witness = A.octonion([float(x) for x in by_degree[2]["witness"]])
    assert verify_root(parse_polynomial("z^3 - 2", A), witness)
    assert doc["warnings"] == []


# a planted monic degree-8 polynomial over (-1,-1,-1) with coordinates in
# [-2, 2]: Norm(c_0) ~ 8e9 dwarfs the companion's leading 1
_FLOAT8 = " + ".join([
    "z^8",
    "(1.2 + 0.4*i + 1.6*j + 0.2*k + 1.4*l + 1.7*il + 0.6*jl + 1.7*kl)*z^7",
    "(-1.2 + 1.1*i - 0.7*j - 0.4*k + 0.7*l + 2*il - 0.1*jl + 0.6*kl)*z^6",
    "(0.7 + 0.5*i + 1.6*j + 0.8*k - 1.2*l + 0.3*il - 1.4*jl - 1.8*kl)*z^5",
    "(1.7 - 1.8*i - 0.1*j - 1.9*k - 0.3*l + il + 1.8*jl + 0.4*kl)*z^4",
    "(-0.6 + 2*i - 1.1*j + 1.3*k + 0.4*l - 2*il - 1.6*jl - kl)*z^3",
    "(-0.8 + i + 1.4*j + 1.5*k + l + 0.5*il + 2*jl - 1.1*kl)*z^2",
    "(1.7 - 1.6*i + 1.8*j - 2*k + l - 0.4*il + 1.5*jl - 0.6*kl)*z",
    "(-64279.40380429 - 13811.78405525*i - 23315.17144752*j + 10588.29506131*k"
    " - 16486.68137421*l - 32541.29336845*il - 30581.22384191*jl - 32406.36355427*kl)",
])


def test_cli_float_small_leading_coefficient_finds_planted_root(capsys):
    # a leading coefficient small against the others is no failure: the
    # planted root is among the verified single roots
    assert main(["solve", "--mode", "float", "--poly", _FLOAT8]) == 0
    doc = json.loads(capsys.readouterr().out)
    planted = [-0.5, 1.7, 1.4, -1.2, 0.3, 1.8, 1.0, 2.0]
    roots = [[float(x) for x in c["root"]] for c in doc["classes"] if "root" in c]
    assert any(max(abs(a - b) for a, b in zip(r, planted)) < 1e-9 for r in roots)
    assert doc["warnings"] == []


def test_cli_configuration_errors_exit_2(capsys):
    # a zero algebra parameter and a negative tolerance are configuration
    # errors: documented exit 2, no traceback and no negative residual bound
    assert main(["solve", "--alpha", "0", "--poly", "z^2 + 1"]) == 2
    assert main(["solve", "--mode", "float", "--abs-eps", "-1", "--poly", "z^2 + 1"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--alpha", "1e400", "--poly", "z + 1"],
        ["solve", "--poly", "z + " + "9" * 400],
        ["solve", "--poly", "z + 1e308 + 1e308"],
        ["eigen", "--poly", "z^2 + 1", "--lambda", "1e308 + 1e308"],
    ],
    ids=["parameter", "coefficient", "coefficient-sum", "lambda-sum"],
)
def test_cli_float_overflow_exits_2(argv, capsys):
    # a rational too large for float64, or a sum of literals that
    # overflows, is a configuration error, one line
    assert main(argv + ["--mode", "float"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not a finite float64" in captured.err


@pytest.mark.parametrize(
    "argv, scalar",
    [
        (["--poly", "1e-400*z^2 + z + 1"], "1e-400"),
        (["--poly", "1/1" + "0" * 400 + "*z^2 + z + 1"], "1/1" + "0" * 34 + "..."),
        (["--alpha", "1e-400", "--poly", "z + 1"], "1/1" + "0" * 34 + "..."),
    ],
    ids=["decimal", "ratio", "parameter"],
)
def test_cli_float_underflow_exits_2(argv, scalar, capsys):
    # a nonzero literal or parameter that rounds to 0.0 would drop its term
    # or zero the parameter; a literal zero, in any script's digits, stays valid
    assert main(["solve", "--mode", "float"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scalar %s underflows to 0 in float64\n" % scalar
    zeros = "0.0*z^2 + 0e-400*z^2 + \u0660.\u0660e-400*z^2 + \u0660*z^2 + 0/7*z + z + 1"
    assert main(["solve", "--mode", "float", "--poly", zeros]) == 0
    assert len(json.loads(capsys.readouterr().out)["polynomial"]["coefficients"]) == 2


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--poly", "1/0*z + 1"],
        ["eigen", "--poly", "z^2 + 1", "--lambda", "1/0"],
        ["solve", "--poly", "z^" + "9" * 5000 + " + 1"],
    ],
    ids=["coefficient", "lambda", "exponent"],
)
def test_cli_malformed_number_exits_2(argv, mode, capsys):
    # a zero denominator or an exponent too long for int() is a parse error
    # on one line, not a traceback
    assert main(argv + ["--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "poly, what",
    [
        ("1e-300*z + 1", "underflow"),
        ("z^2 + 1e300", "overflow"),
        ("z^2 + 1e160*z + 1", "overflow"),
        ("1e-170*z^2 + 1", "underflow"),
        ("1e-160*z + 1", "overflow"),
    ],
)
def test_cli_float_range_loss_exits_4(poly, what, capsys):
    # a companion coefficient or class invariant outside float64, or a
    # leading norm that underflows to 0, is a numeric failure named as such
    assert main(["solve", "--mode", "float", "--poly", poly]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: float64 %s" % what)
    assert captured.err.count("\n") == 1


def test_cli_default_tolerance_in_float_json(capsys):
    assert main(["solve", "--mode", "float", "--poly", "z + 1"]) == 0
    out = capsys.readouterr().out
    assert '"abs_eps": 1e-10, "rel_eps": 1e-09' in out


def test_cli_import_skips_dataclasses():
    # start-up cost: dataclasses and the modules it pulls in (inspect, ast,
    # dis, tokenize) take about a third of the CLI's import time
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "random")
    code = "import sys, octopoly.cli; print(*[m for m in %r if m in sys.modules])" % (heavy,)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def test_cli_golden_query_never_imports_random():
    # the companion z^4 + z^2 + 1 of the README query splits into two
    # quadratics mod 5; the exact factor search separates them by shifts.
    # The flags are read without argparse, whose import, with gettext, and
    # help formatter, which imports shutil, cost more than the package's own
    # modules
    code = (
        "import sys, octopoly.cli; rc = octopoly.cli.main(%r); "
        "print(rc, *[m in sys.modules for m in ('random', 'argparse', 'shutil', 'gettext')], "
        "file=sys.stderr)"
        % (["solve", "--poly", "i*z^2 + j*z + l"],)
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr.split() == ["0", "False", "False", "False", "False"]


def test_cli_float_mode(capsys):
    rc = main(
        [
            "solve",
            "--mode",
            "float",
            "--poly",
            "i*z^2 + j*z + l",
            "--abs-eps",
            "1e-9",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["algebra"]["mode"] == "float"
    assert doc["algebra"]["abs_eps"] == 1e-9
    roots = [c["root"] for c in doc["classes"] if "root" in c]
    assert len(roots) == 2
    assert abs(float(roots[0][0]) - 0.5) < 1e-9


_CUBIC = "z^3 + i*z^2 + (2 - k)*z + (5 - 2*i + j + k - il + 3*jl - 2*kl)"


def test_cli_rootless_polynomial_reports_honestly(capsys):
    # the companion polynomial is irreducible of degree 6: no classes, and the
    # discard is explained in the warnings
    rc = main(["solve", "--poly", "z^3 + i*z^2 + (2 - jl)*z + (1 + k)"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["classes"] == []
    assert any("degree > 2" in w for w in doc["warnings"])


def test_cli_roots_reverify(alg, capsys):
    rc = main(["solve", "--poly", _CUBIC])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    phi = parse_polynomial(_CUBIC, alg)
    seen = 0
    for entry in doc["classes"]:
        if "root" in entry:
            root = alg.octonion([F(c) for c in entry["root"]])
            assert verify_root(phi, root)
            # the printed literal form re-parses to the same element
            assert parse_octonion(format_octonion(root), alg) == root
            seen += 1
    assert seen >= 1


def test_cli_pretty_flag(capsys):
    rc = main(["solve", "--poly", "z^2 + 1", "--pretty"])
    out = capsys.readouterr().out
    assert rc == 0 and out.startswith("{\n")
    json.loads(out)


# every flag of each command, as its help text must name it
_FLAGS = ["--alpha", "--beta", "--gamma", "--mode", "--abs-eps", "--rel-eps", "--poly", "--json", "--pretty"]
_COMMAND_FLAGS = {"solve": _FLAGS, "eigen": _FLAGS + ["--lambda", "--side"]}


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["factor", "--poly", "z + 1"],
        ["solve", "--poly", "z + 1", "--bogus", "1"],
        ["solve", "--poly"],
        ["solve", "--poly", "z + 1", "--mode"],
        ["solve"],
        ["solve", "--mode", "float"],
        ["eigen", "--poly", "z^2 + 1"],
        ["solve", "--poly", "z + 1", "--lambda", "i"],
        ["solve", "--poly", "z + 1", "--side", "left"],
        ["solve", "--poly", "z + 1", "--mode", "fast"],
        ["eigen", "--poly", "z^2 + 1", "--lambda", "i", "--side", "up"],
        ["solve", "--poly", "z + 1", "--abs-eps", "tiny"],
        ["solve", "--poly", "z + 1", "--rel-eps="],
        ["solve", "--poly", "z + 1", "--json", "--pretty"],
        ["solve", "--poly", "z + 1", "--json=yes"],
        ["solve", "--poly", "z + 1", "extra"],
        ["--poly", "z + 1", "solve"],
        ["solve", "--pol", "z + 1"],
    ],
    ids=[
        "no-command", "unknown-command", "unknown-flag", "no-value", "no-value-last",
        "no-poly", "no-poly-with-flags", "no-lambda", "lambda-on-solve", "side-on-solve",
        "bad-mode", "bad-side", "bad-abs-eps", "empty-rel-eps", "json-and-pretty",
        "value-on-switch", "positional", "flag-before-command", "abbreviation",
    ],
)
def test_cli_usage_errors_exit_2(argv, capsys):
    # a usage error is a usage line and an error line on stderr, nothing on
    # stdout, and exit 2; flags are spelled in full (argparse took prefixes)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: octopoly ") and error.startswith("octopoly: error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["solve", "-h"], ["eigen", "--help"],
                                  ["solve", "--poly", "z + 1", "--help"]])
def test_cli_help_exits_0(argv, capsys):
    # help goes to stdout and names both commands, or every flag the command takes
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: octopoly") and captured.err == ""
    command = next((a for a in argv if a in _COMMAND_FLAGS), None)
    names = _COMMAND_FLAGS[command] if command else list(_COMMAND_FLAGS)
    assert all(name in captured.out for name in names)
    if command == "solve":
        assert "--lambda" not in captured.out


def test_cli_leading_minus_values_in_both_forms(capsys):
    # a value that starts with '-' is taken verbatim after its flag, as in
    # the '--flag=value' form
    runs = [
        ["eigen", "--poly", "z^2 + 1", "--lambda", "-j", "--alpha", "-2", "--side", "right"],
        ["eigen", "--poly=z^2 + 1", "--lambda=-j", "--alpha=-2", "--side=right"],
        ["solve", "--poly", "-z^2 - 1", "--beta", "-3"],
        ["solve", "--poly=-z^2 - 1", "--beta=-3"],
    ]
    outs = []
    for argv in runs:
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[2] == outs[3]
    assert json.loads(outs[0])["member"] is True
    assert json.loads(outs[2])["polynomial"]["coefficients"][2][0] == "-1"


def test_cli_leading_norm_underflow_message(capsys):
    # solve refuses a leading norm lost to underflow with this whole message
    assert main(["solve", "--mode", "float", "--poly", "1e-170*z^2 + 1"]) == 4
    assert capsys.readouterr().err == (
        "numeric failure: float64 underflow: the norm of the leading coefficient "
        "is 0, so the companion polynomial has degree 2 < 4\n"
    )
