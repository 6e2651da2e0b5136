"""Command-line front end: ``octopoly solve`` and ``octopoly eigen``.

Both commands parse the algebra parameters and polynomial from flags, run the
corresponding query and print one JSON document on stdout (warnings also go
to stderr).  In exact mode the output is byte-identical across runs for
identical inputs.  Exit codes: 0 success; 2 a bad flag, ``ParseError``,
``ConfigurationError`` (a zero algebra parameter, a negative or non-finite
tolerance), a ``ValueError``/``TypeError`` contract error (e.g. a non-monic
eigen polynomial) or any other ``OctopolyError``; 3
``UnsupportedAlgebraError`` (split algebra) or ``SingularElementError`` (an
element of zero norm was inverted); 4 ``NumericFailureError``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import OctonionAlgebra
from .eigen import lev_test, rev_test
from .errors import (
    NumericFailureError,
    OctopolyError,
    ParseError,
    SingularElementError,
    UnsupportedAlgebraError,
)
from .literals import format_octonion, parse_octonion, parse_polynomial
from .scalars import EXACT, FLOAT, ToleranceSpec
from .solver import FULL_CLASS, SINGLE_ROOT, solve

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERIC = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="octopoly",
        description="Root finding and companion-matrix eigenvalue tests for "
        "polynomials over octonion division algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tol = ToleranceSpec()

    def common(p):
        p.add_argument("--alpha", default="-1", help="i^2 (rational, default -1)")
        p.add_argument("--beta", default="-1", help="j^2 (rational, default -1)")
        p.add_argument("--gamma", default="-1", help="l^2 (rational, default -1)")
        p.add_argument(
            "--mode", choices=[EXACT, FLOAT], default=EXACT, help="scalar backend"
        )
        p.add_argument("--abs-eps", type=float, default=tol.abs_eps)
        p.add_argument("--rel-eps", type=float, default=tol.rel_eps)
        p.add_argument("--poly", required=True, help="polynomial literal, e.g. 'i*z^2 + j*z + l'")
        style = p.add_mutually_exclusive_group()
        style.add_argument("--json", action="store_true", help="compact JSON (default)")
        style.add_argument("--pretty", action="store_true", help="indented JSON")

    p_solve = sub.add_parser("solve", help="find all roots of a standard polynomial")
    common(p_solve)

    p_eigen = sub.add_parser(
        "eigen", help="test one element for eigenvalue membership"
    )
    common(p_eigen)
    p_eigen.add_argument("--lambda", dest="lam", required=True, help="octonion literal")
    p_eigen.add_argument("--side", choices=["left", "right"], default="left")
    return parser


def _algebra_from_args(args):
    spec = ToleranceSpec(abs_eps=args.abs_eps, rel_eps=args.rel_eps)
    try:
        alpha = Fraction(args.alpha)
        beta = Fraction(args.beta)
        gamma = Fraction(args.gamma)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad algebra parameter: %s" % exc)
    return OctonionAlgebra(alpha, beta, gamma, mode=args.mode, tolerance=spec)


def _coords(x):
    return [x.algebra.backend.format(c) for c in x.coords]


def _algebra_json(alg):
    data = {
        "alpha": alg.backend.format(alg.alpha),
        "beta": alg.backend.format(alg.beta),
        "gamma": alg.backend.format(alg.gamma),
        "mode": alg.mode,
        "division": alg.division_check().status,
    }
    if alg.mode == FLOAT:
        data["abs_eps"] = alg.tol.abs_eps
        data["rel_eps"] = alg.tol.rel_eps
    return data


def _dump(doc, args):
    if args.pretty:
        print(json.dumps(doc, indent=2))
    else:
        print(json.dumps(doc))


def _cmd_solve(args):
    alg = _algebra_from_args(args)
    phi = parse_polynomial(args.poly, alg)
    if phi.degree < 1:
        raise ParseError("solve needs a polynomial of degree >= 1")
    report = solve(phi)
    classes = []
    for cand, res in report.classes:
        entry = {
            "trace": alg.backend.format(cand.trace),
            "norm": alg.backend.format(cand.norm),
            "field_degree": cand.field_degree,
            "multiplicity": cand.multiplicity,
            "resolution": res.status,
        }
        if res.status == SINGLE_ROOT:
            entry["root"] = _coords(res.root)
        elif res.status == FULL_CLASS:
            entry["witness"] = _coords(res.witness)
        if res.reason:
            entry["reason"] = res.reason
        classes.append(entry)
    doc = {
        "algebra": _algebra_json(alg),
        "polynomial": {
            "side": "left",  # coefficients are always on the left
            "coefficients": [_coords(c) for c in phi.coeffs],
        },
        "companion": [alg.backend.format(b) for b in report.companion.coeffs],
        "classes": classes,
        "warnings": list(report.warnings),
    }
    for w in report.warnings:
        print("warning: %s" % w, file=sys.stderr)
    _dump(doc, args)
    return EXIT_OK


def _cmd_eigen(args):
    alg = _algebra_from_args(args)
    phi = parse_polynomial(args.poly, alg)
    lam = parse_octonion(args.lam, alg)
    test = lev_test if args.side == "left" else rev_test
    report = test(phi, lam)
    trace, norm = lam.invariants()
    doc = {
        "member": report.member,
        "kernel_element": (
            format_octonion(report.kernel_element) if report.member else None
        ),
        "eigenvector": (
            [format_octonion(v) for v in report.eigenvector]
            if report.member
            else None
        ),
        "class": {
            "trace": alg.backend.format(trace),
            "norm": alg.backend.format(norm),
        },
    }
    _dump(doc, args)
    return EXIT_OK


_VALUE_FLAGS = ("--lambda", "--poly", "--alpha", "--beta", "--gamma")


def _merge_value_flags(argv):
    """Turn ``--lambda -j`` into ``--lambda=-j`` so literals may start with
    a minus sign without argparse mistaking them for flags."""
    out = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        if tok in _VALUE_FLAGS and k + 1 < len(argv):
            out.append("%s=%s" % (tok, argv[k + 1]))
            k += 2
        else:
            out.append(tok)
            k += 1
    return out


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_value_flags(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the parse-error code
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_eigen(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (UnsupportedAlgebraError, SingularElementError) as exc:
        print("unsupported algebra: %s" % exc, file=sys.stderr)
        return EXIT_UNSUPPORTED
    except NumericFailureError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except (OctopolyError, ValueError, TypeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


def console_entry():
    raise SystemExit(main())
