"""Command-line front end: ``octopoly solve`` and ``octopoly eigen``.

Both commands parse the algebra parameters and polynomial from flags, run the
corresponding query and print one JSON document on stdout (warnings also go
to stderr).  In exact mode the output is byte-identical across runs for
identical inputs.  One loop reads the flags against the table ``FLAGS``
(argparse took longer to start than the package's own modules), which also
drives their checks and the help text.  A flag is spelled in full, as
``--flag value`` or ``--flag=value``; its value is taken verbatim, so a
literal may start with a minus sign.  Exit codes are those of ``_FAILURES``:
0 success (also ``-h``/``--help``); 2 a usage error (a usage and an error
line on stderr), ``ParseError``, ``ConfigurationError`` (a zero algebra
parameter, a negative or non-finite tolerance), a ``ValueError`` or
``TypeError`` contract error (e.g. a non-monic eigen polynomial) or any
other ``OctopolyError``; 3 ``UnsupportedAlgebraError`` (split algebra) or
``SingularElementError`` (an element of zero norm was inverted); 4
``NumericFailureError``.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from fractions import Fraction

from .algebra import OctonionAlgebra
from .eigen import lev_test, rev_test
from .errors import (NumericFailureError, OctopolyError, ParseError, SingularElementError,
                     UnsupportedAlgebraError)
from .literals import format_octonion, parse_octonion, parse_polynomial
from .scalars import EXACT, FLOAT, ToleranceSpec
from .solver import FULL_CLASS, SINGLE_ROOT, solve

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERIC = 4
# (errors, message prefix, exit code) of a failed query, the first match wins
_FAILURES = (
    (ParseError, "parse error", EXIT_PARSE),
    ((UnsupportedAlgebraError, SingularElementError), "unsupported algebra", EXIT_UNSUPPORTED),
    (NumericFailureError, "numeric failure", EXIT_NUMERIC),
    ((OctopolyError, ValueError, TypeError), "error", EXIT_PARSE),
)

COMMANDS = {"solve": "find all roots of a standard polynomial",
            "eigen": "test one element for eigenvalue membership"}
# ``check``: None for any text, a tuple of the allowed values, ``float`` for a
# value that must convert, or ``bool`` for a switch, which takes no value
_Flag = namedtuple("Flag", "name dest default check required commands help")
_BOTH, _TOL = tuple(COMMANDS), ToleranceSpec()
FLAGS = [_Flag(*row) for row in [
    ("--alpha", "alpha", "-1", None, False, _BOTH, "i^2, a nonzero rational"),
    ("--beta", "beta", "-1", None, False, _BOTH, "j^2, a nonzero rational"),
    ("--gamma", "gamma", "-1", None, False, _BOTH, "l^2, a nonzero rational"),
    ("--mode", "mode", EXACT, (EXACT, FLOAT), False, _BOTH, "scalar backend"),
    ("--abs-eps", "abs_eps", _TOL.abs_eps, float, False, _BOTH, "float mode: absolute zero tolerance"),
    ("--rel-eps", "rel_eps", _TOL.rel_eps, float, False, _BOTH, "float mode: relative zero tolerance"),
    ("--poly", "poly", None, None, True, _BOTH, "polynomial literal, e.g. 'i*z^2 + j*z + l'"),
    ("--lambda", "lam", None, None, True, ("eigen",), "octonion literal"),
    ("--side", "side", "left", ("left", "right"), False, ("eigen",), "eigenvalue side"),
    ("--json", "json", False, bool, False, _BOTH, "compact JSON, the default"),
    ("--pretty", "pretty", False, bool, False, _BOTH, "indented JSON, not with --json"),
]]


class _UsageError(Exception):
    """A command line that names no command, or a flag or value it does not take."""


def _usage(command):
    need = ["%s %s" % (f.name, f.name[2:].upper()) for f in FLAGS if f.required and command in f.commands]
    return "usage: octopoly %s [-h] %s" % (command or "{solve,eigen}", " ".join(need + ["[--flag value ...]"]))


def _help(command):
    """The usage line, then the commands or the command, then its flags."""
    lines = [_usage(command), ""]
    lines += ["  %-22s%s" % item for item in COMMANDS.items() if command in (None, item[0])]
    lines.append("\nflags, spelled in full, as --flag value or --flag=value:")
    for f in FLAGS:
        if command not in f.commands and command is not None:
            continue
        meta = note = ""
        if f.check is not bool:
            meta = " {%s}" % ",".join(f.check) if type(f.check) is tuple else " " + f.name[2:].upper()
            note = " (required)" if f.required else " (default %s)" % f.default
        only = " [%s only]" % f.commands[0] if command is None and f.commands != _BOTH else ""
        lines.append("  %-22s%s%s%s" % (f.name + meta, f.help, note, only))
    return "\n".join(lines)


def _parse_args(command, argv):
    """The values of ``argv`` (the command, then flags) by dest, or None when it
    asks for help; ``command`` is argv[0] when that names a command, else None."""
    if argv[:1] in (["-h"], ["--help"]):
        return None
    if command is None:
        raise _UsageError("unknown command %r" % argv[0] if argv else "a command is required")
    flags = {f.name: f for f in FLAGS if command in f.commands}
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        name, eq, value = token.partition("=")
        f = flags.get(name)
        if f is None or (eq and f.check is bool):
            raise _UsageError("unrecognized argument %r" % token)
        if not eq:
            value = True if f.check is bool else next(tokens, None)
            if value is None:
                raise _UsageError("%s expects a value" % name)
        values[f.dest] = value
    for f in flags.values():
        value = values.setdefault(f.dest, f.default)
        if f.required and value is None:
            raise _UsageError("%s is required" % f.name)
        if type(f.check) is tuple and value not in f.check:
            raise _UsageError("%s takes one of %s, not %r" % (f.name, ", ".join(f.check), value))
        if f.check is float:
            try:
                values[f.dest] = float(value)
            except ValueError:
                raise _UsageError("%s takes a float, not %r" % (f.name, value)) from None
    if values["json"] and values["pretty"]:
        raise _UsageError("--json and --pretty exclude each other")
    return values


def _algebra_from_args(args):
    spec = ToleranceSpec(abs_eps=args["abs_eps"], rel_eps=args["rel_eps"])
    try:
        params = [Fraction(args[name]) for name in ("alpha", "beta", "gamma")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad algebra parameter: %s" % exc)
    return OctonionAlgebra(*params, mode=args["mode"], tolerance=spec)


def _coords(x):
    return [x.algebra.backend.format(c) for c in x.coords]


def _algebra_json(alg):
    fmt = alg.backend.format
    data = {"alpha": fmt(alg.alpha), "beta": fmt(alg.beta), "gamma": fmt(alg.gamma),
            "mode": alg.mode, "division": alg.division_check().status}
    if alg.mode == FLOAT:
        data.update(abs_eps=alg.tol.abs_eps, rel_eps=alg.tol.rel_eps)
    return data


def _cmd_solve(args):
    alg = _algebra_from_args(args)
    phi = parse_polynomial(args["poly"], alg)
    if phi.degree < 1:
        raise ParseError("solve needs a polynomial of degree >= 1")
    report = solve(phi)
    classes = []
    for cand, res in report.classes:
        entry = {"trace": alg.backend.format(cand.trace), "norm": alg.backend.format(cand.norm),
                 "field_degree": cand.field_degree, "multiplicity": cand.multiplicity,
                 "resolution": res.status}
        if res.status == SINGLE_ROOT:
            entry["root"] = _coords(res.root)
        elif res.status == FULL_CLASS:
            entry["witness"] = _coords(res.witness)
        if res.reason:
            entry["reason"] = res.reason
        classes.append(entry)
    doc = {
        "algebra": _algebra_json(alg),
        # coefficients are always on the left
        "polynomial": {"side": "left", "coefficients": [_coords(c) for c in phi.coeffs]},
        "companion": [alg.backend.format(b) for b in report.companion.coeffs],
        "classes": classes,
        "warnings": list(report.warnings),
    }
    for w in report.warnings:
        print("warning: %s" % w, file=sys.stderr)
    print(json.dumps(doc, indent=2 if args["pretty"] else None))
    return EXIT_OK


def _cmd_eigen(args):
    alg = _algebra_from_args(args)
    phi = parse_polynomial(args["poly"], alg)
    lam = parse_octonion(args["lam"], alg)
    test = lev_test if args["side"] == "left" else rev_test
    report = test(phi, lam)
    trace, norm = lam.invariants()
    doc = {
        "member": report.member,
        "kernel_element": format_octonion(report.kernel_element) if report.member else None,
        "eigenvector": [format_octonion(v) for v in report.eigenvector] if report.member else None,
        "class": {"trace": alg.backend.format(trace), "norm": alg.backend.format(norm)},
    }
    print(json.dumps(doc, indent=2 if args["pretty"] else None))
    return EXIT_OK


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = _parse_args(command, argv)
    except _UsageError as exc:
        print("%s\noctopoly: error: %s" % (_usage(command), exc), file=sys.stderr)
        return EXIT_PARSE
    if args is None:
        print(_help(command))
        return EXIT_OK
    try:
        return (_cmd_solve if command == "solve" else _cmd_eigen)(args)
    except _FAILURES[-1][0] as exc:
        prefix, code = next((p, c) for kinds, p, c in _FAILURES if isinstance(exc, kinds))
        print("%s: %s" % (prefix, exc), file=sys.stderr)
        return code


def console_entry():
    raise SystemExit(main())
