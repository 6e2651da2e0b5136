"""Contract sweep: does ``octopoly solve`` keep its answer contract over a
division algebra?

Five algebras, (-1,-1,-1), (-2,-3,-5), (-7,-11,-13), (-1,-100,-1000) and
(-1/2,-3,-5/7), with four coefficient kinds: integer coordinates in [-2, 2]
in exact and in float mode, and uniform float coordinates in [-1, 1] and in
[-10, 10] in float mode.  For each kind, monic and not, and each degree
2-16, two seeded polynomials are solved through the command line, in
process (``octopoly.cli.main``), so a query that fails ends as it would for
a user.  A solve violates the contract when

- some class ends in anything but ``single_root`` or ``full_class``;
- a float polynomial of degree n does not get n single roots;
- it raises an exception, which would print a traceback;
- it exits nonzero.  An exit 4 (a documented numeric failure) is counted
  on its own and printed too, since a generic polynomial this small must
  not lose its roots to the float64 range.

Every violation is printed with its command line.

A second, separately printed count runs the overflow family
z^n + c(1+i) z^(n-1) + 1 over (-1,-1,-1) in float mode, for n = 8, 12, 16
and every 4th of the 400 values c = 10^(300/2n - 0.5 + 0.0025 k): 300
solves whose roots fit float64 while the root finder's start leaves it.
There an exception or an exit other than 0 and 4 is a violation; the exit 4s
and the solves that keep all n roots are counted and printed, not gated.

Run:  PYTHONPATH=src python3 scripts/contract_sweep.py
The exit status is 1 when any violation is found.
"""

import contextlib
import io
import json
import random
import sys
import time

from octopoly import OctonionAlgebra, StandardPolynomial
from octopoly.cli import EXIT_NUMERIC, main
from octopoly.literals import format_polynomial

ALGEBRAS = [("-1", "-1", "-1"), ("-2", "-3", "-5"), ("-7", "-11", "-13"),
            ("-1", "-100", "-1000"), ("-1/2", "-3", "-5/7")]
# (name, mode, coordinate draw)
KINDS = [
    ("int2 exact", "exact", lambda rng: rng.randint(-2, 2)),
    ("int2 float", "float", lambda rng: rng.randint(-2, 2)),
    ("unif1 float", "float", lambda rng: rng.uniform(-1, 1)),
    ("unif10 float", "float", lambda rng: rng.uniform(-10, 10)),
]
DEGREES = range(2, 17)
PER_CELL = 2


def polynomial_text(A, draw, degree, monic, rng):
    """The literal of a seeded polynomial over A: every coordinate drawn, the
    leading coefficient 1 when ``monic`` (redrawn while it is zero)."""
    coeffs = [A.octonion([draw(rng) for _ in range(8)]) for _ in range(degree + 1)]
    while not monic and coeffs[-1].is_exactly_zero():
        coeffs[-1] = A.octonion([draw(rng) for _ in range(8)])
    if monic:
        coeffs[-1] = A.one
    return format_polynomial(StandardPolynomial(A, coeffs))


def check(argv, mode, degree):
    """(violation or None, exit code or None when it raised) for one
    ``octopoly`` query."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # noqa: BLE001 - any exception is a finding
        return "raised %r" % (exc,), None
    if code != 0:
        return "exit %d: %s" % (code, err.getvalue().strip()), code
    statuses = [c["resolution"] for c in json.loads(out.getvalue())["classes"]]
    bad = sorted(set(statuses) - {"single_root", "full_class"})
    if bad:
        return "classes ended %s" % ", ".join(bad), code
    roots = statuses.count("single_root")
    if mode == "float" and roots != degree:
        return "%d single roots for degree %d" % (roots, degree), code
    return None, code


def report(problem, argv):
    print("violation: %s\n  octopoly %s" % (problem, " ".join(
        "'%s'" % a if " " in a else a for a in argv)))


def main_sweep():
    start = time.monotonic()
    solves = violations = exit4 = 0
    for params in ALGEBRAS:
        for name, mode, draw in KINDS:
            A = OctonionAlgebra(*params, mode=mode)
            for monic in (True, False):
                for degree in DEGREES:
                    rng = random.Random("%s %s %s %d" % (params, name, monic, degree))
                    for _ in range(PER_CELL):
                        poly = polynomial_text(A, draw, degree, monic, rng)
                        argv = ["solve", "--mode", mode, "--alpha", params[0],
                                "--beta", params[1], "--gamma", params[2], "--poly", poly]
                        problem, code = check(argv, mode, degree)
                        solves += 1
                        exit4 += code == EXIT_NUMERIC
                        if problem:
                            violations += 1
                            report(problem, argv)
    print("contract sweep: %d solves, %d violations (%d exit 4) in %.1f s"
          % (solves, violations, exit4, time.monotonic() - start))
    return violations


def overflow_family():
    start = time.monotonic()
    solves = violations = exit4 = answered = 0
    for n in (8, 12, 16):
        for k in range(0, 400, 4):
            c = repr(10 ** (300 / (2 * n) - 0.5 + 0.0025 * k))
            poly = "z^%d + (%s + %s*i)*z^%d + 1" % (n, c, c, n - 1)
            argv = ["solve", "--mode", "float", "--poly", poly]
            problem, code = check(argv, "float", n)
            solves += 1
            exit4 += code == EXIT_NUMERIC
            answered += problem is None
            if code not in (0, EXIT_NUMERIC):
                violations += 1
                report(problem, argv)
    print("overflow family: %d solves, %d violations (%d exit 4 and %d with all roots, "
          "not gated) in %.1f s" % (solves, violations, exit4, answered, time.monotonic() - start))
    return violations


if __name__ == "__main__":
    sys.exit(1 if main_sweep() + overflow_family() else 0)
