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

A third count runs the exact-class family: exact phi of degree 2-16 with a
planted root lambda over (-1,-1,-1), (-2,-3,-5) and (-7,-11,-13), every
coordinate of lambda and of c_1..c_(n-1) an integer in [-10^6, 10^6], so
that the factor search lifts its local factors through many doublings.  The
leading coefficient is 1, an element of norm 15015 = 3 5 7 11 13 (so the
search's prime is at least 17) or drawn like the others; two per cell.
A solve violates the contract when it raises or exits nonzero, when lambda
is neither a reported root nor in a reported full class, or when the
factors of the companion times its remainder do not give it back exactly.

Run:  PYTHONPATH=src python3 scripts/contract_sweep.py
The exit status is 1 when any violation is found.
"""

import contextlib
import io
import json
import random
import sys
import time
from fractions import Fraction

from octopoly import OctonionAlgebra, StandardPolynomial, companion, exact_quadratic_factors
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
# the exact-class family: (algebra, a leading coefficient of norm
# 15015 = 3 5 7 11 13, so the factor search's prime is at least 17)
EXACT_CLASS_ALGEBRAS = [
    ((-1, -1, -1), [122, 1, 3, 11, 0, 0, 0, 0]),
    ((-2, -3, -5), [122, 0, 0, 1, 5, 0, 0, 0]),
    ((-7, -11, -13), [120, 0, 3, 2, 4, 0, 0, 0]),
]
EXACT_SPAN = 10**6


def polynomial_text(A, draw, degree, monic, rng):
    """The literal of a seeded polynomial over A: every coordinate drawn, the
    leading coefficient 1 when ``monic`` (redrawn while it is zero)."""
    coeffs = [A.octonion([draw(rng) for _ in range(8)]) for _ in range(degree + 1)]
    while not monic and coeffs[-1].is_exactly_zero():
        coeffs[-1] = A.octonion([draw(rng) for _ in range(8)])
    if monic:
        coeffs[-1] = A.one
    return format_polynomial(StandardPolynomial(A, coeffs))


def query(argv):
    """(violation or None, exit code or None when it raised, the JSON report
    or None) for one ``octopoly`` query; an exception or a nonzero exit is a
    violation."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # noqa: BLE001 - any exception is a finding
        return "raised %r" % (exc,), None, None
    if code != 0:
        return "exit %d: %s" % (code, err.getvalue().strip()), code, None
    return None, code, json.loads(out.getvalue())


def check(argv, mode, degree):
    """(violation or None, exit code or None when it raised) for one
    ``octopoly`` query."""
    problem, code, doc = query(argv)
    if problem:
        return problem, code
    statuses = [c["resolution"] for c in doc["classes"]]
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


def planted_polynomial(A, degree, lead, rng):
    """(phi, lam): a seeded phi over A with the root lam, every coordinate of
    lam and of c_1..c_(n-1) drawn from [-EXACT_SPAN, EXACT_SPAN], c_n = lead
    (drawn too when None, redrawn while it is zero) and
    c_0 = -sum_(i>=1) c_i lam^i."""
    def element():
        return A.octonion([rng.randint(-EXACT_SPAN, EXACT_SPAN) for _ in range(8)])

    lam = element()
    while lead is None or lead.is_exactly_zero():
        lead = element()
    tail = [element() for _ in range(degree - 1)] + [lead]
    c0, power = A.zero, A.one
    for c in tail:
        power = lam * power
        c0 = c0 + c * power
    return StandardPolynomial(A, [-c0] + tail), lam


def planted_problem(doc, lam):
    """None when lam is a reported root or its class (trace, norm) is
    reported as a full class, else the violation."""
    t, n = (str(x) for x in lam.invariants())
    for c in doc["classes"]:
        if c["resolution"] == "single_root" and c["root"] == [str(x) for x in lam.coords]:
            return None
        if c["resolution"] == "full_class" and (c["trace"], c["norm"]) == (t, n):
            return None
    return "the planted root %s is neither a root nor in a full class" % lam


def rebuild_problem(Phi):
    """None when the factors of exact_quadratic_factors(Phi), each to its
    multiplicity, times the remainder give Phi's coefficients exactly."""
    fact = exact_quadratic_factors(Phi)
    product = list(fact.remainder.coeffs)
    for F, mult in fact.factors:
        for _ in range(mult):
            out = [Fraction(0)] * (len(product) + F.degree)
            for i, x in enumerate(product):
                for j, y in enumerate(F.coeffs):
                    out[i + j] += x * y
            product = out
    if tuple(product) != Phi.coeffs:
        return "factors times remainder differ from the companion"
    return None


def exact_class_family():
    start = time.monotonic()
    solves = violations = 0
    for params, special in EXACT_CLASS_ALGEBRAS:
        A = OctonionAlgebra(*params)
        special = A.octonion(special)
        if special.norm() != 15015:
            raise ValueError("the special leading coefficient over %s has norm %s" % (params, special.norm()))
        for degree in DEGREES:
            for kind, lead in (("monic", A.one), ("norm 15015", special), ("drawn", None)):
                rng = random.Random("exact class %s %d %s" % (params, degree, kind))
                for _ in range(PER_CELL):
                    phi, lam = planted_polynomial(A, degree, lead, rng)
                    argv = ["solve", "--alpha", str(params[0]), "--beta", str(params[1]),
                            "--gamma", str(params[2]), "--poly", format_polynomial(phi)]
                    problem, _, doc = query(argv)
                    problem = problem or planted_problem(doc, lam) or rebuild_problem(companion(phi))
                    solves += 1
                    if problem:
                        violations += 1
                        report(problem, argv)
    print("exact-class family: %d solves, %d violations in %.1f s"
          % (solves, violations, time.monotonic() - start))
    return violations


if __name__ == "__main__":
    sys.exit(1 if main_sweep() + overflow_family() + exact_class_family() else 0)
