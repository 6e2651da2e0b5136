"""Contract sweep: do ``octopoly solve`` and the eigenvalue tests keep their
answer contract over a division algebra?

Seven seeded families run in turn, and each prints one line of counts.  The
first four go through the command line in process (``octopoly.cli.main``),
so a query that fails ends as it would for a user; the last three call the
library.  Every violation is printed, with its command line or polynomial.

contract
    Five algebras, (-1,-1,-1), (-2,-3,-5), (-7,-11,-13), (-1,-100,-1000)
    and (-1/2,-3,-5/7), with four coefficient kinds: integer coordinates in
    [-2, 2] in exact and in float mode, and uniform float coordinates in
    [-1, 1] and in [-10, 10] in float mode.  For each kind, monic and not,
    and each degree 2-16, two seeded polynomials are solved.  A solve
    violates the contract when some class ends in anything but
    ``single_root`` or ``full_class``, when a float polynomial of degree n
    does not get n single roots, or when it raises (which would print a
    traceback) or exits nonzero.  An exit 4 (a documented numeric failure)
    is counted on its own and printed too, since a generic polynomial this
    small must not lose its roots to the float64 range.

overflow
    z^n + c(1+i) z^(n-1) + 1 over (-1,-1,-1) in float mode, for n = 8, 12,
    16 and every 4th of the 400 values c = 10^(300/2n - 0.5 + 0.0025 k): 300
    solves whose roots fit float64 while the root finder's start leaves it.
    An exception or an exit other than 0 and 4 is a violation; the exit 4s
    and the solves that keep all n roots are counted and printed, not gated.

exact-class
    Exact phi of degree 2-16 with a planted root lambda over (-1,-1,-1),
    (-2,-3,-5) and (-7,-11,-13), every coordinate of lambda and of
    c_1..c_(n-1) an integer in [-10^6, 10^6], so that the factor search
    lifts its local factors through many doublings.  The leading
    coefficient is 1, an element of norm 15015 = 3 5 7 11 13 (so the
    search's prime is at least 17) or drawn like the others; two per cell.
    A solve violates the contract when it raises or exits nonzero, when
    lambda is neither a reported root nor in a reported full class, or when
    the factors of the companion times its remainder do not give it back
    exactly.

full-class
    The exact ``z^2 + s`` for s = 1..50 over (-1,-1,-1), (-2,-3,-5) and
    (-7,-11,-13), 150 solves.  Each must report one class, trace 0, norm s,
    field degree 2 and multiplicity 2, that ends ``full_class`` with a
    witness of invariants (0, s) or ``undetermined``; anything else, an
    exception or a nonzero exit is a violation.  The ``undetermined`` count
    (no class witness found) is printed, not gated.

planted exact
    For (-1,-1,-1), (-2,-3,-5) and (-1/2,-3,-5/7), degree 2-16 and a monic
    or drawn leading coefficient, five seeded polynomials with a planted
    root lambda (every coordinate of lambda and of the other coefficients an
    integer in [-2, 2], c_0 = -sum_i c_i lambda^i) are solved.  A case is
    ``ok`` when lambda is a reported root or its class is reported as a full
    class, ``lost`` when neither holds, and ``error`` on an exception.
    When sympy is installed, the factors of degree <= 2 of the companion
    found by ``exact_quadratic_factors`` are also compared with
    ``sympy.factor_list`` (with the degree of the rest); a difference is
    ``mismatch``.  A monic case also counts its eigen outcomes (below).

planted float
    For (-1,-1,-1) and (-2,-3,-5), spans 1 and 2 and degree 2-16, twenty
    seeded monic polynomials with a planted root (coordinates of lambda and
    of c_1..c_(n-1) uniform in [-span, span]) are solved in float mode.  A
    case is ``ok`` when a reported single root lies within 1e-6 of lambda
    in every coordinate (or lambda's class is reported full), ``lost`` when
    none does, ``exit4`` on a NumericFailureError and ``error`` on any
    other exception.  Each case counts its eigen outcomes too, and the line
    counts the companion root searches that fell back from conjugate pairs
    to the iteration on all roots (``fallback``, not gated): the family
    wraps ``central._sweeps`` while it runs and counts its calls with
    ``pairs`` false on an even degree, the degree of every companion.

    The eigen outcomes of a planted case test three points of lambda's
    class as left and as right eigenvalues of the companion matrix: lambda,
    a point -(E^-1 g)(g^-1 G) of ``lev_class_point`` that is not a root, and
    a conjugate d lambda d^-1.  A test is a ``pair`` when the member's
    eigenvector passes ``verify_eigen_pair``, ``off`` when the conjugate is
    no left eigenvalue (it is one only on the class's left-eigenvalue
    slice), ``lost`` otherwise and ``error`` on an exception.  At a root,
    gamma = 1 lies in the kernel, so only the other two points tell a left
    eigenvector (lambda^i gamma) from a right one (gamma lambda^i).

float-eigen
    Float eigen tests against the paper's claim that every point of a root
    class is a left and a right eigenvalue.  First, real phi, products of
    one to three quadratic factors z^2 - t z + n with t an integer in
    [-9, 9] times 10^u and n - t^2/4 an integer in [1, 9] times 10^(2u),
    for u = 0..7 over (-1,-1,-1), (-2,-3,-5) and (-7,-11,-13): every single
    root and full-class witness that float ``solve`` reports is tested on
    both sides, and a non-member, or a member whose eigenvector fails
    ``verify_eigen_pair``, is a violation.  Second, z^n + 10^e for n = 2..4
    and e = 100, 200, 300, at lambda = 10^f i, 10^f + 10^f i and
    10^f j + 10^f l for f = 50, 100, 150, over (-1,-1,-1) and (-2,-3,-5),
    both sides: a float answer that differs from exact mode's is a
    violation.  Any exception but a NumericFailureError is one too; the
    exit 4s (NumericFailureError) are counted and printed, not gated.

Run:  PYTHONPATH=src python3 scripts/contract_sweep.py
The exit status is 1 when any family has a violation, or a ``lost``,
``mismatch`` or ``error`` case.
"""

import contextlib
import io
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction

from octopoly import (
    NumericFailureError,
    OctonionAlgebra,
    StandardPolynomial,
    central,
    companion,
    companion_matrix,
    exact_quadratic_factors,
    lev_class_point,
    lev_test,
    rev_test,
    solve,
    verify_eigen_pair,
    verify_root,
)
from octopoly.cli import EXIT_NUMERIC, main
from octopoly.literals import format_polynomial, parse_polynomial

try:
    import sympy
except ImportError:
    sympy = None

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
THREE = [(-1, -1, -1), (-2, -3, -5), (-7, -11, -13)]
# the exact-class family's leading coefficients of norm 15015 = 3 5 7 11 13,
# so the factor search's prime is at least 17
SPECIAL = [[122, 1, 3, 11, 0, 0, 0, 0], [122, 0, 0, 1, 5, 0, 0, 0], [120, 0, 3, 2, 4, 0, 0, 0]]
EXACT_SPAN = 10**6
PLANTED_EXACT_ALGEBRAS = ((-1, -1, -1), (-2, -3, -5), (Fraction(-1, 2), -3, Fraction(-5, 7)))
TOL = 1e-6
# the float-eigen family's points, with {x} = 10^f
OVERFLOW_POINTS = ("{x}*i", "{x} + {x}*i", "{x}*j + {x}*l")
SIDES = (("left", lev_test), ("right", rev_test))
GATED = ("violations", "lost", "mismatch", "error")


def polynomial_text(A, draw, degree, monic, rng):
    """The literal of a seeded polynomial over A: every coordinate drawn, the
    leading coefficient 1 when ``monic`` (redrawn while it is zero)."""
    coeffs = [A.octonion([draw(rng) for _ in range(8)]) for _ in range(degree + 1)]
    while not monic and coeffs[-1].is_exactly_zero():
        coeffs[-1] = A.octonion([draw(rng) for _ in range(8)])
    if monic:
        coeffs[-1] = A.one
    return format_polynomial(StandardPolynomial(A, coeffs))


def planted(A, degree, draw, rng, lead):
    """(phi, lam): a seeded phi over A with the root lam, every coordinate of
    lam and of c_1..c_(n-1) drawn by ``draw(rng)``, c_n = lead (drawn too
    when None, redrawn while it is zero) and c_0 = -sum_(i>=1) c_i lam^i."""
    def element():
        return A.octonion([draw(rng) for _ in range(8)])

    lam = element()
    while lead is None or lead.is_exactly_zero():
        lead = element()
    tail = [element() for _ in range(degree - 1)] + [lead]
    c0, power = A.zero, A.one
    for c in tail:
        power = lam * power
        c0 = c0 + c * power
    return StandardPolynomial(A, [-c0] + tail), lam


def times(p, q):
    """The coefficients of the product of the polynomials with coefficients p and q."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def report(kind, problem, where):
    """Print a bad case of the kind (the name of its count) and return the kind."""
    print("%s: %s\n  %s" % (kind, problem, where))
    return kind


def query(counts, argv):
    """(violation or None, exit code or None when it raised, the JSON report
    or None) for one ``octopoly`` query, counted as a solve (an exit 4 also
    as ``exit4``); an exception or a nonzero exit is a violation."""
    counts["solves"] += 1
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # noqa: BLE001 - any exception is a finding
        return "raised %r" % (exc,), None, None
    counts["exit4"] += code == EXIT_NUMERIC
    if code != 0:
        return "exit %d: %s" % (code, err.getvalue().strip()), code, None
    return None, code, json.loads(out.getvalue())


def check(counts, argv, mode, degree):
    """(violation or None, exit code or None) of one ``octopoly solve``
    query; a class that ends in neither ``single_root`` nor ``full_class``,
    or in float mode fewer than ``degree`` single roots, is a violation too."""
    problem, code, doc = query(counts, argv)
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


def tally(counts, problem, argv):
    """Count and print the violation, if any, of the query ``argv``."""
    if problem:
        counts["violations"] += 1
        report("violation", problem, "octopoly " + " ".join("'%s'" % a if " " in a else a for a in argv))


def solve_argv(params, poly, mode="exact"):
    return ["solve", "--mode", mode, "--alpha", str(params[0]), "--beta", str(params[1]),
            "--gamma", str(params[2]), "--poly", poly]


def contract_family(counts):
    for params in ALGEBRAS:
        for name, mode, draw in KINDS:
            A = OctonionAlgebra(*params, mode=mode)
            for monic in (True, False):
                for degree in DEGREES:
                    rng = random.Random("%s %s %s %d" % (params, name, monic, degree))
                    for _ in range(PER_CELL):
                        argv = solve_argv(params, polynomial_text(A, draw, degree, monic, rng), mode)
                        tally(counts, check(counts, argv, mode, degree)[0], argv)


def overflow_family(counts):
    for n in (8, 12, 16):
        for k in range(0, 400, 4):
            c = repr(10 ** (300 / (2 * n) - 0.5 + 0.0025 * k))
            poly = "z^%d + (%s + %s*i)*z^%d + 1" % (n, c, c, n - 1)
            argv = ["solve", "--mode", "float", "--poly", poly]
            problem, code = check(counts, argv, "float", n)
            counts["answered"] += problem is None
            tally(counts, problem if code not in (0, EXIT_NUMERIC) else None, argv)


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
            product = times(product, F.coeffs)
    if tuple(product) != Phi.coeffs:
        return "factors times remainder differ from the companion"
    return None


def exact_class_family(counts):
    for params, special in zip(THREE, SPECIAL):
        A = OctonionAlgebra(*params)
        special = A.octonion(special)
        if special.norm() != 15015:
            raise ValueError("the special leading coefficient over %s has norm %s" % (params, special.norm()))
        for degree in DEGREES:
            for kind, lead in (("monic", A.one), ("norm 15015", special), ("drawn", None)):
                rng = random.Random("exact class %s %d %s" % (params, degree, kind))
                for _ in range(PER_CELL):
                    phi, lam = planted(A, degree, lambda r: r.randint(-EXACT_SPAN, EXACT_SPAN), rng, lead)
                    argv = solve_argv(params, format_polynomial(phi))
                    problem, _, doc = query(counts, argv)
                    problem = problem or planted_problem(doc, lam) or rebuild_problem(companion(phi))
                    tally(counts, problem, argv)


def full_class_problem(doc, A, s):
    """(violation or None, undetermined) for the report of z^2 + s over A:
    one class (0, s) of field degree 2 and multiplicity 2, ``full_class``
    with a witness of invariants (0, s) or ``undetermined``."""
    classes = doc["classes"]
    if len(classes) != 1:
        return "%d classes, not 1" % len(classes), False
    c = classes[0]
    key = (c["trace"], c["norm"], c["field_degree"], c["multiplicity"])
    if key != ("0", str(s), 2, 2):
        return "class (trace, norm, field degree, multiplicity) %r" % (key,), False
    if c["resolution"] == "undetermined":
        return None, True
    if c["resolution"] != "full_class":
        return "the class ended %s" % c["resolution"], False
    if A.octonion(c["witness"]).invariants() != (0, s):
        return "the witness %s is not in the class (0, %d)" % (c["witness"], s), False
    return None, False


def full_class_family(counts):
    for params in THREE:
        A = OctonionAlgebra(*params)
        for s in range(1, 51):
            argv = solve_argv(params, "z^2 + %d" % s)
            problem, _, doc = query(counts, argv)
            undecided = False
            if not problem:
                problem, undecided = full_class_problem(doc, A, s)
            counts["undetermined"] += undecided
            tally(counts, problem, argv)


def sympy_agrees(Phi):
    """Whether exact_quadratic_factors and sympy.factor_list agree on the
    factors of degree <= 2 of Phi and the degree of the rest."""
    z = sympy.Symbol("z")
    _, parts = sympy.factor_list(sympy.Poly(list(reversed(Phi.coeffs)), z))
    want, rest = [], 0
    for part, mult in parts:
        if part.degree() <= 2:
            monic = part.monic().all_coeffs()[::-1]
            want.append((tuple(Fraction(int(c.p), int(c.q)) for c in monic), mult))
        else:
            rest += part.degree() * mult
    fact = exact_quadratic_factors(Phi)
    got = sorted((f.coeffs, m) for f, m in fact.factors)
    return got == sorted(want) and fact.remainder.degree == rest


def planted_outcome(phi, lam, tol):
    """``ok``, ``lost``, ``mismatch``, ``exit4`` or ``error`` for the solve
    of phi, which has the planted root lam: ``ok`` when a reported root
    lies within ``tol`` of lam in every coordinate, or a reported full class
    has lam's invariants within ``tol``.  ``tol`` is 0 in exact mode, where
    the factors are also compared with sympy's and an exit 4 is an error."""
    try:
        found = solve(phi)
    except Exception as exc:  # noqa: BLE001 - any exception is a finding
        if tol and isinstance(exc, NumericFailureError):
            return "exit4"
        return report("error", repr(exc), phi)
    t, n = lam.invariants()
    if not any(max(abs(c) for c in (root - lam).coords) <= tol for root in found.roots) and not any(
        abs(t - ft) <= tol and abs(n - fn) <= tol for ft, fn, _ in found.full_classes
    ):
        return report("lost", "the planted root %s" % lam, phi)
    if not tol and sympy is not None and not sympy_agrees(found.companion):
        return report("mismatch", "the companion's factors differ from sympy's", phi)
    return "ok"


def nonzero(rng, A):
    """An element with integer coordinates in [-2, 2], not 0."""
    while True:
        x = A.octonion([rng.randint(-2, 2) for _ in range(8)])
        if not x.is_exactly_zero():
            return x


def eigen_pair(phi, C, point, side, test):
    """(member, member with an eigenvector that passes ``verify_eigen_pair``)
    for ``point`` as a ``side`` eigenvalue of C, the companion matrix of phi."""
    found = test(phi, point)
    return found.member, found.member and verify_eigen_pair(C, point, found.eigenvector, side)


def eigen_outcomes(phi, lam, rng):
    """``pair``, ``off``, ``lost`` or ``error`` for lam, a point of
    ``lev_class_point`` in lam's class that is not a root of the monic phi,
    and a conjugate d lam d^-1 (all three right eigenvalues, the conjugate
    maybe no left one), each as a left and as a right eigenvalue."""
    C, outcomes = companion_matrix(phi), []
    try:
        t, n = lam.invariants()
        for _ in range(20):
            p = lev_class_point(phi, n, t, nonzero(rng, lam.algebra))
            if not verify_root(phi, p):
                break
        d = nonzero(rng, lam.algebra)
        points = [(lam, True), (p, True), ((d * lam) * d.inverse(), False)]
    except Exception as exc:  # noqa: BLE001 - any exception is a finding
        return [report("error", repr(exc), "the class points of %s for %s" % (lam, phi))]
    for point, left_member in points:
        for side, test in SIDES:
            where = "%s eigenvalue %s of %s" % (side, point, phi)
            try:
                member, good = eigen_pair(phi, C, point, side, test)
            except Exception as exc:  # noqa: BLE001 - any exception is a finding
                outcomes.append(report("error", repr(exc), where))
                continue
            # every point is a right eigenvalue, and a member must verify
            if not good and (member or left_member or side == "right"):
                outcomes.append(report("lost", "no verified eigenvector", where))
            else:
                outcomes.append("pair" if good else "off")
    return outcomes


def planted_exact_family(counts):
    if sympy is None:
        print("sympy is not installed: factors not compared")
    for params in PLANTED_EXACT_ALGEBRAS:
        A = OctonionAlgebra(*params)
        for degree in DEGREES:
            for monic in (True, False):
                for seed in range(5):
                    rng = random.Random("%s %d %s %d" % (params, degree, monic, seed))
                    lead = A.one if monic else None
                    phi, lam = planted(A, degree, lambda r: r.randint(-2, 2), rng, lead)
                    counts[planted_outcome(phi, lam, 0)] += 1
                    if monic:
                        counts.update(eigen_outcomes(phi, lam, rng))


def planted_float_family(counts):
    sweeps = central._sweeps

    def counted(b, z, pairs):
        counts["fallback"] += not pairs and len(b) % 2
        return sweeps(b, z, pairs)

    central._sweeps = counted
    try:
        for params in THREE[:2]:
            A = OctonionAlgebra(*params, mode="float")
            for span in (1.0, 2.0):
                for degree in DEGREES:
                    for seed in range(20):
                        rng = random.Random("%s %s %d %d" % (params, span, degree, seed))
                        phi, lam = planted(A, degree, lambda r: r.uniform(-span, span), rng, A.one)
                        counts[planted_outcome(phi, lam, TOL)] += 1
                        counts.update(eigen_outcomes(phi, lam, rng))
    finally:
        central._sweeps = sweeps


def judged(counts, run, problem, where):
    """Count ``ok`` when run() returns True, ``exit4`` when it raises
    NumericFailureError, and else print the violation ``problem``."""
    try:
        good = run()
    except NumericFailureError:
        counts["exit4"] += 1
        return
    except Exception as exc:  # noqa: BLE001 - any exception is a finding
        good, problem = False, "raised %r" % (exc,)
    if good:
        counts["ok"] += 1
    else:
        counts["violations"] += 1
        report("violation", problem, where)


def float_eigen_family(counts):
    for params in THREE:
        A = OctonionAlgebra(*params, mode="float")
        for u in range(8):
            for factors in (1, 2, 3):
                rng = random.Random("real %s %d %d" % (params, u, factors))
                coeffs = [1.0]
                for _ in range(factors):
                    t = rng.randint(-9, 9) * 10.0**u
                    coeffs = times(coeffs, [t * t / 4 + rng.randint(1, 9) * 10.0 ** (2 * u), -t, 1.0])
                phi = StandardPolynomial(A, coeffs)
                try:
                    found, C = solve(phi), companion_matrix(phi)
                except NumericFailureError:
                    counts["exit4"] += 1
                    continue
                for point in found.roots + tuple(w for _, _, w in found.full_classes):
                    for side, test in SIDES:
                        judged(counts, lambda: eigen_pair(phi, C, point, side, test)[1],
                               "no verified eigenvector", "%s eigenvalue %s of %s" % (side, point, phi))
    for params in THREE[:2]:
        Af, Ae = OctonionAlgebra(*params, mode="float"), OctonionAlgebra(*params)
        for n in (2, 3, 4):
            for e in (100, 200, 300):
                phif = parse_polynomial("z^%d + 1e%d" % (n, e), Af)
                phie = parse_polynomial("z^%d + %d" % (n, 10**e), Ae)
                for f in (50, 100, 150):
                    for form in OVERFLOW_POINTS:
                        lamf, lame = Af.parse(form.format(x="1e%d" % f)), Ae.parse(form.format(x=10**f))
                        for side, test in SIDES:
                            judged(counts, lambda: test(phif, lamf).member == test(phie, lame).member,
                                   "float and exact membership differ",
                                   "%s eigenvalue %s of %s" % (side, lamf, phif))


FAMILIES = [
    ("contract", contract_family, "%(solves)d solves, %(violations)d violations, %(exit4)d exit 4"),
    ("overflow", overflow_family, "%(solves)d solves, %(violations)d violations, "
     "%(exit4)d exit 4 and %(answered)d with all roots (not gated)"),
    ("exact-class", exact_class_family, "%(solves)d solves, %(violations)d violations"),
    ("full-class", full_class_family, "%(solves)d solves, %(violations)d violations, "
     "%(undetermined)d undetermined (not gated)"),
    ("planted exact", planted_exact_family, None),
    ("planted float", planted_float_family, None),
    ("float-eigen", float_eigen_family, "%(violations)d violations, %(ok)d ok, "
     "%(exit4)d exit 4 (not gated)"),
]


def sweep():
    """Run every family and print its counts (every count, sorted, when its
    form is None); 1 when some family has a count named in GATED, else 0."""
    failed = 0
    for name, family, form in FAMILIES:
        start, counts = time.monotonic(), Counter()
        family(counts)
        text = form % counts if form else ", ".join("%s %d" % kv for kv in sorted(counts.items()))
        print("%s: %s, %.1f s" % (name, text, time.monotonic() - start))
        failed += sum(counts[k] for k in GATED)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(sweep())
