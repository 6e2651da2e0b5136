"""Planted exact sweep: does exact ``solve`` recover a planted root?

For each algebra, degree 2-16 and leading coefficient (monic, or a random
invertible element), five seeded polynomials are built with a known root
lambda (every coordinate of lambda and of the other coefficients an integer
in [-2, 2], c_0 = -sum_i c_i lambda^i) and solved in exact mode.  A case is
``ok`` when lambda is a reported root or its class is reported as a full
class, ``lost`` when neither holds, and ``error`` on any exception.  When
sympy is installed, the factors of degree <= 2 of the companion found by
``exact_quadratic_factors`` are also compared with ``sympy.factor_list``
(with the degree of the rest); a difference is ``mismatch``.  For a monic
polynomial, lambda, a left-eigenvalue point of its class that is not a
root and a conjugate of lambda are also tested as left and right
eigenvalues of the companion matrix, counted as in the planted float sweep
(``eigen_outcomes``): ``pair`` when a member's eigenvector verifies,
``off`` for a conjugate that is no left eigenvalue, ``lost`` otherwise.

Run:  PYTHONPATH=src python3 scripts/planted_exact_sweep.py
It prints the counts per cell, the totals and the slowest solve; the exit
status is 1 when any case is lost, mismatched or raised.
"""

import random
import sys
import time
from collections import Counter
from fractions import Fraction

from octopoly import OctonionAlgebra, StandardPolynomial, exact_quadratic_factors, solve
from planted_float_sweep import eigen_outcomes

try:
    import sympy
except ImportError:
    sympy = None

ALGEBRAS = ((-1, -1, -1), (-2, -3, -5), (Fraction(-1, 2), -3, Fraction(-5, 7)))
DEGREES = range(2, 17)
SEEDS = 5
SPAN = 2


def planted(rng, A, degree, monic):
    def element():
        return A.octonion([rng.randint(-SPAN, SPAN) for _ in range(8)])

    lam = element()
    lead = A.one if monic else element()
    while lead.norm() == 0:
        lead = element()
    tail = [element() for _ in range(degree - 1)] + [lead]
    c0 = A.zero
    power = A.one
    for c in tail:
        power = lam * power
        c0 = c0 + c * power
    return StandardPolynomial(A, [-c0] + tail), lam


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


def outcome(phi, lam):
    """(outcome, solve time in s)."""
    t0 = time.perf_counter()
    try:
        report = solve(phi)
    except Exception as exc:  # noqa: BLE001 - any exception is a finding
        print("error: %r on %s" % (exc, phi), file=sys.stderr)
        return "error", time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    t, n = lam.invariants()
    if lam not in report.roots and not any(
        (ft, fn) == (t, n) for ft, fn, _ in report.full_classes
    ):
        print("lost: %s on %s" % (lam, phi), file=sys.stderr)
        return "lost", elapsed
    if sympy is not None and not sympy_agrees(report.companion):
        print("mismatch with sympy on %s" % phi, file=sys.stderr)
        return "mismatch", elapsed
    return "ok", elapsed


def main():
    total = Counter()
    worst = (0.0, "")
    for params in ALGEBRAS:
        A = OctonionAlgebra(*params)
        for degree in DEGREES:
            for monic in (True, False):
                cell = Counter()
                for seed in range(SEEDS):
                    rng = random.Random("%s %d %s %d" % (params, degree, monic, seed))
                    phi, lam = planted(rng, A, degree, monic)
                    result, elapsed = outcome(phi, lam)
                    cell[result] += 1
                    if monic:
                        cell.update(eigen_outcomes(phi, lam, rng))
                    label = "%s deg %d %s seed %d" % (params, degree, "monic" if monic else "non-monic", seed)
                    worst = max(worst, (elapsed, label))
                total.update(cell)
                print(
                    "%-12s deg %2d %-9s: %s"
                    % (params, degree, "monic" if monic else "non-monic",
                       ", ".join("%s %d" % kv for kv in sorted(cell.items())))
                )
    print("total:", ", ".join("%s %d" % kv for kv in sorted(total.items())))
    print("slowest solve: %.3f s (%s)" % worst)
    if sympy is None:
        print("sympy is not installed: factors not compared")
    return 1 if total["lost"] or total["mismatch"] or total["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
