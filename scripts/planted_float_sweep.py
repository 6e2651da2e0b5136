"""Planted float sweep: does float ``solve`` recover a planted root?

For each algebra, coordinate span and degree 2-16, twenty seeded monic
polynomials are built with a known root lambda (every coordinate of lambda
and of c_1..c_{n-1} uniform in [-span, span], c_0 = -sum_i c_i lambda^i) and
solved in float mode.  A case is ``ok`` when some reported single root lies
within 1e-6 of lambda in every coordinate (or lambda's class is reported as
a full class), ``lost`` when no reported root does, ``exit4`` on a
NumericFailureError and ``error`` on any other exception.  lambda is also
tested as a left and a right eigenvalue of the companion matrix: each side
counts as a ``pair`` when ``lev_test``/``rev_test`` reports a member whose
eigenvector passes ``verify_eigen_pair``, as ``lost`` otherwise and as
``error`` on an exception.

Run:  PYTHONPATH=src python3 scripts/planted_float_sweep.py
The exit status is 1 when any case is lost or raised something other than
NumericFailureError.
"""

import random
import sys
from collections import Counter

from octopoly import (
    NumericFailureError,
    OctonionAlgebra,
    StandardPolynomial,
    companion_matrix,
    lev_test,
    rev_test,
    solve,
    verify_eigen_pair,
)

ALGEBRAS = ((-1, -1, -1), (-2, -3, -5))
SPANS = (1.0, 2.0)
DEGREES = range(2, 17)
SEEDS = 20
TOL = 1e-6


def planted(rng, A, degree, span):
    def element():
        return A.octonion([rng.uniform(-span, span) for _ in range(8)])

    lam = element()
    tail = [element() for _ in range(degree - 1)] + [A.one]
    c0 = A.zero
    power = A.one
    for c in tail:
        power = lam * power
        c0 = c0 + c * power
    return StandardPolynomial(A, [-c0] + tail), lam


def outcome(phi, lam):
    try:
        report = solve(phi)
    except NumericFailureError:
        return "exit4"
    except Exception as exc:  # noqa: BLE001 - any other exception is a finding
        print("error: %r on %s" % (exc, phi), file=sys.stderr)
        return "error"
    if any((root - lam).max_abs() <= TOL for root in report.roots):
        return "ok"
    t, n = lam.invariants()
    if any(abs(t - ft) <= TOL and abs(n - fn) <= TOL for ft, fn, _ in report.full_classes):
        return "ok"
    return "lost"


def eigen_outcomes(phi, lam):
    """``pair``, ``lost`` or ``error`` for lambda as a left and as a right
    eigenvalue of the companion matrix of the monic phi."""
    outcomes = []
    for side, test in (("left", lev_test), ("right", rev_test)):
        try:
            report = test(phi, lam)
            good = report.member and verify_eigen_pair(
                companion_matrix(phi), lam, report.eigenvector, side
            )
        except Exception as exc:  # noqa: BLE001 - any exception is a finding
            print("error: %r on %s eigenvalue %s of %s" % (exc, side, lam, phi), file=sys.stderr)
            outcomes.append("error")
            continue
        if not good:
            print("lost: %s eigenvalue %s of %s" % (side, lam, phi), file=sys.stderr)
        outcomes.append("pair" if good else "lost")
    return outcomes


def main():
    total = Counter()
    for params in ALGEBRAS:
        A = OctonionAlgebra(*params, mode="float")
        for span in SPANS:
            for degree in DEGREES:
                cell = Counter()
                for seed in range(SEEDS):
                    rng = random.Random("%s %s %d %d" % (params, span, degree, seed))
                    phi, lam = planted(rng, A, degree, span)
                    cell[outcome(phi, lam)] += 1
                    cell.update(eigen_outcomes(phi, lam))
                total.update(cell)
                print(
                    "%-12s span %.0f deg %2d: %s"
                    % (params, span, degree, ", ".join("%s %d" % kv for kv in sorted(cell.items())))
                )
    print("total:", ", ".join("%s %d" % kv for kv in sorted(total.items())))
    return 1 if total["lost"] or total["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
