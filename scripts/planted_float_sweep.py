"""Planted float sweep: does float ``solve`` recover a planted root?

For each algebra, coordinate span and degree 2-16, twenty seeded monic
polynomials are built with a known root lambda (every coordinate of lambda
and of c_1..c_{n-1} uniform in [-span, span], c_0 = -sum_i c_i lambda^i) and
solved in float mode.  A case is ``ok`` when some reported single root lies
within 1e-6 of lambda in every coordinate (or lambda's class is reported as
a full class), ``lost`` when no reported root does, ``exit4`` on a
NumericFailureError and ``error`` on any other exception.  Three points of
lambda's class are also tested as left and as right eigenvalues of the
companion matrix (``eigen_outcomes``): lambda itself, a left-eigenvalue
point -(E^-1 g)(g^-1 G) of ``lev_class_point`` that is not a root, and a
conjugate d lambda d^-1.  A test counts as a ``pair`` when
``lev_test``/``rev_test`` reports a member whose eigenvector passes
``verify_eigen_pair``, as ``off`` when the conjugate is no left eigenvalue
(it is one only on the class's left-eigenvalue slice), as ``lost``
otherwise and as ``error`` on an exception.  At a root, gamma = 1 lies in
the kernel, so only the other two points tell a left eigenvector
(lambda^i gamma) from a right one (gamma lambda^i).

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
    lev_class_point,
    lev_test,
    rev_test,
    solve,
    verify_eigen_pair,
    verify_root,
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


def _nonzero(rng, A):
    """An element with integer coordinates in [-2, 2], not 0."""
    while True:
        x = A.octonion([rng.randint(-2, 2) for _ in range(8)])
        if not x.is_exactly_zero():
            return x


def eigen_points(phi, lam, rng):
    """(point, must be a left eigenvalue) for lambda, a point of
    ``lev_class_point`` in lambda's class that is not a root of phi, and a
    conjugate d lambda d^-1; all three are right eigenvalues."""
    t, n = lam.invariants()
    for _ in range(20):
        p = lev_class_point(phi, n, t, _nonzero(rng, lam.algebra))
        if not verify_root(phi, p):
            break
    d = _nonzero(rng, lam.algebra)
    return [(lam, True), (p, True), ((d * lam) * d.inverse(), False)]


def eigen_outcomes(phi, lam, rng):
    """``pair``, ``off``, ``lost`` or ``error`` for each of ``eigen_points``
    as a left and as a right eigenvalue of the companion matrix of the
    monic phi, each member checked by ``verify_eigen_pair``."""
    outcomes = []
    C = companion_matrix(phi)
    try:
        points = eigen_points(phi, lam, rng)
    except Exception as exc:  # noqa: BLE001 - any exception is a finding
        print("error: %r on the class points of %s for %s" % (exc, lam, phi), file=sys.stderr)
        return ["error"]
    for point, left_member in points:
        for side, test, must in (("left", lev_test, left_member), ("right", rev_test, True)):
            try:
                report = test(phi, point)
                good = report.member and verify_eigen_pair(C, point, report.eigenvector, side)
            except Exception as exc:  # noqa: BLE001 - any exception is a finding
                print("error: %r on %s eigenvalue %s of %s" % (exc, side, point, phi), file=sys.stderr)
                outcomes.append("error")
                continue
            if not good and (must or report.member):
                print("lost: %s eigenvalue %s of %s" % (side, point, phi), file=sys.stderr)
                outcomes.append("lost")
            else:
                outcomes.append("pair" if good else "off")
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
                    cell.update(eigen_outcomes(phi, lam, rng))
                total.update(cell)
                print(
                    "%-12s span %.0f deg %2d: %s"
                    % (params, span, degree, ", ".join("%s %d" % kv for kv in sorted(cell.items())))
                )
    print("total:", ", ".join("%s %d" % kv for kv in sorted(total.items())))
    return 1 if total["lost"] or total["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
