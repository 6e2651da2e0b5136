"""Companion matrices and their left / right eigenvalue decision procedures.

For a monic polynomial of degree n the companion matrix has superdiagonal 1s
and last row (-c_0, ..., -c_{n-1}).  Membership of lambda in the left (right)
eigenvalue set reduces to singularity of one 8x8 scalar operator: the
candidate eigenvector is forced, entry by entry, down to its first component
gamma, and the surviving condition is linear in gamma over the base field.
On lambda's class z^2 = T z - N the polynomial reduces to E z + G, so the
operator is gamma -> E (lambda gamma) + G gamma (left) or
gamma -> E (gamma lambda) + G gamma (right).  The kernel computation
therefore replaces any search over twists.
"""

from __future__ import annotations

import enum
import functools
from collections import namedtuple

from .algebra import Octonion
from .central import central_roots
from .polynomials import StandardPolynomial, class_form, companion, reduce_to_linear
from .solver import verify_root


class Side(enum.Enum):
    """The side lambda multiplies the eigenvector on: C v = lambda v (left)
    or C v = v lambda (right)."""

    LEFT = "left"
    RIGHT = "right"


class CompanionMatrix(namedtuple("CompanionMatrix", "entries degree")):
    """n x n octonion matrix, ``entries`` a tuple of row tuples of Octonions
    and ``degree`` the int n: rows 0..n-2 carry a shifted identity, the last
    row carries the negated coefficients.  ``m[r, c]`` is an entry."""

    __slots__ = ()

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]


def companion_matrix(phi: StandardPolynomial) -> CompanionMatrix:
    if not phi.is_monic():
        raise ValueError("companion_matrix requires a monic polynomial")
    if phi.degree < 1:
        raise ValueError("companion_matrix needs degree >= 1")
    n = phi.degree
    alg = phi.algebra
    rows = []
    for r in range(n - 1):
        rows.append(
            tuple(alg.one if c == r + 1 else alg.zero for c in range(n))
        )
    rows.append(tuple(-phi.coeffs[c] for c in range(n)))
    return CompanionMatrix(tuple(rows), n)


class MembershipReport(
    namedtuple("MembershipReport", "member kernel_element eigenvector", defaults=(None, None))
):
    """Outcome of an eigenvalue membership test.  When the bool ``member``
    is true, ``kernel_element`` is a nonzero first eigenvector component (an
    :class:`Octonion`) and ``eigenvector`` the full reconstructed
    eigenvector (a tuple of Octonions); both are None otherwise."""

    __slots__ = ()


def _membership(phi, lam, side):
    """Kernel of gamma -> sum_i c_i (lam^i gamma) (left) or
    sum_i c_i (gamma lam^i) (right), built as E act(gamma) + G gamma from
    lam^i = e_i lam + g_i on lam's class, its columns read off the structure
    table (``operator_columns``).  By Artin's theorem lam and gamma generate
    an associative subalgebra, so the eigenvector entry lam^i gamma
    (gamma lam^i) is act applied i times to gamma."""
    if not phi.is_monic():
        raise ValueError("eigenvalue tests require a monic polynomial")
    phi.algebra.check_same(lam.algebra)
    alg = phi.algebra

    def act(x):
        return lam * x if side == Side.LEFT else x * lam

    E, G, _ = class_form(phi, *alg.backend.cleared_invariants(lam.vec))
    columns = alg.backend.operator_columns(E.vec, G.vec, lam.vec, side == Side.RIGHT)
    kernel = alg.backend.nullspace(columns)
    if kernel is None:
        return MembershipReport(False)
    vec = [Octonion(alg, kernel)]
    for _ in range(phi.degree - 1):
        vec.append(act(vec[-1]))
    return MembershipReport(True, kernel_element=vec[0], eigenvector=tuple(vec))


def lev_test(phi: StandardPolynomial, lam: Octonion) -> MembershipReport:
    """Is lam a left eigenvalue of the companion matrix of phi?

    Equivalently: is lam a root of some one-sided twist of phi?  The witness
    gamma is a kernel vector of the left operator; the eigenvector is
    (1, lam, ..., lam^{n-1}) right-multiplied by gamma.
    """
    return _membership(phi, lam, Side.LEFT)


def rev_test(phi: StandardPolynomial, lam: Octonion) -> MembershipReport:
    """Is lam a right eigenvalue of the companion matrix of phi?

    Equivalently: is lam a root of some two-sided twist of phi.  The
    eigenvector is gamma times (1, lam, ..., lam^{n-1})."""
    return _membership(phi, lam, Side.RIGHT)


def _class_point_parts(phi, norm, trace, g):
    if not phi.is_monic():
        raise ValueError("class points require a monic polynomial")
    alg = phi.algebra
    red = reduce_to_linear(phi, norm, trace)
    einv = None if red.vanishes(phi, 0) else alg.backend.inverse(red.E.vec)
    if einv is None:
        raise ValueError(
            "E(N,T) vanishes or is numerically singular: the whole class "
            "consists of eigenvalues; use a class witness instead"
        )
    return Octonion(alg, einv), red.G, g.inverse()


def lev_class_point(phi, norm, trace, g: Octonion) -> Octonion:
    """The left-eigenvalue representative -(E^-1 g)(g^-1 G) of the class;
    sweeping g over invertible elements sweeps the class's whole LEV slice.

    ValueError when E vanishes (by the reduction's ``vanishes``, the rule
    ``resolve_class`` decides E = 0 by) or its inverse is numerically
    singular: then the class has no such point."""
    einv, G, ginv = _class_point_parts(phi, norm, trace, g)
    return -((einv * g) * (ginv * G))


def rev_class_point(phi, norm, trace, g: Octonion) -> Octonion:
    """The right-eigenvalue representative -g(E^-1(G g^-1)); over all g this
    is exactly the conjugacy class of -E^-1 G.  ValueError when E vanishes
    or is numerically singular, as for ``lev_class_point``."""
    einv, G, ginv = _class_point_parts(phi, norm, trace, g)
    return -(g * (einv * (G * ginv)))


def rev_classes(phi: StandardPolynomial):
    """Class candidates of the companion polynomial that embed into the
    algebra (the backend's ``embeds``): the right eigenvalue set is exactly
    the union of these classes."""
    if not phi.is_monic():
        raise ValueError("rev_classes requires a monic polynomial")
    return [
        cand
        for cand in central_roots(companion(phi), tol=phi.algebra.tol).candidates
        if cand.field_degree == 1 or phi.algebra.backend.embeds(cand.trace, cand.norm)
    ]


def verify_eigen_pair(C: CompanionMatrix, lam: Octonion, vec, side) -> bool:
    """Check C v == lam v (left) or C v == v lam (right) entrywise.

    Matrix-vector products multiply (matrix entry) * (vector entry), matching
    the coefficients-on-the-left convention.
    """
    if not isinstance(side, Side):
        side = Side(side)
    vec = tuple(vec)
    if len(vec) != C.degree:
        raise ValueError(
            "eigenvector length %d does not match matrix size %d"
            % (len(vec), C.degree)
        )
    if all(v.is_exactly_zero() for v in vec):
        raise ValueError("the zero vector is not an eigenvector")
    alg, ok = lam.algebra, True

    @functools.cache  # read at the first zero-at-scale test (float mode)
    def magnitudes():
        rows = [[x.magnitude() for x in row] for row in C.entries]
        return rows, [v.magnitude() for v in vec], lam.magnitude()

    for r in range(C.degree):
        acc = alg.zero
        for c in range(C.degree):
            acc = acc + C.entries[r][c] * vec[c]
        want = lam * vec[r] if side == Side.LEFT else vec[r] * lam

        def scale():
            rows, mv, mlam = magnitudes()
            return sum(rows[r][c] * mv[c] for c in range(C.degree)) + mlam * mv[r]

        ok = ok and (acc - want).is_zero(scale)
    return ok


def subalgebra_lev_check(phi: StandardPolynomial, lam: Octonion):
    """For quaternionic data (coefficients and lam in span(1, i, j, ij)):
    (left-eigenvalue membership, root of phi, root of the mirror
    sum_i lam^i c_i).

    Membership is equivalent to the disjunction of the two root tests; the
    left eigenvalues inside the quaternion subalgebra are exactly the roots
    of phi together with the roots of its mirror.  Conjugation reverses
    products, so lam roots the mirror exactly when conj(lam) roots
    sum_i conj(c_i) z^i.
    """
    phi.algebra.check_same(lam.algebra)

    def _in_quaternion_span(x):
        return all(c == 0 for c in x.coords[4:])

    if not all(_in_quaternion_span(c) for c in phi.coeffs) or not _in_quaternion_span(
        lam
    ):
        raise ValueError(
            "subalgebra_lev_check needs coefficients and lambda in span(1, i, j, ij)"
        )
    report = lev_test(phi, lam)
    conj_phi = StandardPolynomial(phi.algebra, [c.conj() for c in phi.coeffs])
    return (
        report.member,
        verify_root(phi, lam),
        verify_root(conj_phi, lam.conj()),
    )
