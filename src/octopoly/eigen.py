"""Companion matrices and their left / right eigenvalue decision procedures.

For a monic polynomial of degree n the companion matrix has superdiagonal 1s
and last row (-c_0, ..., -c_{n-1}).  Membership of lambda in the left (right)
eigenvalue set reduces to singularity of one 8x8 scalar operator: the
candidate eigenvector is forced, entry by entry, down to its first component
gamma, and the surviving condition is linear in gamma over the base field.
The kernel computation therefore replaces any search over twists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Octonion
from .central import MAX_CANDIDATE_PAIRS, central_roots
from .polynomials import Side, StandardPolynomial, companion, reduce_to_linear
from .solver import class_witness, verify_root


@dataclass(frozen=True)
class CompanionMatrix:
    """n x n octonion matrix: rows 0..n-2 carry a shifted identity, the last
    row carries the negated coefficients."""

    entries: tuple  # tuple of row tuples of Octonions
    degree: int

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]


def companion_matrix(phi: StandardPolynomial) -> CompanionMatrix:
    if phi.side != Side.LEFT:
        raise ValueError("companion_matrix is defined for left polynomials")
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


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of an eigenvalue membership test.  When ``member`` is true,
    ``kernel_element`` is a nonzero first eigenvector component and
    ``eigenvector`` the full reconstructed eigenvector."""

    member: bool
    kernel_element: Octonion | None = None
    eigenvector: tuple | None = None


def _operator_matrix(phi, lam, side):
    """The 8x8 scalar matrix of gamma -> sum_i c_i (lam^i gamma) + lam^n gamma
    (left) or gamma -> sum_i c_i (gamma lam^i) + gamma lam^n (right)."""
    alg = phi.algebra
    n = phi.degree
    powers = [alg.one]
    for _ in range(n):
        powers.append(lam * powers[-1])
    cols = []
    for b in range(8):
        e = alg.basis_element(b)
        if side == Side.LEFT:
            acc = powers[n] * e
            for i in range(n):
                acc = acc + phi.coeffs[i] * (powers[i] * e)
        else:
            acc = e * powers[n]
            for i in range(n):
                acc = acc + phi.coeffs[i] * (e * powers[i])
        cols.append(acc.coords)
    return [[cols[c][r] for c in range(8)] for r in range(8)], powers


def _membership(phi, lam, side):
    if not phi.is_monic():
        raise ValueError("eigenvalue tests require a monic polynomial")
    if phi.side != Side.LEFT:
        raise ValueError("eigenvalue tests are defined for left polynomials")
    phi.algebra.check_same(lam.algebra)
    alg = phi.algebra
    matrix, powers = _operator_matrix(phi, lam, side)
    kernel = alg.backend.nullspace(matrix)
    if kernel is None:
        return MembershipReport(False)
    gamma = alg.octonion(kernel)
    if side == Side.LEFT:
        vec = tuple(powers[i] * gamma for i in range(phi.degree))
    else:
        vec = tuple(gamma * powers[i] for i in range(phi.degree))
    return MembershipReport(True, kernel_element=gamma, eigenvector=vec)


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
    red = reduce_to_linear(phi, norm, trace)
    if phi.algebra.backend.all_zero(red.E.coords):
        raise ValueError(
            "E(N,T) = 0: the whole class consists of eigenvalues; "
            "use a class witness instead"
        )
    return red.E.inverse(), red.G, g.inverse()


def lev_class_point(phi, norm, trace, g: Octonion) -> Octonion:
    """The left-eigenvalue representative -(E^-1 g)(g^-1 G) of the class;
    sweeping g over invertible elements sweeps the class's whole LEV slice."""
    einv, G, ginv = _class_point_parts(phi, norm, trace, g)
    return -((einv * g) * (ginv * G))


def rev_class_point(phi, norm, trace, g: Octonion) -> Octonion:
    """The right-eigenvalue representative -g(E^-1(G g^-1)); over all g this
    is exactly the conjugacy class of -E^-1 G."""
    einv, G, ginv = _class_point_parts(phi, norm, trace, g)
    return -(g * (einv * (G * ginv)))


def rev_classes(phi: StandardPolynomial, max_pairs=MAX_CANDIDATE_PAIRS):
    """Class candidates of the companion polynomial that embed into the
    algebra: the right eigenvalue set is exactly the union of these classes."""
    if not phi.is_monic():
        raise ValueError("rev_classes requires a monic polynomial")
    found = central_roots(companion(phi), tol=phi.algebra.tol, max_pairs=max_pairs)
    out = []
    for cand in found.candidates:
        if cand.field_degree == 1:
            out.append(cand)
        elif class_witness(phi.algebra, cand.norm, cand.trace) is not None:
            out.append(cand)
    return out


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
    alg = lam.algebra
    ok = True
    for r in range(C.degree):
        acc = alg.zero
        for c in range(C.degree):
            acc = acc + C.entries[r][c] * vec[c]
        want = lam * vec[r] if side == Side.LEFT else vec[r] * lam

        def scale():
            return sum(
                C.entries[r][c].max_abs() * vec[c].max_abs()
                for c in range(C.degree)
            ) + lam.max_abs() * vec[r].max_abs()

        ok = ok and alg.backend.all_zero((acc - want).coords, scale)
    return ok


def subalgebra_lev_check(phi: StandardPolynomial, lam: Octonion):
    """For quaternionic data (coefficients and lam in span(1, i, j, ij)):
    (left-eigenvalue membership, root of phi, root of the mirror).

    Membership is equivalent to the disjunction of the two root tests; the
    left eigenvalues inside the quaternion subalgebra are exactly the roots
    of phi together with the roots of its mirror.
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
    return (
        report.member,
        verify_root(phi, lam),
        verify_root(phi.mirror(), lam),
    )
