"""Companion matrices and left/right eigenvalue machinery."""

import random
from fractions import Fraction

import pytest

from octopoly import (
    FULL_CLASS,
    SINGLE_ROOT,
    OctonionAlgebra,
    SingularElementError,
    Side,
    StandardPolynomial,
    companion,
    companion_matrix,
    lev_class_point,
    lev_test,
    parse_polynomial,
    reduce_to_linear,
    rev_class_point,
    rev_classes,
    rev_test,
    same_class,
    solve,
    subalgebra_lev_check,
    verify_eigen_pair,
)
from octopoly.algebra import Octonion
from conftest import rand_invertible, rand_octonion
from oracle import eg_coeffs, max_abs, nu, twist_left, twist_two_sided

F = Fraction


@pytest.fixture()
def psi(alg):
    return parse_polynomial("z^2 + i*z + (1 + k)", alg)


def test_companion_matrix_shapes(alg, psi):
    C = companion_matrix(psi)
    assert C.degree == 2
    assert C.entries[0] == (alg.zero, alg.one)
    assert C.entries[1] == (-(alg.one + alg.basis_element(3)), -alg.basis_element(1))
    lin = StandardPolynomial(alg, [alg.parse("2 + jl"), alg.one])
    C1 = companion_matrix(lin)
    assert C1.entries == ((-alg.parse("2 + jl"),),)
    cubic = parse_polynomial("z^3 + i*z^2 + j*z + l", alg)
    C3 = companion_matrix(cubic)
    assert C3.entries[0][1] == alg.one and C3.entries[1][2] == alg.one
    assert C3.entries[2] == (
        -alg.basis_element(4),
        -alg.basis_element(2),
        -alg.basis_element(1),
    )


def test_companion_matrix_requires_monic(alg):
    with pytest.raises(ValueError):
        companion_matrix(parse_polynomial("i*z^2 + j*z + l", alg))


def test_lev_golden(alg, psi):
    j = alg.basis_element(2)
    rep = lev_test(psi, j)
    assert rep.member
    assert rep.kernel_element == alg.basis_element(4)  # proportional to l
    rep2 = lev_test(psi, -j)
    assert rep2.member and rep2.kernel_element == alg.one
    assert not lev_test(psi, alg.one).member


def test_rev_golden(alg, psi):
    j = alg.basis_element(2)
    rep = rev_test(psi, -j)
    assert rep.member and rep.kernel_element == alg.one
    assert rep.eigenvector == (alg.one, -j)
    assert rev_test(psi, j).member  # conjugate of the root -j
    assert not rev_test(psi, alg.one).member


def test_membership_reports_verify(alg, psi):
    C = companion_matrix(psi)
    j = alg.basis_element(2)
    lev = lev_test(psi, j)
    assert verify_eigen_pair(C, j, lev.eigenvector, Side.LEFT)
    rev = rev_test(psi, j)
    assert verify_eigen_pair(C, j, rev.eigenvector, Side.RIGHT)


def test_lev_class_points(alg, psi):
    i, j, l = alg.basis_element(1), alg.basis_element(2), alg.basis_element(4)
    assert lev_class_point(psi, 1, 0, alg.one) == -j
    assert lev_class_point(psi, 1, 0, l) == j
    assert lev_class_point(psi, 1, 0, i) == -j
    for g in (alg.one, l, i, alg.parse("1 - 2*i + j - kl")):
        pt = lev_class_point(psi, 1, 0, g)
        assert lev_test(psi, pt).member


def test_rev_class_points(alg, psi, rng):
    j, l = alg.basis_element(2), alg.basis_element(4)
    assert rev_class_point(psi, 1, 0, alg.one) == -j
    assert rev_class_point(psi, 1, 0, l) == -j
    for _ in range(10):
        g = rand_invertible(rng, alg, -4, 4)
        pt = rev_class_point(psi, 1, 0, g)
        assert pt.invariants() == (0, 1)
        assert same_class(pt, -j)
        assert rev_test(psi, pt).member


def test_class_point_needs_nonzero_E(alg):
    sq = parse_polynomial("z^2 + 1", alg)
    with pytest.raises(ValueError):
        lev_class_point(sq, 1, 0, alg.one)


def full_class_family(k):
    """(phi, g), 100 draws: phi = psi(z)(z^2 - z + 1) over (-1,-1,-1) in
    float mode, so that its class (1, 1) is a full class of roots, with psi
    a monic cubic whose coordinates are uniform in [-1, 1] times 10^k, and g
    a twist parameter with coordinates uniform in [-1, 1]."""
    A = OctonionAlgebra(-1, -1, -1, mode="float")
    rng = random.Random("class point %g" % 10**k)
    for _ in range(100):
        psi = [A.octonion([rng.uniform(-1, 1) * 10**k for _ in range(8)]) for _ in range(3)]
        c = [A.zero, A.zero] + psi + [A.one, A.zero, A.zero]
        phi = StandardPolynomial(A, [c[m + 2] - c[m + 1] + c[m] for m in range(6)])
        yield phi, A.octonion([rng.uniform(-1, 1) for _ in range(8)])


@pytest.mark.parametrize("k", [4, 8, 12])
def test_class_points_refuse_exactly_the_full_classes(k):
    # the class points decide E = 0 by the rule resolve_class decides it
    # by: ValueError on each class solve reports full (never
    # SingularElementError, never a point off the class), a point wherever
    # it reports a single root
    for phi, g in full_class_family(k):
        full = 0
        for cand, res in solve(phi).classes:
            if res.status == FULL_CLASS:
                full += 1
                assert abs(cand.trace - 1) < 1e-6 and abs(cand.norm - 1) < 1e-6
                for point in (lev_class_point, rev_class_point):
                    with pytest.raises(ValueError):
                        point(phi, cand.norm, cand.trace, g)
            elif res.status == SINGLE_ROOT:
                for point in (lev_class_point, rev_class_point):
                    point(phi, cand.norm, cand.trace, g)
        assert full == 1


def test_class_points_refuse_a_numerically_singular_E():
    # on the class (0, 1) of z^2 + 1e-6 z + 2, E = 1e-6 is nonzero at its
    # scale sum_i nu(c_i) |e_i| = 1e-6, but Norm(E) = 1e-12 is zero at the
    # inverse's scale: ValueError, not SingularElementError
    A = OctonionAlgebra(-1, -1, -1, mode="float")
    phi = StandardPolynomial(A, [A.scalar_octonion(2.0), A.scalar_octonion(1e-6), A.one])
    red = reduce_to_linear(phi, 1, 0)
    assert red.E == A.scalar_octonion(1e-6) and not red.vanishes(phi, 0)
    with pytest.raises(SingularElementError):
        red.E.inverse()
    for point in (lev_class_point, rev_class_point):
        with pytest.raises(ValueError):
            point(phi, 1, 0, A.one)


def test_rev_classes_examples(alg, psi):
    assert [(c.trace, c.norm) for c in rev_classes(psi)] == [(0, 1), (0, 2)]
    sq = parse_polynomial("z^2 + 1", alg)
    got = rev_classes(sq)
    assert [(c.trace, c.norm, c.multiplicity) for c in got] == [(0, 1, 2)]
    lin = parse_polynomial("z - i", alg)
    assert [(c.trace, c.norm) for c in rev_classes(lin)] == [(0, 1)]


def test_rev_classes_by_norm_form_sign(alg):
    # 11 is no sum of two rational squares and 11/k is no square for
    # k = 1..7, but the pure norm form is positive definite of dimension 7,
    # so it represents 11: 3i + j + k is a right eigenvalue of z^2 + 11
    phi = parse_polynomial("z^2 + 11", alg)
    assert [(c.trace, c.norm) for c in rev_classes(phi)] == [(0, 11)]
    assert rev_test(phi, alg.parse("3*i + j + k")).member
    quartic = parse_polynomial("z^4 + 12*z^2 + 11", alg)
    assert [(c.trace, c.norm) for c in rev_classes(quartic)] == [(0, 1), (0, 11)]
    # z^2 - 2 has real roots +-sqrt(2), which are not rational
    assert rev_classes(parse_polynomial("z^2 - 2", alg)) == []


def test_verify_eigen_pair_examples(alg, psi):
    C = companion_matrix(psi)
    j = alg.basis_element(2)
    v = (alg.one, -j)
    assert verify_eigen_pair(C, -j, v, Side.RIGHT)
    assert verify_eigen_pair(C, -j, v, Side.LEFT)
    assert not verify_eigen_pair(C, alg.one, (alg.one, alg.one), Side.LEFT)
    with pytest.raises(ValueError):
        verify_eigen_pair(C, j, (alg.one,), Side.LEFT)
    with pytest.raises(ValueError):
        verify_eigen_pair(C, j, (alg.zero, alg.zero), Side.LEFT)


def test_subalgebra_check_golden(alg, psi):
    j = alg.basis_element(2)
    assert subalgebra_lev_check(psi, j) == (True, False, True)
    # -j roots psi but not the mirror: (-j)^2 + (-j)i + 1 + ij == 2ij
    assert subalgebra_lev_check(psi, -j) == (True, True, False)
    sq = parse_polynomial("z^2 + 1", alg)
    assert subalgebra_lev_check(sq, alg.one) == (False, False, False)
    with pytest.raises(ValueError):
        subalgebra_lev_check(psi, alg.basis_element(4))


def test_lev_subset_of_companion_roots(alg, rng):
    # member => the class divides the companion polynomial; members are
    # generated through the class-point parameterization so the sample is
    # not vacuous
    psi = parse_polynomial("z^2 + i*z + (1 + k)", alg)
    Phi = companion(psi)
    members = 0
    while members < 100:
        g = rand_invertible(rng, alg, -3, 3)
        cand = rev_classes(psi)[members % 2]
        lam = lev_class_point(psi, cand.norm, cand.trace, g)
        assert lev_test(psi, lam).member
        assert Phi(lam).is_exactly_zero()
        members += 1
    for _ in range(40):
        lam = rand_octonion(rng, alg, -2, 2)
        if lev_test(psi, lam).member:
            assert Phi(lam).is_exactly_zero()


def test_roots_pass_both_memberships(alg, rng):
    for _ in range(10):
        lam = rand_octonion(rng, alg, -2, 2)
        tail = [rand_octonion(rng, alg, -2, 2), alg.one]
        c0 = alg.zero
        power = alg.one
        for c in tail:
            power = lam * power
            c0 = c0 + c * power
        phi = StandardPolynomial(alg, [-c0] + tail)
        for root in solve(phi).roots:
            assert lev_test(phi, root).member
            assert rev_test(phi, root).member


def test_twist_roots_are_eigenvalues(alg, rng, psi):
    # roots of one-sided twists are left eigenvalues, roots of two-sided
    # twists are right eigenvalues
    for k in range(50):
        g = rand_invertible(rng, alg, -3, 3)
        for root in solve(twist_left(psi, g)).roots:
            assert lev_test(psi, root).member
        for root in solve(twist_two_sided(psi, g)).roots:
            assert rev_test(psi, root).member
        if k < 10:
            for cand in rev_classes(psi):
                assert lev_test(
                    psi, lev_class_point(psi, cand.norm, cand.trace, g)
                ).member
                assert rev_test(
                    psi, rev_class_point(psi, cand.norm, cand.trace, g)
                ).member


def test_orbit_equality(alg, rng):
    # invariants of gamma (e (g gamma^-1)) equal invariants of e*g, and the
    # trace-0 parameterization reproduces conjugation exactly
    for _ in range(50):
        e = rand_invertible(rng, alg, -4, 4)
        g = rand_invertible(rng, alg, -4, 4)
        gam = rand_invertible(rng, alg, -4, 4)
        lhs = gam * (e * (g * gam.inverse()))
        assert lhs.invariants() == (e * g).invariants()
    for _ in range(50):
        e = rand_invertible(rng, alg, -4, 4)
        g = rand_invertible(rng, alg, -4, 4)
        delta = rand_octonion(rng, alg, -4, 4).pure()
        if delta.norm() == 0:
            continue
        gam = delta * g
        left = gam * (e * (g * gam.inverse()))
        right = (delta * (g * e)) * delta.inverse()
        assert left == right


def test_proposition_sampling(alg, rng):
    # quaternionic data: membership iff root of phi or of its mirror
    for _ in range(25):
        deg = rng.randint(1, 4)
        coeffs = []
        for _ in range(deg):
            c = [rng.randint(-2, 2) for _ in range(4)] + [0, 0, 0, 0]
            coeffs.append(alg.octonion(c))
        coeffs.append(alg.one)
        phi = StandardPolynomial(alg, coeffs)
        for _ in range(5):
            lam = alg.octonion([rng.randint(-2, 2) for _ in range(4)] + [0, 0, 0, 0])
            member, is_root, is_mirror_root = subalgebra_lev_check(phi, lam)
            assert member == (is_root or is_mirror_root)


def test_float_membership(alg_float):
    psi = parse_polynomial("z^2 + i*z + (1 + k)", alg_float)
    j = alg_float.basis_element(2)
    rep = lev_test(psi, j)
    assert rep.member
    assert not lev_test(psi, alg_float.one).member
    assert rev_test(psi, -j).member


def _defining_residual(phi, lam, gamma, side):
    """sum_i c_i (lam^i gamma) (left) or sum_i c_i (gamma lam^i) (right),
    with every power lam^i built by repeated multiplication."""
    acc, power = phi.algebra.zero, phi.algebra.one
    for i, c in enumerate(phi.coeffs):
        if i:
            power = lam * power
        acc = acc + c * (power * gamma if side == Side.LEFT else gamma * power)
    return acc


def _check_member(phi, lam, side):
    """lam is a member on ``side``; its eigenvector verifies and its kernel
    element satisfies the defining condition."""
    rep = (lev_test if side == Side.LEFT else rev_test)(phi, lam)
    assert rep.member
    assert verify_eigen_pair(companion_matrix(phi), lam, rep.eigenvector, side)
    gamma = rep.kernel_element

    def scale():
        return sum(
            max_abs(c) * max_abs(lam) ** i * max_abs(gamma)
            for i, c in enumerate(phi.coeffs)
        )

    residual = _defining_residual(phi, lam, gamma, side)
    assert phi.algebra.backend.all_zero(residual.coords, scale)


def test_float_eigen_pairs_over_a_split_algebra():
    # the norm form of (-1, -1, 1) is indefinite, yet nu(x)^2 =
    # sum_k |q_k| x_k^2 bounds |N(x)|, so the scales of verify_eigen_pair
    # hold there too: the eigenvectors at a planted root verify on both
    # sides, and the same vectors fail for lam moved by 1e-6 nu(lam)
    A = OctonionAlgebra(-1, -1, 1, mode="float")
    rng = random.Random(25)
    for degree in (2, 3, 5, 8):
        lam = rand_octonion(rng, A, -1, 1)
        tail = [rand_octonion(rng, A, -1, 1) for _ in range(degree - 1)] + [A.one]
        c0 = sum((c * lam ** (i + 1) for i, c in enumerate(tail)), A.zero)
        phi = StandardPolynomial(A, [-c0] + tail)
        C = companion_matrix(phi)
        moved = lam + A.basis_element(1) * (1e-6 * lam.magnitude())
        for side, test in ((Side.LEFT, lev_test), (Side.RIGHT, rev_test)):
            rep = test(phi, lam)
            assert rep.member and verify_eigen_pair(C, lam, rep.eigenvector, side)
            assert not verify_eigen_pair(C, moved, rep.eigenvector, side)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_planted_memberships_generic_algebra(mode):
    # over (-2, -3, -5): a planted root of a monic phi is a member on both
    # sides and a conjugate of it a right eigenvalue, each with a verified
    # eigenvector and kernel element; an element outside every root class
    # is no right eigenvalue
    alg = OctonionAlgebra(-2, -3, -5, mode=mode)
    rng = random.Random(4)
    for deg in (2, 2, 3, 3, 4, 4, 5, 5):
        lam = rand_octonion(rng, alg, -1, 1)
        tail = [rand_octonion(rng, alg, -1, 1) for _ in range(deg - 1)] + [alg.one]
        c0, power = alg.zero, alg.one
        for c in tail:
            power = lam * power
            c0 = c0 + c * power
        phi = StandardPolynomial(alg, [-c0] + tail)
        _check_member(phi, lam, Side.LEFT)
        _check_member(phi, lam, Side.RIGHT)
        d = rand_invertible(rng, alg, -1, 1)
        _check_member(phi, (d * lam) * d.inverse(), Side.RIGHT)
        Phi = companion(phi)
        other = rand_octonion(rng, alg, -1, 1)

        def scale():
            return sum(abs(b) * max_abs(other) ** k for k, b in enumerate(Phi.coeffs))

        assert not alg.backend.all_zero(Phi(other).coords, scale)
        assert not rev_test(phi, other).member


@pytest.mark.parametrize("params", [(-1, -1, -1), (-2, -3, -5)])
def test_eigenvector_equals_the_reduced_powers(params):
    # the eigenvector entry lam^i gamma (left) or gamma lam^i (right) equals
    # e_i act(gamma) + g_i gamma, its reduction on lam's class; checked on
    # planted roots, on conjugates of them (right) and on left-eigenvalue
    # class points (left)
    alg = OctonionAlgebra(*params)
    rng = random.Random(16)
    for deg in (2, 3, 3, 4, 5, 6):
        lam = rand_octonion(rng, alg, -2, 2)
        tail = [rand_octonion(rng, alg, -2, 2) for _ in range(deg - 1)] + [alg.one]
        c0, power = alg.zero, alg.one
        for c in tail:
            power = lam * power
            c0 = c0 + c * power
        phi = StandardPolynomial(alg, [-c0] + tail)
        trace, norm = lam.invariants()
        g = rand_invertible(rng, alg, -2, 2)
        d = rand_invertible(rng, alg, -2, 2)
        points = [
            (Side.LEFT, lam),
            (Side.LEFT, lev_class_point(phi, norm, trace, g)),
            (Side.RIGHT, lam),
            (Side.RIGHT, (d * lam) * d.inverse()),
        ]
        for side, point in points:
            rep = (lev_test if side == Side.LEFT else rev_test)(phi, point)
            assert rep.member
            gamma = rep.kernel_element
            moved = point * gamma if side == Side.LEFT else gamma * point
            eg = [eg_coeffs(norm, trace, i) for i in range(deg)]
            assert rep.eigenvector == tuple(moved * e_i + gamma * g_i for e_i, g_i in eg)


def _column_coord(rng, mode):
    if mode == "float":
        return rng.choice([0.0, -0.0, rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 7)])
    return rng.choice([0, F(rng.randint(-9, 9), rng.randint(1, 6))])


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("params", [(-1, -1, -1), (-2, -3, -5), (F(-1, 2), -3, F(-5, 7))])
def test_operator_columns_are_the_products(mode, params, rng):
    # the columns read off the structure table equal E act(e_b) + G e_b by
    # octonion products: exactly, and in float mode bitwise, signed zeros too
    A = OctonionAlgebra(*params, mode=mode)
    for _ in range(60):
        E, G, lam = (A.octonion([_column_coord(rng, mode) for _ in range(8)]) for _ in range(3))
        for right in (False, True):
            columns = A.backend.operator_columns(E.vec, G.vec, lam.vec, right)
            for b, col in enumerate(columns):
                e = A.basis_element(b)
                want = E * (e * lam if right else lam * e) + G * e
                if mode == "float":
                    assert [x.hex() for x in col] == [x.hex() for x in want.vec]
                else:
                    nums, den = col
                    assert tuple(F(n, den) for n in nums) == want.coords


def test_verify_eigen_pair_reads_each_magnitude_once(monkeypatch):
    # one magnitude() per matrix entry, vector entry and lam per check, at
    # the first row's zero test; row r's scale is
    # sum_c nu(C[r, c]) nu(v_c) + nu(lam) nu(v_r), bit for bit
    A = OctonionAlgebra(-1, -1, -1, mode="float")
    rng = random.Random(19)
    lam = rand_octonion(rng, A, -2, 2)
    tail = [rand_octonion(rng, A, -2, 2) for _ in range(3)] + [A.one]
    c0 = sum((c * lam**(i + 1) for i, c in enumerate(tail)), A.zero)
    phi = StandardPolynomial(A, [-c0] + tail)
    rep = rev_test(phi, lam)
    C, vec = companion_matrix(phi), rep.eigenvector
    scales, calls = [], []
    backend, magnitude = type(A.backend), Octonion.magnitude

    def spy(self, v, scale=None):
        scales.append(scale())
        return True

    def counted(x):
        calls.append(x)
        return magnitude(x)

    monkeypatch.setattr(backend, "vector_is_zero", spy)
    monkeypatch.setattr(Octonion, "magnitude", counted)
    assert verify_eigen_pair(C, lam, vec, Side.RIGHT)
    assert len(calls) == C.degree**2 + C.degree + 1
    monkeypatch.undo()
    for r, scale in enumerate(scales):
        want = sum(nu(C.entries[r][c]) * nu(vec[c]) for c in range(C.degree)) + nu(lam) * nu(vec[r])
        assert scale.hex() == want.hex()
