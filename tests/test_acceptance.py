"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings as they complete.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from octopoly import (
    CentralPolynomial,
    OctonionAlgebra,
    SINGLE_ROOT,
    StandardPolynomial,
    bilinear_form,
    companion,
    eval_at,
    lev_test,
    parse_polynomial,
    rev_classes,
    rev_test,
    same_class,
    solve,
    subalgebra_lev_check,
    verify_root,
)
from oracle import max_abs

F = Fraction

ALG = OctonionAlgebra(-1, -1, -1)
ALG_F = OctonionAlgebra(-1, -1, -1, mode="float")


@contextmanager
def criterion(num, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d FAIL (%.2fs): %s" % (num, time.monotonic() - start, description))
        raise
    print("ACCEPTANCE %d PASS (%.2fs): %s" % (num, time.monotonic() - start, description))


def _rand_oct(rng, algebra, span):
    if algebra.mode == "float":
        return algebra.octonion([rng.uniform(-span, span) for _ in range(8)])
    return algebra.octonion([rng.randint(-span, span) for _ in range(8)])


def _rand_invertible(rng, algebra, span):
    while True:
        x = _rand_oct(rng, algebra, span)
        n = x.norm()
        if (algebra.mode == "exact" and n != 0) or (
            algebra.mode == "float" and abs(n) > 1e-2
        ):
            return x


def _plant(rng, algebra, degree, span):
    lam = _rand_oct(rng, algebra, span)
    tail = [_rand_oct(rng, algebra, span) for _ in range(degree - 1)] + [algebra.one]
    c0 = algebra.zero
    power = algebra.one
    for c in tail:
        power = lam * power
        c0 = c0 + c * power
    return StandardPolynomial(algebra, [-c0] + tail), lam


def test_criterion_1_quadratic_golden_example():
    with criterion(1, "quadratic golden example, exact mode, < 1 s"):
        start = time.monotonic()
        phi = parse_polynomial("i*z^2 + j*z + l", ALG)
        rep = solve(phi)
        assert rep.companion == CentralPolynomial([1, 0, 1, 0, 1])
        r1 = ALG.parse("1/2 + 1/2*k + 1/2*il + 1/2*jl")
        r2 = ALG.parse("-1/2 + 1/2*k - 1/2*il + 1/2*jl")
        assert set(rep.roots) == {r1, r2}
        assert all(res.status == SINGLE_ROOT for _, res in rep.classes)
        assert len(rep.classes) == 2
        assert time.monotonic() - start < 1.0


def test_criterion_2_lev_not_root_golden():
    with criterion(2, "left eigenvalue that is not a root, exact mode, < 1 s"):
        start = time.monotonic()
        psi = parse_polynomial("z^2 + i*z + (1 + k)", ALG)
        j = ALG.basis_element(2)
        assert not verify_root(psi, j)
        assert eval_at(psi, j) == 2 * ALG.basis_element(3)  # residual exactly 2ij
        lev = lev_test(psi, j)
        assert lev.member
        kern = lev.kernel_element
        l = ALG.basis_element(4)
        assert kern.coords[4] != 0
        assert kern == l * kern.coords[4]  # proportional to l
        assert rev_test(psi, j).member
        assert subalgebra_lev_check(psi, j) == (True, False, True)
        assert time.monotonic() - start < 1.0


def test_criterion_3_derived_quartic_pipeline():
    with criterion(3, "derived quartic pipeline, exact equality"):
        psi = parse_polynomial("z^2 + i*z + (1 + k)", ALG)
        rep = solve(psi)
        mj = -ALG.basis_element(2)
        mij = -ALG.basis_element(1) - ALG.basis_element(2)
        assert set(rep.roots) == {mj, mij}
        assert [(c.trace, c.norm) for c in rev_classes(psi)] == [(0, 1), (0, 2)]
        for root in rep.roots:
            assert lev_test(psi, root).member
            assert rev_test(psi, root).member


def _identity_suite_exact(rng, rounds):
    one = ALG.one
    for _ in range(rounds):
        x = _rand_oct(rng, ALG, 10)
        y = _rand_oct(rng, ALG, 10)
        z = _rand_oct(rng, ALG, 10)
        xy = x * y
        xx = x * x
        yx = y * x
        # alternativity
        assert x * xy == xx * y
        assert yx * x == y * xx
        # flexibility
        xyx = xy * x
        assert xyx == x * yx
        # Moufang identities
        zx = z * x
        assert xy * zx == (x * (y * z)) * x
        assert xyx * z == x * (y * (x * z))
        # norm multiplicativity and the characteristic equation
        assert xy.norm() == x.norm() * y.norm()
        t, n = x.invariants()
        assert xx - t * x + n * one == ALG.zero
        # conj anti-homomorphism
        assert xy.conj() == y.conj() * x.conj()
        # conjugation preserves (trace, norm)
        if z.norm() != 0:
            assert ((z * x) * z.inverse()).invariants() == x.invariants()
        else:
            d = _rand_invertible(rng, ALG, 10)
            assert ((d * x) * d.inverse()).invariants() == x.invariants()
        # bilinear adjoint identity
        assert bilinear_form(xy, z) == bilinear_form(y, x.conj() * z)


def _identity_suite_float(rng, rounds, rel_bound=1e-9):
    def close(a, b):
        scale = max(1.0, max_abs(a), max_abs(b))
        return max(abs(u - v) for u, v in zip(a.coords, b.coords)) <= rel_bound * scale

    def close_s(a, b):
        return abs(a - b) <= rel_bound * max(1.0, abs(a), abs(b))

    one = ALG_F.one
    for _ in range(rounds):
        x = _rand_oct(rng, ALG_F, 10)
        y = _rand_oct(rng, ALG_F, 10)
        z = _rand_oct(rng, ALG_F, 10)
        xy = x * y
        xx = x * x
        yx = y * x
        assert close(x * xy, xx * y)
        assert close(yx * x, y * xx)
        xyx = xy * x
        assert close(xyx, x * yx)
        zx = z * x
        assert close(xy * zx, (x * (y * z)) * x)
        assert close(xyx * z, x * (y * (x * z)))
        assert close_s(xy.norm(), x.norm() * y.norm())
        t, n = x.invariants()
        resid = xx - t * x + n * one
        assert max_abs(resid) <= rel_bound * max(1.0, max_abs(xx))
        assert close(xy.conj(), y.conj() * x.conj())
        d = _rand_invertible(rng, ALG_F, 10)
        ti, ni = ((d * x) * d.inverse()).invariants()
        t0, n0 = x.invariants()
        assert close_s(ti, t0) and close_s(ni, n0)
        assert close_s(bilinear_form(xy, z), bilinear_form(y, x.conj() * z))


def test_criterion_4_identity_suite():
    with criterion(4, "identity suite, 1000 samples per identity, both modes, < 10 s"):
        start = time.monotonic()
        _identity_suite_exact(random.Random(0xA11CE), 1000)
        _identity_suite_float(random.Random(0xB0B), 1000)
        assert time.monotonic() - start < 10.0


def test_criterion_5_companion_identity():
    with criterion(5, "companion identity at 100 polynomials x 10 points, exact"):
        rng = random.Random(0x5EED)
        for _ in range(100):
            deg = rng.randint(1, 5)
            coeffs = [_rand_oct(rng, ALG, 3) for _ in range(deg)]
            coeffs.append(_rand_invertible(rng, ALG, 3))
            phi = StandardPolynomial(ALG, coeffs)
            Phi = companion(phi)
            for _ in range(10):
                z = _rand_oct(rng, ALG, 3)
                powers = [ALG.one]
                for _ in range(deg):
                    powers.append(z * powers[-1])
                val = eval_at(phi, z)
                rhs = ALG.zero
                for i, c in enumerate(phi.coeffs):
                    rhs = rhs + c.conj() * (val * powers[i])
                assert Phi(z) == rhs


def test_criterion_6_planted_root_recovery():
    with criterion(6, "planted-root recovery, 100 exact + 100 float, < 60 s"):
        start = time.monotonic()
        rng = random.Random(0x9A9A)
        for _ in range(100):
            phi, lam = _plant(rng, ALG, rng.randint(2, 5), 3)
            rep = solve(phi)
            recovered = lam in rep.roots or any(
                lam.invariants() == (t, n) for t, n, _ in rep.full_classes
            )
            assert recovered, "exact planted root lost"
        for _ in range(100):
            phi, lam = _plant(rng, ALG_F, rng.randint(2, 5), 2)
            rep = solve(phi)
            assert rep.roots, "float planted root lost"
            best = min(
                max(abs(a - b) for a, b in zip(r.coords, lam.coords))
                for r in rep.roots
            )
            assert best < 1e-8
        assert time.monotonic() - start < 60.0


def test_criterion_7_rev_equals_companion_roots():
    with criterion(7, "right eigenvalues sample the full classes, exact"):
        rng = random.Random(0x7E57)
        for k in range(20):
            deg = 2 if k < 10 else 3
            phi, _ = _plant(rng, ALG, deg, 2)
            rep = solve(phi)
            class_keys = {(c.trace, c.norm) for c, _ in rep.classes}
            for root in rep.roots:
                for _ in range(50):
                    d = _rand_invertible(rng, ALG, 2)
                    conj_elt = (d * root) * d.inverse()
                    assert same_class(conj_elt, root)
                    assert rev_test(phi, conj_elt).member
            for _ in range(50):
                x = _rand_oct(rng, ALG, 3)
                if x.invariants() in class_keys:
                    continue
                assert not rev_test(phi, x).member


def test_criterion_8_orbit_equality():
    with criterion(8, "twist orbit equals the conjugation orbit, exact"):
        rng = random.Random(0x0B17)
        for _ in range(100):
            e = _rand_invertible(rng, ALG, 4)
            g = _rand_invertible(rng, ALG, 4)
            gam = _rand_invertible(rng, ALG, 4)
            lhs = gam * (e * (g * gam.inverse()))
            assert lhs.invariants() == (e * g).invariants()
        done = 0
        while done < 100:
            e = _rand_invertible(rng, ALG, 4)
            g = _rand_invertible(rng, ALG, 4)
            delta = _rand_oct(rng, ALG, 4).pure()
            if delta.norm() == 0:
                continue
            gam = delta * g
            assert gam * (e * (g * gam.inverse())) == (delta * (g * e)) * delta.inverse()
            done += 1


def test_criterion_9_quaternionic_membership_equivalence():
    with criterion(9, "quaternionic membership == root-or-mirror-root, exact"):
        rng = random.Random(0x9999)
        for _ in range(100):
            deg = rng.randint(1, 4)
            coeffs = [
                ALG.octonion([rng.randint(-2, 2) for _ in range(4)] + [0] * 4)
                for _ in range(deg)
            ]
            coeffs.append(ALG.one)
            phi = StandardPolynomial(ALG, coeffs)
            for _ in range(10):
                lam = ALG.octonion(
                    [rng.randint(-2, 2) for _ in range(4)] + [0] * 4
                )
                member, root, mirror_root = subalgebra_lev_check(phi, lam)
                assert member == (root or mirror_root)
