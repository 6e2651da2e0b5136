"""The end-to-end solver: class resolution, witnesses, verification."""

import random
from fractions import Fraction

import pytest

from octopoly import (
    FULL_CLASS,
    NOT_EMBEDDABLE,
    OctonionAlgebra,
    SINGLE_ROOT,
    StandardPolynomial,
    UnsupportedAlgebraError,
    ClassCandidate,
    class_witness,
    eval_at,
    parse_polynomial,
    resolve_class,
    rev_classes,
    rev_test,
    solve,
    verify_root,
)
from conftest import rand_invertible, rand_octonion

F = Fraction


def _plant(rng, algebra, degree, span=2):
    """Monic polynomial with a planted root lam*: c_0 = -sum_{i>=1} c_i lam^i."""
    lam = rand_octonion(rng, algebra, -span, span)
    tail = [rand_octonion(rng, algebra, -span, span) for _ in range(degree - 1)]
    tail.append(algebra.one)
    c0 = algebra.zero
    power = algebra.one
    for c in tail:
        power = lam * power
        c0 = c0 + c * power
    return StandardPolynomial(algebra, [-c0] + tail), lam


def test_solve_golden_quadratic(alg):
    phi = parse_polynomial("i*z^2 + j*z + l", alg)
    rep = solve(phi)
    assert tuple(rep.companion.coeffs) == (F(1), F(0), F(1), F(0), F(1))
    assert [r.status for _, r in rep.classes] == [SINGLE_ROOT, SINGLE_ROOT]
    r1 = alg.parse("1/2 + 1/2*k + 1/2*il + 1/2*jl")
    r2 = alg.parse("-1/2 + 1/2*k - 1/2*il + 1/2*jl")
    assert set(rep.roots) == {r1, r2}
    assert rep.warnings == ()


def test_solve_full_class(alg):
    rep = solve(parse_polynomial("z^2 + 1", alg))
    assert len(rep.classes) == 1
    cand, res = rep.classes[0]
    assert (cand.trace, cand.norm, cand.multiplicity) == (0, 1, 2)
    assert res.status == FULL_CLASS
    assert res.witness == alg.basis_element(1)
    assert rep.roots == ()
    assert rep.full_classes == ((F(0), F(1), alg.basis_element(1)),)


def test_solve_full_class_three_directions(alg):
    # 3 is no sum of two rational squares, so no one- or two-direction
    # witness exists; equal coordinates on three directions give i + j + k
    phi = parse_polynomial("z^2 + 3", alg)
    rep = solve(phi)
    [(cand, res)] = rep.classes
    assert (cand.trace, cand.norm) == (0, 3)
    assert res.status == FULL_CLASS
    assert res.witness == alg.parse("i + j + k")
    assert rep.warnings == ()
    assert [(c.trace, c.norm) for c in rev_classes(phi)] == [(0, 3)]
    assert rev_test(phi, alg.parse("i + j + k")).member


def test_solve_derived_quartic(alg):
    phi = parse_polynomial("z^2 + i*z + (1 + k)", alg)
    rep = solve(phi)
    mj = -alg.basis_element(2)
    mij = -alg.basis_element(1) - alg.basis_element(2)
    assert set(rep.roots) == {mj, mij}
    assert [(c.trace, c.norm) for c, _ in rep.classes] == [(0, 1), (0, 2)]


def test_real_quadratic_classes_are_not_embeddable():
    # the norm form of a division algebra is positive definite, so the class
    # of an irreducible quadratic with real roots (trace^2 > 4 norm) is
    # empty, and solve says so without a warning
    A = OctonionAlgebra(-2, -3, -5)
    for text, classes in [
        ("z^2 - 2", [(0, -2)]),
        ("z^4 - 5*z^2 + 6", [(0, -3), (0, -2)]),
    ]:
        rep = solve(parse_polynomial(text, A))
        assert [(c.trace, c.norm) for c, _ in rep.classes] == classes
        assert all(r.status == NOT_EMBEDDABLE for _, r in rep.classes)
        assert rep.warnings == ()


def test_resolve_class_examples(alg):
    phi = parse_polynomial("i*z^2 + j*z + l", alg)
    res = resolve_class(phi, ClassCandidate(F(1), F(1), 2, 1))
    assert res.status == SINGLE_ROOT
    assert res.root == alg.parse("1/2 + 1/2*k + 1/2*il + 1/2*jl")
    psi = parse_polynomial("z^2 + i*z + (1 + k)", alg)
    res = resolve_class(psi, ClassCandidate(F(0), F(1), 2, 1))
    assert res.status == SINGLE_ROOT and res.root == -alg.basis_element(2)
    sq = parse_polynomial("z^2 + 1", alg)
    res = resolve_class(sq, ClassCandidate(F(0), F(1), 2, 2))
    assert res.status == FULL_CLASS and res.witness == alg.basis_element(1)


def test_class_witness(alg):
    assert class_witness(alg, 1, 0) == alg.basis_element(1)
    w = class_witness(alg, 2, 0)
    assert w == alg.basis_element(1) + alg.basis_element(2)
    assert class_witness(alg, 1, 2) == alg.one
    w = class_witness(alg, F(5, 4), 1)  # s = 1: half-integer trace part
    assert w is not None and w.invariants() == (1, F(5, 4))


def test_class_witness_searches_each_binary_form_once(alg, monkeypatch):
    # over (-1,-1,-1) all 21 direction pairs give the form x^2 + y^2, and 3
    # is no sum of two rational squares: one pass over the heights must do
    calls = []
    sqrt = alg.backend.sqrt
    monkeypatch.setattr(alg.backend, "sqrt", lambda x: calls.append(x) or sqrt(x))
    w = class_witness(alg, 3, 0)
    assert w == alg.basis_element(1) + alg.basis_element(2) + alg.basis_element(3)
    assert len(calls) < 5000


def test_class_witness_float(alg_float):
    w = class_witness(alg_float, 2.0, 0.0)
    t, n = w.invariants()
    assert abs(t) < 1e-12 and abs(n - 2.0) < 1e-12
    assert class_witness(alg_float, -1.0, 0.0) is None  # negative pure norm


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_each_emitted_root_is_verified_once(mode, monkeypatch):
    # resolve_class is the one place that verifies: every emitted root or
    # witness is the argument of exactly one verify_root call, which it
    # passed, and no other call is made
    from octopoly import solver

    calls = []

    def counted(phi, lam):
        ok = verify_root(phi, lam)
        calls.append((lam, ok))
        return ok

    monkeypatch.setattr(solver, "verify_root", counted)
    A = OctonionAlgebra(-1, -1, -1, mode=mode)
    for text in ("i*z^2 + j*z + l", "z^2 + 1", "z^3 - 3*z^2 + 5*z - 6", "z^2 + i*z + (1 + k)"):
        calls.clear()
        rep = solve(parse_polynomial(text, A))
        emitted = list(rep.roots) + [w for _, _, w in rep.full_classes]
        assert emitted
        assert len(calls) == len(emitted)
        for x in emitted:
            assert [ok for lam, ok in calls if lam is x] == [True]


def test_verify_root_examples(alg):
    phi = parse_polynomial("i*z^2 + j*z + l", alg)
    assert verify_root(phi, alg.parse("1/2 + 1/2*k + 1/2*il + 1/2*jl"))
    psi = parse_polynomial("z^2 + i*z + (1 + k)", alg)
    j = alg.basis_element(2)
    assert not verify_root(psi, j)
    assert eval_at(psi, j) == 2 * alg.basis_element(3)
    c0 = alg.parse("1 + il")
    lin = StandardPolynomial(alg, [-c0, alg.one])
    assert verify_root(lin, c0)


def test_solve_rejects_constants_and_splits(alg):
    with pytest.raises(ValueError):
        solve(StandardPolynomial(alg, [alg.one]))
    split = OctonionAlgebra(-1, -1, 1)
    with pytest.raises(UnsupportedAlgebraError):
        solve(parse_polynomial("z + i", split))


def test_planted_roots_exact(alg, rng):
    for _ in range(25):
        phi, lam = _plant(rng, alg, rng.randint(2, 5))
        rep = solve(phi)
        assert lam in rep.roots or any(
            lam.invariants() == (t, n) for t, n, _ in rep.full_classes
        )
        for root in rep.roots:
            assert verify_root(phi, root)


def test_planted_roots_float(alg_float, rng):
    for _ in range(25):
        phi, lam = _plant(rng, alg_float, rng.randint(2, 4))
        rep = solve(phi)
        assert rep.roots, "planted root lost: %r" % (rep.classes,)
        best = min(max(abs(a - b) for a, b in zip(r.coords, lam.coords)) for r in rep.roots)
        assert best < 1e-8


@pytest.mark.parametrize("params", [(-1, -1, -1), (-2, -3, -5)])
def test_planted_roots_float_grid(params):
    # degree 4-16 with coordinates in [-1, 1] and [-2, 2], five seeds each:
    # every planted root is reported within 1e-6
    A = OctonionAlgebra(*params, mode="float")
    rng = random.Random(20261018)
    for degree in (4, 8, 12, 16):
        for span in (1, 2):
            for _ in range(5):
                phi, lam = _plant(rng, A, degree, span)
                rep = solve(phi)
                best = min((max(map(abs, (r - lam).coords)) for r in rep.roots), default=1.0)
                assert best < 1e-6, (degree, span, rep.classes)


def test_class_dichotomy_sampling(alg, rng):
    # with E != 0 the reported root is the only one in its class
    phi = parse_polynomial("z^2 + i*z + (1 + k)", alg)
    rep = solve(phi)
    for (cand, res) in rep.classes:
        assert res.status == SINGLE_ROOT
        w = class_witness(alg, cand.norm, cand.trace)
        for _ in range(50):
            delta = rand_invertible(rng, alg, -3, 3)
            other = (delta * w) * delta.inverse()
            assert other.invariants() == (cand.trace, cand.norm)
            if other != res.root:
                assert not verify_root(phi, other)


def test_candidate_coverage(alg, rng):
    for _ in range(10):
        phi, _ = _plant(rng, alg, 3)
        rep = solve(phi)
        keys = {(c.trace, c.norm) for c, _ in rep.classes}
        for root in rep.roots:
            t, n = root.invariants()
            assert (t, n) in keys


def test_float_solve_matches_exact(alg, alg_float):
    exact = solve(parse_polynomial("i*z^2 + j*z + l", alg))
    flt = solve(parse_polynomial("i*z^2 + j*z + l", alg_float))
    assert len(flt.roots) == 2
    for fr in flt.roots:
        best = min(
            max(abs(a - float(b)) for a, b in zip(fr.coords, er.coords))
            for er in exact.roots
        )
        assert best < 1e-10


def test_float_full_class(alg_float):
    rep = solve(parse_polynomial("z^2 + 1", alg_float))
    assert len(rep.classes) == 1
    cand, res = rep.classes[0]
    assert res.status == FULL_CLASS
    # the companion is (z^2+1)^2; the double root limits the class data to
    # ~sqrt(machine eps) accuracy, which the witness then inherits
    assert abs(res.witness.norm() - 1.0) < 1e-7
    assert abs(res.witness.trace()) < 1e-7


def test_report_echo(alg):
    phi = parse_polynomial("z^2 + 1", alg)
    rep = solve(phi)
    assert rep.polynomial == phi
    assert rep.mode == "exact"
    assert rep.algebra is alg
