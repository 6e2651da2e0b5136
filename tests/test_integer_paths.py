"""The exact paths on integers.  The kernel routine and the power reduction
are checked against their former Fraction versions in ``oracle``, through
``solve`` and both eigenvalue tests too, and a budget bounds the Fractions
that exact ``solve``, ``lev_test`` and ``rev_test`` build."""

import cProfile
import math
import pstats
import random
from fractions import Fraction
from pathlib import Path

import pytest

from octopoly import (
    OctonionAlgebra,
    StandardPolynomial,
    lev_class_point,
    lev_test,
    reduce_to_linear,
    rev_test,
    solve,
)
from octopoly.linalg import exact_nullspace_vector
from oracle import fraction_nullspace_vector, fraction_reduce_to_linear, oct_conj, oct_mul, oct_norm

F = Fraction
PARAMS = (F(-1, 2), F(-3), F(-5, 7))


@pytest.fixture(scope="module")
def A():
    return OctonionAlgebra(*PARAMS)


def _rank_matrix(rng, rank):
    """An 8x8 integer matrix of rank exactly ``rank``: P Q with P (8 x rank)
    holding an identity block in random rows and Q (rank x 8) one in random
    columns, so both have full rank."""
    P = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(8)]
    Q = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(rank)]
    for j, (r, c) in enumerate(zip(rng.sample(range(8), rank), rng.sample(range(8), rank))):
        P[r] = [int(k == j) for k in range(rank)]
        for k in range(rank):
            Q[k][c] = int(k == j)
    return [[sum(P[i][k] * Q[k][j] for k in range(rank)) for j in range(8)] for i in range(8)]


def _same_kernel(rows):
    got, want = exact_nullspace_vector(rows), fraction_nullspace_vector(rows)
    if want is None:
        return got is None
    nums, den = got
    return den > 0 and math.gcd(den, *nums) == 1 and [F(n, den) for n in nums] == want


def test_integer_back_substitution_matches_the_fraction_reference():
    rng = random.Random(20261019)
    for rank in range(8):  # 125 singular matrices of each rank 0-7
        for _ in range(125):
            rows = _rank_matrix(rng, rank)
            assert _same_kernel(rows), rows
            nums, den = exact_nullspace_vector(rows)
            assert all(sum(a * x for a, x in zip(row, nums)) == 0 for row in rows)
    regular = 0
    for _ in range(100):
        rows = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
        assert _same_kernel(rows), rows
        regular += exact_nullspace_vector(rows) is None
    assert regular >= 90


def _element(rng, A, max_den=3):
    return A.octonion([F(rng.randint(-3, 3), rng.randint(1, max_den)) for _ in range(8)])


def _mixed_class(rng, A):
    """An element whose trace and norm have different denominators."""
    while True:
        x = _element(rng, A)
        t, n = x.invariants()
        if t.denominator != n.denominator:
            return x


def _planted(rng, A, degree, monic):
    """(phi, r): a degree-n polynomial with the root r, whose class has
    den T != den N."""
    r = _mixed_class(rng, A)
    lead = A.one if monic else _element(rng, A, 2)
    while lead.norm() == 0:
        lead = _element(rng, A, 2)
    tail = [_element(rng, A) for _ in range(degree - 1)] + [lead]
    c0, power = A.zero, A.one
    for c in tail:
        power = r * power
        c0 = c0 + c * power
    return StandardPolynomial(A, [-c0] + tail), r


def _reference_form(phi, norm, trace):
    return fraction_reduce_to_linear([c.coords for c in phi.coeffs], norm, trace)


def test_reduce_to_linear_matches_the_fraction_recurrence(A):
    rng = random.Random(7)
    mixed = 0
    for _ in range(300):
        phi = StandardPolynomial(A, [_element(rng, A) for _ in range(rng.randint(2, 7))])
        trace = F(rng.randint(-9, 9), rng.randint(1, 12))
        norm = F(rng.randint(-9, 30), rng.randint(1, 12))
        mixed += trace.denominator != norm.denominator
        red = reduce_to_linear(phi, norm, trace)
        assert (red.E.coords, red.G.coords) == _reference_form(phi, norm, trace)
        assert (red.norm, red.trace) == (norm, trace)
    assert mixed >= 200


def test_solve_reduces_mixed_denominator_classes_as_the_reference(A):
    rng = random.Random(11)
    q = PARAMS
    for degree in (2, 3, 4):
        for monic in (True, False):
            phi, r = _planted(rng, A, degree, monic)
            report = solve(phi)
            assert r in report.roots
            for cand, res in report.classes:
                if res.root is None:
                    continue
                E, G = _reference_form(phi, cand.norm, cand.trace)
                red = reduce_to_linear(phi, cand.norm, cand.trace)
                assert (red.E.coords, red.G.coords) == (E, G)
                einv = tuple(x / oct_norm(E, *q) for x in oct_conj(E))
                assert res.root.coords == tuple(-x for x in oct_mul(einv, G, *q))


def _reference_membership(phi, lam, side):
    """The kernel vector of the left or right operator built from the
    Fraction reduction and products of ``oracle``, or None."""
    t, n = lam.invariants()
    E, G = _reference_form(phi, n, t)
    lam_c, cols = lam.coords, []
    for b in range(8):
        e = tuple(F(int(k == b)) for k in range(8))
        act = oct_mul(lam_c, e, *PARAMS) if side == "left" else oct_mul(e, lam_c, *PARAMS)
        cols.append([x + y for x, y in zip(oct_mul(E, act, *PARAMS), oct_mul(G, e, *PARAMS))])
    den = math.lcm(*(x.denominator for col in cols for x in col))
    return fraction_nullspace_vector([[int(col[k] * den) for col in cols] for k in range(8)])


@pytest.mark.parametrize("side, test", [("left", lev_test), ("right", rev_test)])
def test_eigen_tests_match_the_fraction_reference(A, side, test):
    rng = random.Random(13)
    members = 0
    for degree in (2, 3, 4):
        phi, r = _planted(rng, A, degree, True)
        t, n = r.invariants()
        d = _element(rng, A)
        points = [
            r,
            lev_class_point(phi, n, t, _element(rng, A)),
            (d * r) * d.inverse(),
            _mixed_class(rng, A),
        ]
        for lam in points:
            report, want = test(phi, lam), _reference_membership(phi, lam, side)
            assert report.member == (want is not None)
            if report.member:
                members += 1
                assert list(report.kernel_element.coords) == want
    assert members >= 6


# -- the Fraction budget ------------------------------------------------------


def _fractions_built(fn, *args):
    """(fn(*args), the Fractions built during the call): calls of
    Fraction.__new__, or of Fraction._from_coprime_ints, which the
    arithmetic uses from Python 3.12 on, counted by cProfile."""
    profile = cProfile.Profile()
    result = profile.runcall(fn, *args)
    count = sum(
        calls
        for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if Path(path).name == "fractions.py" and name in ("__new__", "_from_coprime_ints")
    )
    return result, count


def _fixed(A, lead):
    """A fixed degree-4 polynomial with the root 1/2 - i + 2/3 j and the
    leading coefficient ``lead``."""
    r = A.parse("1/2 - i + 2/3*j")
    tail = [A.parse(text) for text in ("2 - l", "k + 1/3*il", "j - 1/2")] + [lead]
    c0, power = A.zero, A.one
    for c in tail:
        power = r * power
        c0 = c0 + c * power
    return StandardPolynomial(A, [-c0] + tail), r


def test_exact_solve_builds_fractions_only_for_what_its_report_exposes(A):
    phi, r = _fixed(A, A.parse("1 + i - 3*k"))
    report, built = _fractions_built(solve, phi)
    assert r in report.roots
    exposed = (
        len(report.companion.coeffs)
        + 2 * len(report.classes)
        + 8 * (len(report.roots) + len(report.full_classes))
    )
    assert built <= exposed


def test_eigen_tests_build_fractions_only_for_what_their_reports_expose(A):
    phi, r = _fixed(A, A.one)
    outside = A.parse("3 + il - 1/5*jl")
    for test in (lev_test, rev_test):
        for lam, member in ((r, True), (outside, False)):
            report, built = _fractions_built(test, phi, lam)
            assert report.member is member
            exposed = 8 * (1 + len(report.eigenvector)) if member else 0
            assert built <= exposed
