"""Central (companion) polynomial roots: exact factor extraction, the float
root finder, and candidate bookkeeping."""

import random
from fractions import Fraction

import pytest

from octopoly import (
    CentralPolynomial,
    NumericFailureError,
    OctonionAlgebra,
    StandardPolynomial,
    ToleranceSpec,
    central_roots,
    companion,
    exact_quadratic_factors,
    numeric_roots,
    parse_octonion,
    parse_polynomial,
    solve,
)
from conftest import rand_invertible, rand_octonion

F = Fraction


def _cp(*coeffs):
    return CentralPolynomial([F(c) for c in coeffs])


def _key(c):
    return (c.trace, c.norm, c.field_degree, c.multiplicity)


# -- exact factorization ------------------------------------------------------


def test_factors_two_quadratics():
    fact = exact_quadratic_factors(_cp(2, 0, 3, 0, 1))
    assert [(f.coeffs, m) for f, m in fact.factors] == [
        ((F(1), F(0), F(1)), 1),
        ((F(2), F(0), F(1)), 1),
    ]
    assert fact.remainder.coeffs == (F(1),)
    assert not fact.truncated


def test_factors_rational_roots():
    fact = exact_quadratic_factors(_cp(2, -3, 1))
    assert [(f.coeffs, m) for f, m in fact.factors] == [
        ((F(-1), F(1)), 1),
        ((F(-2), F(1)), 1),
    ]
    assert fact.remainder.coeffs == (F(1),)


def test_factors_cyclotomic_like():
    fact = exact_quadratic_factors(_cp(1, 0, 1, 0, 1))
    assert [(f.coeffs, m) for f, m in fact.factors] == [
        ((F(1), F(-1), F(1)), 1),  # z^2 - z + 1
        ((F(1), F(1), F(1)), 1),  # z^2 + z + 1
    ]


def test_factors_square():
    fact = exact_quadratic_factors(_cp(1, 0, 2, 0, 1))
    assert [(f.coeffs, m) for f, m in fact.factors] == [((F(1), F(0), F(1)), 2)]


def test_factors_product_reconstructs(rng):
    for _ in range(40):
        # assemble a polynomial from known linear/quadratic pieces
        parts = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                parts.append([F(rng.randint(-6, 6)), F(1)])
            else:
                t, n = rng.randint(-4, 4), rng.randint(1, 9)
                parts.append([F(n), F(-t), F(1)])
        coeffs = [F(rng.randint(1, 3))]
        for part in parts:
            new = [F(0)] * (len(coeffs) + len(part) - 1)
            for a, ca in enumerate(coeffs):
                for b, cb in enumerate(part):
                    new[a + b] += ca * cb
            coeffs = new
        Phi = CentralPolynomial(coeffs)
        fact = exact_quadratic_factors(Phi)
        # multiply back: factors^mult * remainder == Phi
        acc = list(fact.remainder.coeffs)
        for poly, mult in fact.factors:
            for _ in range(mult):
                new = [F(0)] * (len(acc) + poly.degree)
                for a, ca in enumerate(acc):
                    for b, cb in enumerate(poly.coeffs):
                        new[a + b] += ca * cb
                acc = new
        assert tuple(acc) == Phi.coeffs


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _monic_factors(fact):
    return sorted((f.coeffs, m) for f, m in fact.factors)


@pytest.mark.parametrize(
    "quadratics",
    [
        # (c, -b, a) of a z^2 - b z + c, each irreducible and primitive
        [(2, -1, 2), (1, 1, 3), (1, 1, 3)],  # T = 1/2 for odd b; a square
        [(2, -1, 2), (5, 2, 1), (3, 0, 2), (5, 2, 1)],
        [(1, 1, 1), (2, 1, 2), (7, -3, 3)],
        [(3, 3, 1), (1, -1, 3), (3, 3, 1), (2, 0, 1)],
        [(-1, -1, 1), (-4, 0, 3), (2, -1, 2)],  # real roots: Q(1) < 0
    ],
)
def test_factors_planted_quadratics_are_all_found(quadratics):
    # every planted quadratic factor is found with its multiplicity, and the
    # irreducible cubic z^3 - 2 is all that remains
    p = [-2, 0, 0, 1]
    for q in quadratics:
        p = _times(p, q)
    fact = exact_quadratic_factors(CentralPolynomial(p))
    want = {}
    for c, mb, a in quadratics:
        key = (F(c, a), F(mb, a), F(1))
        want[key] = want.get(key, 0) + 1
    assert _monic_factors(fact) == sorted(want.items())
    assert fact.remainder.degree == 3
    assert fact.remainder.primitive().coeffs == (-2, 0, 0, 1)
    assert not fact.truncated


def test_factors_match_sympy_on_companions():
    # companions of planted polynomials of degree 2-16 over both algebras,
    # monic and not (each combination every four cases), coordinates in
    # [-2, 2]: the factors of degree <= 2 and the degree of the rest agree
    # with sympy's factorization over Q
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rng = random.Random(20261018)
    algebras = [OctonionAlgebra(-1, -1, -1), OctonionAlgebra(-2, -3, -5)]
    for case in range(30):
        A = algebras[case % 2]
        degree = 2 + case // 2
        lam = rand_octonion(rng, A, -2, 2)
        tail = [rand_octonion(rng, A, -2, 2) for _ in range(degree - 1)]
        tail.append(A.one if case % 4 in (0, 3) else rand_invertible(rng, A, -2, 2))
        c0 = A.zero
        power = A.one
        for c in tail:
            power = lam * power
            c0 = c0 + c * power
        Phi = companion(StandardPolynomial(A, [-c0] + tail))
        fact = exact_quadratic_factors(Phi)
        _, parts = sympy.factor_list(sympy.Poly(list(reversed(Phi.coeffs)), z))
        want, rest = [], 0
        for part, mult in parts:
            if part.degree() <= 2:
                monic = part.monic().all_coeffs()[::-1]
                want.append((tuple(F(int(c.p), int(c.q)) for c in monic), mult))
            else:
                rest += part.degree() * mult
        assert _monic_factors(fact) == sorted(want)
        assert fact.remainder.degree == rest
        assert not fact.truncated


def test_factors_irreducible_quartic_remainder():
    # z^4 + z + 1 is irreducible over Q: everything stays in the remainder
    fact = exact_quadratic_factors(_cp(1, 1, 0, 0, 1))
    assert fact.factors == ()
    assert fact.remainder.coeffs == (F(1), F(1), F(0), F(0), F(1))


def test_factors_zero_roots():
    fact = exact_quadratic_factors(_cp(0, 0, 1, 0, 1))  # z^2 (z^2 + 1)
    assert [(f.coeffs, m) for f, m in fact.factors] == [
        ((F(0), F(1)), 2),
        ((F(1), F(0), F(1)), 1),
    ]


def test_factors_reject_float():
    with pytest.raises(ValueError):
        exact_quadratic_factors(CentralPolynomial([1.0, 0.0, 1.0], "float"))


# -- central_roots, exact -----------------------------------------------------


def test_candidates_golden():
    got = central_roots(_cp(1, 0, 1, 0, 1)).candidates
    assert [_key(c) for c in got] == [(1, 1, 2, 1), (-1, 1, 2, 1)]
    got = central_roots(_cp(1, 0, 2, 0, 1)).candidates
    assert [_key(c) for c in got] == [(0, 1, 2, 2)]
    got = central_roots(_cp(2, 0, 3, 0, 1)).candidates
    assert [_key(c) for c in got] == [(0, 1, 2, 1), (0, 2, 2, 1)]


def test_candidates_rational_roots():
    got = central_roots(_cp(2, -3, 1)).candidates
    assert [_key(c) for c in got] == [(2, 1, 1, 1), (4, 4, 1, 1)]


def test_count_conservation(rng):
    for _ in range(30):
        coeffs = [F(rng.randint(-5, 5)) for _ in range(rng.randint(3, 9))]
        coeffs.append(F(rng.randint(1, 5)))
        Phi = CentralPolynomial(coeffs)
        found = central_roots(Phi)
        total = sum(c.field_degree * c.multiplicity for c in found.candidates)
        assert total + found.discarded_degree == Phi.degree


# a planted non-monic degree-10 polynomial over (-2,-3,-5) with coordinates in
# [-2, 2]; its companion's end coefficients have 24 576 divisor pairs,
# and past the planted class the companion has no factor of degree <= 2
_DEG10 = " + ".join([
    "(2 + 2*i + 2*j + 2*k + 2*l + il - kl)*z^10",
    "(-i + 2*j + l + 2*kl)*z^9",
    "(1 + i + 2*k + 2*l + il + jl - kl)*z^8",
    "(2 - i + j + l + 2*il + 2*jl)*z^7",
    "(2*i + l - il + jl + kl)*z^6",
    "(2 + 2*j + 2*k - l + il + jl + 2*kl)*z^5",
    "(-1 - i - 2*j - k - il - jl + 2*kl)*z^4",
    "(1 + j + k + 2*l - il + 2*jl - kl)*z^3",
    "(2*i + j + 2*k - 2*il - 2*jl)*z^2",
    "(-1 + 2*i - 2*j + 2*k - l + il + jl + 2*kl)*z",
    "(537980525058 + 62480101155*i + 49047699875*j + 78304279634*k"
    " - 186402304745*l - 29459015612*il + 35956247503*jl + 41951187182*kl)",
])


def test_exact_search_is_complete_on_degree_10():
    A = OctonionAlgebra(-2, -3, -5)
    report = solve(parse_polynomial(_DEG10, A))
    assert parse_octonion("-2 - 2*i - 2*j - l + 2*kl", A) in report.roots
    assert not any("truncated" in w or "undetermined" in w for w in report.warnings)
    assert report.companion.degree == 20
    assert sum(c.field_degree * c.multiplicity for c, _ in report.classes) == 2


def test_discarded_note_for_deep_extension():
    found = central_roots(_cp(1, 1, 0, 0, 1))
    assert found.candidates == ()
    assert found.discarded_degree == 4
    assert any("degree > 2" in w for w in found.warnings)


# -- numeric roots ------------------------------------------------------------


def test_numeric_roots_quadratic():
    roots = sorted(numeric_roots([1.0, 0.0, 1.0]), key=lambda p: p[1])
    assert roots[0] == pytest.approx((0.0, -1.0), abs=1e-12)
    assert roots[1] == pytest.approx((0.0, 1.0), abs=1e-12)


def test_numeric_roots_quartic():
    roots = sorted(numeric_roots([1.0, 0.0, 1.0, 0.0, 1.0]))
    s3 = 3**0.5 / 2
    expect = sorted([(-0.5, -s3), (-0.5, s3), (0.5, -s3), (0.5, s3)])
    for got, want in zip(roots, expect):
        assert got == pytest.approx(want, abs=1e-10)


def test_numeric_roots_real_pair():
    roots = sorted(numeric_roots([2.0, -3.0, 1.0]))
    assert roots[0] == pytest.approx((1.0, 0.0), abs=1e-10)
    assert roots[1] == pytest.approx((2.0, 0.0), abs=1e-10)


def test_numeric_roots_residual_bound(rng):
    tol = ToleranceSpec()
    for _ in range(25):
        deg = rng.randint(1, 10)
        coeffs = [rng.uniform(-5, 5) for _ in range(deg)] + [rng.uniform(0.5, 3)]
        roots = numeric_roots(coeffs, tol)
        assert len(roots) == deg
        for re, im in roots:
            r = complex(re, im)
            val = sum(c * r**k for k, c in enumerate(coeffs))
            bound = tol.abs_eps + tol.rel_eps * sum(
                abs(c) * abs(r) ** k for k, c in enumerate(coeffs)
            )
            assert abs(val) <= bound


def test_numeric_roots_conjugate_symmetry(rng):
    for _ in range(10):
        coeffs = [rng.uniform(-3, 3) for _ in range(6)] + [1.0]
        roots = numeric_roots(coeffs)
        ims = sorted(im for _, im in roots)
        assert ims == sorted(-im for _, im in roots)  # symmetric spectrum


def test_numeric_roots_degree_errors():
    with pytest.raises(ValueError):
        numeric_roots([1.0])
    with pytest.raises(NumericFailureError):
        numeric_roots([1.0, 1e-30])


def test_numeric_roots_failure_carries_residuals():
    # an unachievable tolerance raises instead of returning bad roots
    with pytest.raises(NumericFailureError) as info:
        numeric_roots([1.0] * 21, ToleranceSpec(abs_eps=0.0, rel_eps=1e-18))
    assert info.value.residuals


def test_candidate_soundness_exact(rng):
    # each candidate's minimal polynomial divides Phi exactly
    for _ in range(20):
        coeffs = [F(rng.randint(-4, 4)) for _ in range(rng.randint(3, 7))]
        coeffs.append(F(rng.randint(1, 4)))
        Phi = CentralPolynomial(coeffs)
        for c in central_roots(Phi).candidates:
            if c.field_degree == 1:
                factor = [-c.trace / 2, F(1)]
            else:
                factor = [c.norm, -c.trace, F(1)]
            _, rem = divmod(Phi, CentralPolynomial(factor))
            assert list(rem.coeffs) == [F(0)]


# -- central_roots, float -----------------------------------------------------


def test_float_candidates_square():
    Phi = CentralPolynomial([1.0, 0.0, 2.0, 0.0, 1.0], "float")
    got = central_roots(Phi).candidates
    assert len(got) == 1
    c = got[0]
    assert c.field_degree == 2 and c.multiplicity == 2
    assert c.trace == pytest.approx(0.0, abs=1e-7)
    assert c.norm == pytest.approx(1.0, abs=1e-7)


def test_float_candidates_mixed():
    # (z - 1)(z - 2)(z^2 + 1)
    Phi = CentralPolynomial([2.0, -3.0, 3.0, -3.0, 1.0], "float")
    got = central_roots(Phi).candidates
    keys = sorted((round(c.trace, 6), round(c.norm, 6), c.field_degree) for c in got)
    assert keys == [(0.0, 1.0, 2), (2.0, 1.0, 1), (4.0, 4.0, 1)]


def test_float_count_conservation(rng):
    for _ in range(15):
        deg = rng.randint(2, 8)
        coeffs = [rng.uniform(-4, 4) for _ in range(deg)] + [rng.uniform(0.5, 2)]
        Phi = CentralPolynomial(coeffs, "float")
        got = central_roots(Phi).candidates
        assert sum(c.field_degree * c.multiplicity for c in got) == deg
