"""Central (companion) polynomial roots: exact factor extraction, the float
root finder, and candidate bookkeeping."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from octopoly import (
    CentralPolynomial,
    NumericFailureError,
    OctonionAlgebra,
    StandardPolynomial,
    FULL_CLASS,
    SINGLE_ROOT,
    ToleranceSpec,
    central_roots,
    companion,
    exact_quadratic_factors,
    numeric_roots,
    parse_octonion,
    parse_polynomial,
    solve,
)
from octopoly import central
from octopoly.cli import main
from octopoly.central import _horner
from octopoly.scalars import over_common_denominator
from conftest import rand_invertible, rand_octonion
from oracle import full_aberth, horner_loops, max_abs

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
    rem = fact.remainder.coeffs
    assert [c / rem[-1] for c in rem] == [-2, 0, 0, 1]  # a multiple of z^3 - 2
    assert not fact.truncated


def test_factors_lifted_far_above_the_prime():
    # factor coefficients far above the small prime: the Newton lifts of
    # the root and of the quadratic must reach them exactly
    p = _times(_times([-12345, 1], [250003, 1001, 1]), [-2, 0, 0, 1])
    fact = exact_quadratic_factors(CentralPolynomial(p))
    assert [(f.coeffs, m) for f, m in fact.factors] == [
        ((F(-12345), F(1)), 1),
        ((F(250003), F(1001), F(1)), 1),
    ]
    assert fact.remainder.coeffs == (F(-2), F(0), F(0), F(1))


def test_factors_of_a_polynomial_that_is_not_square_free():
    # (z - 3)^2 (z^2 + z + 1)^3 (z^3 - 2)^2: the search runs on the
    # square-free part, the trial divisions give the multiplicities
    p = [1]
    for part, mult in (([-3, 1], 2), ([1, 1, 1], 3), ([-2, 0, 0, 1], 2)):
        for _ in range(mult):
            p = _times(p, part)
    fact = exact_quadratic_factors(CentralPolynomial(p))
    assert [(f.coeffs, m) for f, m in fact.factors] == [
        ((F(-3), F(1)), 2),
        ((F(1), F(1), F(1)), 3),
    ]
    assert fact.remainder.coeffs == (F(4), F(0), F(0), F(-4), F(0), F(0), F(1))


def test_factors_remainder_keeps_the_leading_coefficient():
    # 3/1009 (z - 1/2)(z^2 + z/997 + 1)(z^3 + 3/1009 z + 1/997): the search
    # works on the primitive integer form, and the remainder is scaled back
    # so that factors times remainder give Phi coefficientwise
    p = _times(_times([F(-1, 2), 1], [1, F(1, 997), 1]), [F(1, 997), F(3, 1009), 0, 1])
    Phi = CentralPolynomial([F(3, 1009) * c for c in p])
    fact = exact_quadratic_factors(Phi)
    assert [(f.coeffs, m) for f, m in fact.factors] == [
        ((F(-1, 2), F(1)), 1),
        ((F(1), F(1, 997), F(1)), 1),
    ]
    assert fact.remainder.coeffs[-1] == Phi.coeffs[-1]
    acc = list(fact.remainder.coeffs)
    for f, m in fact.factors:
        for _ in range(m):
            acc = _times(acc, f.coeffs)
    assert tuple(acc) == Phi.coeffs


def _check_companion_against_sympy(sympy, rng, A, degree, monic, lead=None):
    # the companion of a planted polynomial (coordinates in [-2, 2], or the
    # given leading coefficient): its factors of degree <= 2 and the degree
    # of the rest agree with sympy's factorization over Q
    lam = rand_octonion(rng, A, -2, 2)
    tail = [rand_octonion(rng, A, -2, 2) for _ in range(degree - 1)]
    if lead is None:
        lead = A.one if monic else rand_invertible(rng, A, -2, 2)
    tail.append(lead)
    c0 = A.zero
    power = A.one
    for c in tail:
        power = lam * power
        c0 = c0 + c * power
    Phi = companion(StandardPolynomial(A, [-c0] + tail))
    fact = exact_quadratic_factors(Phi)
    z = sympy.Symbol("z")
    _, parts = sympy.factor_list(sympy.Poly(list(reversed(Phi.coeffs)), z))
    want, rest = [], 0
    for part, mult in parts:
        if part.degree() <= 2:
            monic_part = part.monic().all_coeffs()[::-1]
            want.append((tuple(F(int(c.p), int(c.q)) for c in monic_part), mult))
        else:
            rest += part.degree() * mult
    assert _monic_factors(fact) == sorted(want)
    assert fact.remainder.degree == rest
    assert not fact.truncated


def test_factors_match_sympy_on_companions():
    # degree 2-16 over both algebras, monic and not (each combination
    # every four cases)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    algebras = [OctonionAlgebra(-1, -1, -1), OctonionAlgebra(-2, -3, -5)]
    for case in range(30):
        monic = case % 4 in (0, 3)
        _check_companion_against_sympy(sympy, rng, algebras[case % 2], 2 + case // 2, monic)


def test_factors_match_sympy_over_rational_parameters():
    # companions over (-1/2, -3, -5/7) have coefficients with denominators
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261019)
    A = OctonionAlgebra(F(-1, 2), -3, F(-5, 7))
    for degree in range(2, 9):
        for monic in (True, False):
            _check_companion_against_sympy(sympy, rng, A, degree, monic)


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to the
    returned list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_square_free_companions_skip_the_remainder_sequence(monkeypatch):
    # R mod p square-free for a small good prime proves R square-free, so
    # the primitive remainder sequence never runs on a square-free Phi
    from octopoly import central, intpoly

    rng = random.Random(20261020)
    algebras = [OctonionAlgebra(-1, -1, -1), OctonionAlgebra(-2, -3, -5)]
    companions = []
    for case in range(40):
        A = algebras[case % 2]
        phi = StandardPolynomial(
            A, [rand_octonion(rng, A, -2, 2) for _ in range(2 + case % 9)] + [A.one]
        )
        companions.append(companion(phi))
    square_free = []
    for Phi in companions:  # gcd(R, R') by the sequence itself, before counting
        R = intpoly._primitive(over_common_denominator(Phi.coeffs)[0])
        if len(intpoly._primitive_gcd(R, [k * c for k, c in enumerate(R)][1:])) == 1:
            square_free.append(Phi)
    assert len(square_free) >= 30
    calls = _count_calls(monkeypatch, central, "_primitive_gcd")
    for Phi in square_free:
        exact_quadratic_factors(Phi)
    assert calls == []


def test_repeated_factors_take_the_remainder_sequence(monkeypatch):
    # no prime keeps a polynomial with a repeated factor square-free, so the
    # search falls back to the primitive remainder sequence and still finds
    # every factor with its multiplicity: (z^2 + 1)^2 (z - 3), and the
    # companion phi^2 of a real-coefficient phi = (z - 2)(z^2 + 2z + 2)
    from octopoly import central

    calls = _count_calls(monkeypatch, central, "_primitive_gcd")
    fact = exact_quadratic_factors(_cp(-3, 1, -6, 2, -3, 1))
    assert [(f.coeffs, m) for f, m in fact.factors] == [
        ((F(-3), F(1)), 1),
        ((F(1), F(0), F(1)), 2),
    ]
    assert fact.remainder.coeffs == (F(1),)
    assert len(calls) == 1
    A = OctonionAlgebra(-1, -1, -1)
    phi = parse_polynomial("z^3 - 2*z - 4", A)
    fact = exact_quadratic_factors(companion(phi))
    assert [(f.coeffs, m) for f, m in fact.factors] == [
        ((F(-2), F(1)), 2),
        ((F(2), F(2), F(1)), 2),
    ]
    assert fact.remainder.coeffs == (F(1),)
    assert len(calls) == 2
    rep = solve(phi)
    assert [(c.trace, c.norm, r.status) for c, r in rep.classes] == [
        (F(-2), F(2), FULL_CLASS),
        (F(4), F(4), SINGLE_ROOT),
    ]


def test_factors_match_sympy_when_small_primes_divide_the_leading_coefficient(monkeypatch):
    # Norm(c_n) = 122^2 + 11^2 + 3^2 + 1 = 15015 = 3*5*7*11*13 is the
    # companion's leading coefficient, so the prime is at least 17
    sympy = pytest.importorskip("sympy")
    from octopoly import central

    calls = _count_calls(monkeypatch, central, "_local_factors")
    rng = random.Random(20261021)
    A = OctonionAlgebra(-1, -1, -1)
    lead = A.octonion([122, 11, 3, 1, 0, 0, 0, 0])
    assert lead.norm() == 3 * 5 * 7 * 11 * 13
    for degree in (2, 3, 5, 8):
        _check_companion_against_sympy(sympy, rng, A, degree, False, lead)
    assert len(calls) == 4
    assert all(p >= 17 for _, p in calls)


def _irreducible_quadratics(p):
    """Every monic irreducible quadratic z^2 + a z + b over F_p, p odd, as
    the list [b, a, 1]: those whose discriminant a^2 - 4b is a non-square."""
    squares = {x * x % p for x in range(p)}
    return [[b, a, 1] for a in range(p) for b in range(p) if (a * a - 4 * b) % p not in squares]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_split_quadratics_separates_every_pair(p):
    # the shifts z + s, s < p, separate every pair of distinct irreducible
    # quadratics: Weil's bound proves it for p >= 11, and this checks every
    # pair up to p = 23 (every triple up to p = 7)
    from octopoly import intpoly

    quadratics = _irreducible_quadratics(p)
    assert len(quadratics) == (p * p - p) // 2
    sizes = (2, 3) if p <= 7 else (2,)
    for size in sizes:
        for factors in itertools.combinations(quadratics, size):
            g = factors[0]
            for f in factors[1:]:
                g = intpoly._mul(g, f, p)
            assert sorted(intpoly._split_quadratics(g, p)) == sorted(factors)


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
        exact_quadratic_factors(CentralPolynomial([1.0, 0.0, 1.0]))


def test_coefficients_choose_the_candidate_routine():
    # one float coefficient makes the polynomial a float one; ints and
    # Fractions alone keep it exact
    for coeffs in ([1.0, 0, 1], [1, 0.0, F(1)], [1, 0, 1.0]):
        Phi = CentralPolynomial(coeffs)
        assert Phi.ints is None
        (c,) = central_roots(Phi).candidates
        assert type(c.trace) is float and type(c.norm) is float
        assert (c.field_degree, c.multiplicity) == (2, 1)
        with pytest.raises(ValueError):
            exact_quadratic_factors(Phi)
    for coeffs in ([1, 0, 1], [F(1, 2), 0, F(1, 2)], [F(1), 0, 1]):
        Phi = CentralPolynomial(coeffs)
        assert Phi.ints is not None
        (c,) = central_roots(Phi).candidates
        assert (c.trace, c.norm, c.field_degree, c.multiplicity) == (0, 1, 2, 1)
        assert type(c.trace) is F and type(c.norm) is F


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
        assert total + exact_quadratic_factors(Phi).remainder.degree == Phi.degree


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
    assert exact_quadratic_factors(_cp(1, 1, 0, 0, 1)).remainder.degree == 4
    assert any(w.startswith("degree-4 remainder") and "degree > 2" in w for w in found.warnings)


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


def test_float_class_order_ignores_norm_rounding(monkeypatch):
    # float z^4 - z^3 - 2*z + 2 = (z - 1)(z^3 - 2) has a real class and a
    # complex pair whose norms are both 2^(2/3) and round apart; planted one
    # ulp apart in each direction, the order is exact mode's (norm, -trace):
    # the real class, with the larger trace, before the pair
    r = 2.0 ** (1 / 3)
    steps = range(-8, 9)
    orders = []
    for target in (math.nextafter(r * r, 0.0), math.nextafter(r * r, 4.0)):
        re, im = next(
            (re, im)
            for re in (-r / 2 + k * 2.0**-53 for k in steps)
            for im in (math.sqrt(3) * r / 2 + j * 2.0**-52 for j in steps)
            if re * re + im * im == target
        )
        roots = [(1.0, 0.0)] * 2 + [(r, 0.0)] * 2 + [(re, im), (re, -im)]
        monkeypatch.setattr(central, "numeric_roots", lambda coeffs, tol: roots)
        got = central_roots(CentralPolynomial([1.0] * 7)).candidates
        assert [c.trace for c in got[:2]] == [2.0, 2 * r] and got[2].norm == target
        orders.append([c.field_degree for c in got])
    assert orders == [[1, 1, 2]] * 2


def test_float_class_invariants_must_be_finite(monkeypatch):
    # no input was found whose roots pass the residual certificate while
    # their norm overflows, so the candidate is planted
    from octopoly import central
    from octopoly.central import ClassCandidate

    monkeypatch.setattr(
        central, "float_candidates", lambda Phi, tol: [ClassCandidate(1e200, float("inf"), 2, 1)]
    )
    with pytest.raises(NumericFailureError, match="float64 overflow: class invariants"):
        central_roots(CentralPolynomial([1.0, 0.0, 1.0]))


def test_numeric_roots_conjugate_symmetry(rng):
    for _ in range(10):
        coeffs = [rng.uniform(-3, 3) for _ in range(6)] + [1.0]
        roots = numeric_roots(coeffs)
        ims = sorted(im for _, im in roots)
        assert ims == sorted(-im for _, im in roots)  # symmetric spectrum


def test_numeric_roots_degree_errors():
    for coeffs in ([1.0], [], [0.0, 0.0]):
        with pytest.raises(ValueError):
            numeric_roots(coeffs)
    # a negligible leading coefficient is no failure: 1 + 1e-30 z has the
    # root -1e30
    (root,) = numeric_roots([1.0, 1e-30])
    assert root == pytest.approx((-1e30, 0.0))


def _bits(x):
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def test_horner_matches_the_three_reference_loops_bit_for_bit():
    # value, derivative and rounding scale in one pass, in the operation
    # order of the separate loops; zero and tiny coefficients included
    rng = random.Random(16)
    pool = [0.0, -0.0, 1e-300, -5e-324, 1e-30, 1.0, -2.5, 1e30]
    for _ in range(500):
        b = [
            rng.choice(pool) if rng.random() < 0.3 else rng.uniform(-10, 10)
            for _ in range(rng.randint(1, 18))
        ]
        mag = 10.0 ** rng.uniform(-8, 8)
        z = complex(rng.uniform(-mag, mag), rng.choice([0.0, rng.uniform(-mag, mag)]))
        p, dp, scale = _horner(b, z)
        ref_p, ref_dp, ref_value, ref_scale = horner_loops(b, z)
        assert _bits(p) == _bits(ref_p) == _bits(ref_value)
        assert _bits(dp) == _bits(ref_dp)
        assert scale.hex() == ref_scale.hex()


def test_horner_at_the_conjugate_is_the_conjugate():
    # with real b, _horner(b, conj(z)) is conj(_horner(b, z)) bit for bit up
    # to the sign of a zero part (adding a real coefficient makes a zero
    # imaginary part +0.0 on both sides), and |p| and the rounding scale are
    # the same bits: numeric_roots mirrors its certificates on this
    rng = random.Random(19)
    pool = [0.0, -0.0, 1e-300, -5e-324, 1e-30, 1.0, -2.5, 1e30, 1e300, -1e-300]
    for _ in range(500):
        b = [
            rng.choice(pool) if rng.random() < 0.3 else rng.uniform(-10, 10)
            for _ in range(rng.randint(1, 18))
        ]
        mag = 10.0 ** rng.uniform(-8, 8)
        z = complex(rng.uniform(-mag, mag), rng.choice([0.0, -0.0, rng.uniform(-mag, mag)]))
        p, dp, scale = _horner(b, z)
        q, dq, mirror_scale = _horner(b, z.conjugate())
        for x, y in ((p, q), (dp, dq)):
            for u, v in ((x.real, y.real), (-x.imag, y.imag)):
                assert u.hex() == v.hex() or u == v == 0 or math.isnan(u) and math.isnan(v)
        assert abs(p).hex() == abs(q).hex()
        assert scale.hex() == mirror_scale.hex()


def _spy_sweeps(monkeypatch):
    """A list that records (pairs, converged) for each ``_sweeps`` call."""
    calls, sweeps = [], central._sweeps

    def spy(b, z, pairs):
        out = sweeps(b, z, pairs)
        calls.append((pairs, out is not None))
        return out

    monkeypatch.setattr(central, "_sweeps", spy)
    return calls


def _former_aberth(b):
    """``central._aberth`` as it was: the iteration on all roots, unpaired."""
    return full_aberth(b), False


def test_pair_roots_agree_with_the_full_iteration(monkeypatch):
    # companions of random float polynomials of degree 1-24 over three
    # algebras: the same field degrees and multiplicities as the iteration
    # on all roots, traces and norms within 1e-9 relative
    calls = _spy_sweeps(monkeypatch)
    for params in [(-1, -1, -1), (-2, -3, -5), (-7, -11, -13)]:
        A = OctonionAlgebra(*params, mode="float")
        rng = random.Random(str(params))
        for degree in range(1, 25):
            phi = StandardPolynomial(A, [rand_octonion(rng, A, -1, 1) for _ in range(degree + 1)])
            Phi = companion(phi)
            got = central.float_candidates(Phi, A.tol)
            with monkeypatch.context() as m:
                m.setattr(central, "_aberth", _former_aberth)
                want = central.float_candidates(Phi, A.tol)
            assert [c[2:] for c in got] == [c[2:] for c in want]
            for g, w in zip(got, want):
                assert g[:2] == pytest.approx(w[:2], rel=1e-9, abs=0)
    paired = sum(1 for pairs, converged in calls if pairs and converged)
    assert paired >= 0.9 * 72  # a few transients cross the axis and fall back


def test_real_roots_of_odd_multiplicity_fall_back_to_the_full_iteration(monkeypatch):
    # z and conj(z) cannot both approach a simple real root, so the pair
    # sweeps fail and the roots are bit for bit those of the full iteration
    rng = random.Random(190)
    polys = [[2.0, -3.0, 3.0, -3.0, 1.0]]  # (z - 1)(z - 2)(z^2 + 1)
    for _ in range(30):
        b = [1.0]  # 2 or 4 simple real roots and 0-3 complex pairs
        for _ in range(rng.choice([2, 4])):
            b = _times(b, [rng.uniform(-3, 3), 1.0])
        for _ in range(rng.randint(0, 3)):
            b = _times(b, [rng.uniform(1, 4), rng.uniform(-2, 2), 1.0])
        polys.append(b)
    for b in polys:
        z, paired = central._aberth(list(b))
        assert not paired
        assert [_bits(w) for w in z] == [_bits(w) for w in full_aberth(list(b))]
        roots = numeric_roots(b)
        with monkeypatch.context() as m:
            m.setattr(central, "_aberth", _former_aberth)
            assert [tuple(map(float.hex, r)) for r in numeric_roots(b)] == [
                tuple(map(float.hex, r)) for r in roots
            ]


def test_a_crossing_or_no_convergence_falls_back(monkeypatch):
    # z^2 - 1 from 1.41i: the first pair step lands at -0.28i
    calls = _spy_sweeps(monkeypatch)
    assert sorted(numeric_roots([-1.0, 0.0, 1.0])) == [(-1.0, 0.0), (1.0, 0.0)]
    assert calls == [(True, False), (False, True)]
    # a pair sweep that does not converge within the cap falls back too
    calls.clear()
    monkeypatch.setattr(central, "_ABERTH_MAX_ITER", 2)
    z, paired = central._aberth([5.0, 4.0, 3.0, 2.0, 1.0])
    assert not paired and len(z) == 4
    assert calls == [(True, False), (False, True)]


def test_a_cluster_whose_mirror_differs_in_size_fails(monkeypatch, capsys):
    # (z^2 - 2z + 2)(z^2 - 4z + 5) with 2 + i found twice and 1 - i lost:
    # the double cluster at 2 + i has a single mirror, so numeric_roots
    # raises, and the CLI exits 4
    b = [10.0, -18.0, 15.0, -6.0, 1.0]
    found = [2 + 1j, 2 + 1j, 1 + 1j, 2 - 1j]
    monkeypatch.setattr(central, "_aberth", lambda coeffs: (found, False))
    with pytest.raises(NumericFailureError, match="a root cluster and its mirror differ in size"):
        numeric_roots(b)
    # phi = (z - (1 + i))(z - (2 + i)) has Phi = |phi|^2 = the product above
    A = OctonionAlgebra(-1, -1, -1, mode="float")
    text = "z^2 - (3 + 2*i)*z + (1 + 3*i)"
    assert list(companion(parse_polynomial(text, A)).coeffs) == b
    argv = ["solve", "--mode", "float", "--poly", text]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "differ in size" in captured.err


def test_an_infinite_rounding_scale_fails(monkeypatch, capsys):
    # 5e307 (z - 1)(z - 2) at its exact roots: the residuals are finite but
    # sum_k |b_k| |z|^k overflows at z = 2, which would make every bound and
    # inclusion radius infinite and merge the roots into a false double root
    monkeypatch.setattr(central, "_aberth", lambda coeffs: ([1 + 0j, 2 + 0j], False))
    with pytest.raises(NumericFailureError, match="rounding scale is not finite"):
        numeric_roots([1e308, -1.5e308, 5e307])
    # phi = (z - c)(z - 2c), c = 2^255: Phi = phi^2 has finite coefficients
    # and a scale of 144 c^4 > 1.8e308 at z = 2c; roots found to 2^-30
    # would merge into one class of multiplicity 4, and the CLI exits 4
    c, e = 2.0**255, 1 + 2.0**-30
    found = [complex(c), complex(c * e), complex(2 * c), complex(2 * c * e)]
    monkeypatch.setattr(central, "_aberth", lambda coeffs: (found, False))
    text = "z^2 - %r*z + %r" % (3 * c, 2 * c * c)
    A = OctonionAlgebra(-1, -1, -1, mode="float")
    assert all(math.isfinite(b) for b in companion(parse_polynomial(text, A)).coeffs)
    assert main(["solve", "--mode", "float", "--poly", text]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "rounding scale is not finite" in captured.err


def test_numeric_roots_failure_carries_residuals():
    # an unachievable tolerance raises instead of returning bad roots
    with pytest.raises(NumericFailureError) as info:
        numeric_roots([1.0] * 21, ToleranceSpec(abs_eps=0.0, rel_eps=1e-18))
    assert info.value.residuals


def _monic_remainder(p, d):
    """The remainder of p by a monic d, by long division."""
    r = list(p)
    for k in reversed(range(len(r) - len(d) + 1)):
        c = r[k + len(d) - 1]
        for j, y in enumerate(d):
            r[k + j] -= c * y
    return r[: len(d) - 1]


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
            assert not any(_monic_remainder(Phi.coeffs, factor))


# -- central_roots, float -----------------------------------------------------


def test_float_candidates_square():
    Phi = CentralPolynomial([1.0, 0.0, 2.0, 0.0, 1.0])
    got = central_roots(Phi).candidates
    assert len(got) == 1
    c = got[0]
    assert c.field_degree == 2 and c.multiplicity == 2
    assert c.trace == pytest.approx(0.0, abs=1e-7)
    assert c.norm == pytest.approx(1.0, abs=1e-7)


def test_float_candidates_mixed():
    # (z - 1)(z - 2)(z^2 + 1)
    Phi = CentralPolynomial([2.0, -3.0, 3.0, -3.0, 1.0])
    got = central_roots(Phi).candidates
    keys = sorted((round(c.trace, 6), round(c.norm, 6), c.field_degree) for c in got)
    assert keys == [(0.0, 1.0, 2), (2.0, 1.0, 1), (4.0, 4.0, 1)]


def test_float_count_conservation(rng):
    for _ in range(15):
        deg = rng.randint(2, 8)
        coeffs = [rng.uniform(-4, 4) for _ in range(deg)] + [rng.uniform(0.5, 2)]
        Phi = CentralPolynomial(coeffs)
        got = central_roots(Phi).candidates
        assert sum(c.field_degree * c.multiplicity for c in got) == deg


def _planted_float(rng, A, degree, span):
    """(a monic float phi of the degree with the root lam, lam)."""
    lam = rand_octonion(rng, A, -span, span)
    tail = [rand_octonion(rng, A, -span, span) for _ in range(degree - 1)] + [A.one]
    c0 = A.zero
    power = A.one
    for c in tail:
        power = lam * power
        c0 = c0 + c * power
    return StandardPolynomial(A, [-c0] + tail), lam


def test_float_candidates_match_mpmath_clusters():
    # the root clusters of mpmath's 50-digit polyroots on companions of
    # planted float polynomials (both algebras, degree up to 16, coordinates
    # in [-2, 2]) and of real-coefficient ones (Phi = phi^2: double roots)
    # are exactly the float candidates, to 1e-6 in trace and norm, with the
    # cluster sizes as multiplicities
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    phis = []
    for params in [(-1, -1, -1), (-2, -3, -5)]:
        A = OctonionAlgebra(*params, mode="float")
        phis += [_planted_float(rng, A, degree, 2)[0] for degree in (3, 9, 16)]
        real = [rng.uniform(-2, 2) for _ in range(5)] + [1.0]
        phis.append(StandardPolynomial(A, real))
    for phi in phis:
        Phi = companion(phi)
        with mpmath.workdps(50):
            roots = mpmath.polyroots(list(reversed(Phi.coeffs)), maxsteps=100, extraprec=60)
            roots = [complex(r) for r in roots]
        # Phi's coefficients are rounded, so a double root of phi^2 is two
        # roots about 1e-8 apart: clusters are the roots within 1e-6
        clusters = []  # [sum of roots, count]
        for r in roots:
            for cl in clusters:
                if abs(r - cl[0] / cl[1]) <= 1e-6:
                    cl[0] += r
                    cl[1] += 1
                    break
            else:
                clusters.append([r, 1])
        want = []
        for total, k in clusters:
            r = total / k
            if abs(r.imag) <= 1e-6:
                want.append((2 * r.real, r.real**2, 1, k))
            elif r.imag > 0:
                want.append((2 * r.real, abs(r) ** 2, 2, k))
        want.sort()
        got = sorted(_key(c) for c in central_roots(Phi).candidates)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[2:] == w[2:]
            assert g[:2] == pytest.approx(w[:2], abs=1e-6)


@pytest.mark.parametrize("params", [(-1, -1, -1), (-2, -3, -5)])
def test_degree_64_float_solve_as_pairs(params, monkeypatch):
    # groundwork for a higher degree cap: Phi has degree 128 and is solved
    # as 64 conjugate pairs, with no fallback to the full iteration
    calls = _spy_sweeps(monkeypatch)
    A = OctonionAlgebra(*params, mode="float")
    phi, lam = _planted_float(random.Random("%s 64" % (params,)), A, 64, 1)
    report = solve(phi)
    assert calls == [(True, True)]
    assert min(max_abs(root - lam) for root in report.roots) <= 1e-6
