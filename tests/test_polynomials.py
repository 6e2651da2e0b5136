"""Standard polynomials: evaluation, companion polynomial, linear reduction,
and the two twist families."""

from fractions import Fraction

import pytest

from octopoly import (
    CentralPolynomial,
    ConfigurationError,
    NumericFailureError,
    OctonionAlgebra,
    StandardPolynomial,
    companion,
    eval_at,
    parse_polynomial,
    reduce_to_linear,
)
from octopoly.scalars import over_common_denominator
from conftest import rand_invertible, rand_octonion
from oracle import (eg_coeffs, loop_product, oct_conj, oct_mul, oct_norm, power_sum_eval,
                    twist_left, twist_two_sided)


@pytest.fixture()
def phi3(alg):
    return parse_polynomial("i*z^2 + j*z + l", alg)


@pytest.fixture()
def psi(alg):
    return parse_polynomial("z^2 + i*z + (1 + k)", alg)


def test_construction(alg):
    with pytest.raises(ValueError):
        StandardPolynomial(alg, [alg.zero, alg.zero])
    p = StandardPolynomial(alg, [alg.one, alg.basis_element(1), alg.zero])
    assert p.degree == 1  # trailing zero stripped
    assert not p.is_monic() or p.coeffs[-1] == alg.one


def test_float_coefficient_must_not_underflow():
    # a nonzero rational that rounds to 0.0 would silently lower the degree
    alg = OctonionAlgebra(-1, -1, -1, mode="float")
    with pytest.raises(ConfigurationError, match="underflows to 0 in float64"):
        StandardPolynomial(alg, [1, 1, Fraction(1, 10**400)])


def test_eval_golden(alg, phi3, psi):
    root = alg.parse("1/2 + 1/2*k + 1/2*il + 1/2*jl")
    assert eval_at(phi3, root).is_exactly_zero()
    j = alg.basis_element(2)
    assert eval_at(phi3, j) == alg.octonion([-1, -1, 0, 0, 1, 0, 0, 0])
    assert eval_at(psi, j) == 2 * alg.basis_element(3)


@pytest.mark.parametrize("params", [(-1, -1, -1), (Fraction(-1, 2), -3, Fraction(-5, 7)), (2, 3, 5)])
def test_horner_eval_is_the_power_sum(params, rng):
    # Horner's rule regroups sum_i c_i lam^i exactly in any octonion
    # algebra, split ones included (Artin's theorem)
    A = OctonionAlgebra(*params)
    for _ in range(120):
        phi = StandardPolynomial(A, [rand_octonion(rng, A, -5, 5, 4) for _ in range(rng.randint(1, 9))])
        lam = rand_octonion(rng, A, -5, 5, 3)
        assert eval_at(phi, lam) == power_sum_eval(phi, lam)


def test_companion_golden(alg, phi3, psi):
    assert companion(phi3) == CentralPolynomial([1, 0, 1, 0, 1])
    assert companion(psi) == CentralPolynomial([2, 0, 3, 0, 1])
    lin = parse_polynomial("z + i", alg)
    assert companion(lin) == CentralPolynomial([1, 0, 1])


def test_companion_degree_zero(alg):
    c = StandardPolynomial(alg, [alg.parse("1 + 2*i")])
    assert companion(c) == CentralPolynomial([Fraction(5)])


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("params", [(-1, -1, -1), (-2, -3, -5), (Fraction(-1, 2), -3, Fraction(-5, 4))])
def test_companion_matches_oracle_traces(mode, params, rng):
    # b_k = sum over i < j, i + j = k of Tr(conj(c_i) c_j), plus Norm(c_m) at
    # k = 2m, all by the oracle's product; dyadic coordinates and parameters
    # keep every float sum exact, so both modes must agree exactly
    A = OctonionAlgebra(*(str(p) for p in params), mode=mode)
    scalar = Fraction if mode == "exact" else float
    for _ in range(30):
        deg = rng.randint(1, 5)
        cs = [tuple(Fraction(rng.randint(-24, 24), 8) for _ in range(8)) for _ in range(deg + 1)]
        if not any(cs[-1]):
            continue
        b = [Fraction(0)] * (2 * deg + 1)
        for i, ci in enumerate(cs):
            b[2 * i] += oct_norm(ci, *params)
            for j in range(i + 1, deg + 1):
                b[i + j] += 2 * oct_mul(oct_conj(ci), cs[j], *params)[0]
        phi = StandardPolynomial(A, [A.octonion([scalar(x) for x in c]) for c in cs])
        assert companion(phi).coeffs == tuple(scalar(x) for x in b)


@pytest.mark.parametrize("params", [(-1, -1, -1), (-2, -3, -5)])
def test_float_companion_is_bitwise_the_product_traces(params, rng):
    # the polar form reproduces the float companion built from products:
    # Norm(c) = (conj(c) c)_0, and Tr(conj(c_i) c_j) = t + t, t = (conj(c_i) c_j)_0
    A = OctonionAlgebra(*params, mode="float")
    table = A.mult_table()
    for _ in range(50):
        deg = rng.randint(1, 5)
        cs = [rand_octonion(rng, A) for _ in range(deg + 1)]
        b = [0.0] * (2 * deg + 1)
        for i, ci in enumerate(cs):
            b[2 * i] += loop_product(table, ci.conj().vec, ci.vec)[0]
            for j in range(i + 1, deg + 1):
                t = loop_product(table, ci.conj().vec, cs[j].vec)[0]
                b[i + j] += t + t
        got = companion(StandardPolynomial(A, cs)).coeffs
        assert [x.hex() for x in got] == [x.hex() for x in b]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_combine_is_the_sequential_sum(mode, rng):
    # sum_i s_i v_i in one pass equals E = E + v_i * s_i from zero: exactly,
    # with the exact s_i as ints over one denominator, and bit for bit in
    # float mode
    A = OctonionAlgebra(-2, -3, -5, mode=mode)
    for _ in range(100):
        n = rng.randint(1, 6)
        vs = [rand_octonion(rng, A, max_den=7) for _ in range(n)]
        if mode == "exact":
            ss = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)]
        else:
            ss = [rng.choice((0.0, rng.uniform(-5, 5) * 10.0 ** rng.randint(-5, 5))) for _ in range(n)]
        want = A.zero
        for v, s in zip(vs, ss):
            want = want + v * s
        args = over_common_denominator(ss) if mode == "exact" else (ss,)
        got = A.backend.combine([v.vec for v in vs], *args)
        if mode == "exact":
            assert got == want.vec
        else:
            assert [c.hex() for c in got] == [c.hex() for c in want.vec]
    if mode == "float":
        with pytest.raises(NumericFailureError, match="overflow"):
            A.backend.combine([A.one.vec], [float("inf")])


def test_eg_coeffs():
    n, t = Fraction(7), Fraction(3)
    assert eg_coeffs(n, t, 0) == (0, 1)
    assert eg_coeffs(n, t, 1) == (1, 0)
    assert eg_coeffs(n, t, 2) == (t, -n)
    assert eg_coeffs(n, t, 3) == (t * t - n, -n * t)
    assert eg_coeffs(Fraction(1), Fraction(1), 2) == (1, -1)


def test_reduce_to_linear_golden(alg, phi3, psi):
    i, j, l = alg.basis_element(1), alg.basis_element(2), alg.basis_element(4)
    red = reduce_to_linear(phi3, 1, 1)
    assert red.E == i + j and red.G == l - i
    red = reduce_to_linear(phi3, 1, -1)
    assert red.E == -i + j and red.G == l - i
    red = reduce_to_linear(psi, 1, 0)
    assert red.E == i and red.G == alg.basis_element(3)


def test_reduction_correctness(alg, rng):
    for _ in range(100):
        deg = rng.randint(1, 5)
        coeffs = [rand_octonion(rng, alg, -4, 4) for _ in range(deg)]
        coeffs.append(rand_invertible(rng, alg, -4, 4))
        phi = StandardPolynomial(alg, coeffs)
        lam = rand_octonion(rng, alg, -4, 4, max_den=2)
        t, n = lam.invariants()
        red = reduce_to_linear(phi, n, t)
        assert eval_at(phi, lam) == red.E * lam + red.G


def test_companion_identity(alg, rng):
    # Phi(z) == sum_i conj(c_i) (phi(z) z^i), pointwise
    for _ in range(30):
        deg = rng.randint(1, 5)
        coeffs = [rand_octonion(rng, alg, -3, 3) for _ in range(deg)]
        coeffs.append(rand_invertible(rng, alg, -3, 3))
        phi = StandardPolynomial(alg, coeffs)
        Phi = companion(phi)
        for _ in range(3):
            z = rand_octonion(rng, alg, -3, 3)
            val = eval_at(phi, z)
            powers = [phi.algebra.one]
            for _ in range(deg):
                powers.append(z * powers[-1])
            rhs = phi.algebra.zero
            for i, c in enumerate(phi.coeffs):
                rhs = rhs + c.conj() * (val * powers[i])
            assert Phi(z) == rhs


def test_reduced_companion_shape(alg, rng):
    # on a class, Phi collapses to Norm(E) z^2 + Tr(conj(E) G) z + Norm(G)
    for _ in range(50):
        deg = rng.randint(1, 4)
        coeffs = [rand_octonion(rng, alg, -3, 3) for _ in range(deg + 1)]
        try:
            phi = StandardPolynomial(alg, coeffs)
        except ValueError:
            continue
        z = rand_octonion(rng, alg, -3, 3)
        t, n = z.invariants()
        red = reduce_to_linear(phi, n, t)
        Phi = companion(phi)
        e_norm = red.E.norm()
        cross = (red.E.conj() * red.G).trace()
        g_norm = red.G.norm()
        expect = e_norm * (z * z) + cross * z + g_norm * alg.one
        assert Phi(z) == expect


def test_root_set_inclusion(alg, rng):
    # planted root of phi is always a root of the companion polynomial
    for _ in range(50):
        deg = rng.randint(1, 5)
        lam = rand_octonion(rng, alg, -3, 3)
        tail = [rand_octonion(rng, alg, -3, 3) for _ in range(deg - 1)]
        tail.append(rand_invertible(rng, alg, -3, 3))
        c0 = alg.zero
        power = alg.one
        for c in tail:
            power = lam * power
            c0 = c0 + c * power
        phi = StandardPolynomial(alg, [-c0] + tail)
        assert eval_at(phi, lam).is_exactly_zero()
        assert companion(phi)(lam).is_exactly_zero()


def test_twist_left_golden(alg, psi):
    l, j = alg.basis_element(4), alg.basis_element(2)
    assert twist_left(psi, alg.one) == psi
    tw = twist_left(psi, l)
    assert tw.coeffs == (
        alg.octonion([0, 0, 0, 0, -1, 0, 0, 1]),  # -l + (ij)l
        alg.basis_element(5),
        -l,
    )
    assert eval_at(tw, j).is_exactly_zero()


def test_twist_two_sided_golden(alg, psi):
    i = alg.basis_element(1)
    assert twist_two_sided(psi, alg.one) == psi
    tw = twist_two_sided(psi, i)
    assert tw.coeffs == (
        alg.octonion([-1, 0, 0, 1, 0, 0, 0, 0]),
        -i,
        -alg.one,
    )


def test_twist_companion_scaling(alg, psi, rng):
    Phi = companion(psi)
    for _ in range(20):
        g = rand_invertible(rng, alg, -4, 4)
        n = g.norm()
        tl = companion(twist_left(psi, g))
        assert tuple(b / n for b in Phi.coeffs) == tl.coeffs
        ts = companion(twist_two_sided(psi, g))
        assert tuple(b / (n * n) for b in Phi.coeffs) == ts.coeffs


def test_twist_requires_monic(alg, phi3):
    with pytest.raises(ValueError):
        twist_left(phi3, alg.basis_element(1))
    with pytest.raises(ValueError):
        twist_two_sided(phi3, alg.basis_element(1))


def test_twist_rejects_singular_parameter(psi):
    from octopoly import OctonionAlgebra, SingularElementError, parse_polynomial

    split = OctonionAlgebra(-1, -1, 1)
    poly = parse_polynomial("z^2 + i*z + (1 + k)", split)
    isotropic = split.one + split.basis_element(4)
    with pytest.raises(SingularElementError):
        twist_left(poly, isotropic)


def test_central_polynomial_basics(alg):
    p = CentralPolynomial([Fraction(2), Fraction(0), Fraction(1)])
    assert p.degree == 2
    assert p(Fraction(3)) == 11
    assert p(alg.basis_element(1)) == alg.one  # 2 + i^2
    # trailing zeros are stripped, exact or float
    assert CentralPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert CentralPolynomial([1.5, 0.0, 0.0]).coeffs == (1.5,)
    for zero in ([0, 0], [0.0], []):
        with pytest.raises(ValueError):
            CentralPolynomial(zero)


def test_float_companion_refuses_an_overflowed_coefficient():
    # Norm(1e200) = 1e400 is beyond float64; companion itself refuses it
    A = OctonionAlgebra(-1, -1, -1, mode="float")
    phi = parse_polynomial("z + 1e200", A)
    with pytest.raises(NumericFailureError) as info:
        companion(phi)
    assert str(info.value) == "float64 overflow: companion coefficient b_0 is inf"


def test_float_companion_over_a_split_algebra_keeps_a_zero_leading_norm():
    # over (1, -1, -1) the leading coefficient 1 + i has norm 0 in exact
    # arithmetic, so Phi of degree 3 < 4 is genuine and companion accepts it
    A = OctonionAlgebra(1, -1, -1, mode="float")
    Phi = companion(parse_polynomial("(1 + i)*z^2 + z + 1", A))
    assert Phi.degree == 3
    assert Phi.coeffs == (1.0, 2.0, 3.0, 2.0)


def test_central_polynomial_takes_no_mode():
    with pytest.raises(TypeError):
        CentralPolynomial([1.0, 0.0, 1.0], "float")
