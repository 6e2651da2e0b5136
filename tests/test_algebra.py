"""Octonion arithmetic: structure table, involution, invariants, inversion,
conjugacy utilities and the division-algebra check."""

import math
import random
from fractions import Fraction

import pytest

from octopoly import (
    ConfigurationError,
    DIVISION,
    NumericFailureError,
    OctonionAlgebra,
    SPLIT,
    SingularElementError,
    bilinear_form,
    conjugator,
    format_octonion,
    same_class,
)
from conftest import rand_invertible, rand_octonion
from oracle import loop_product, max_abs, oct_mul as oracle_mul


RATIONAL_PARAMS = (Fraction(-1, 2), -3, Fraction(-5, 7))


@pytest.mark.parametrize("params", [(-1, -1, -1), (2, 3, 5), (-2, -3, -5), RATIONAL_PARAMS])
def test_table_basis_products(params):
    A = OctonionAlgebra(*params)
    t = A.mult_table()
    assert t[1][2] == (1, 3)  # i*j = ij
    assert t[1][5] == (A.alpha, 4)  # i*(il) = alpha*l
    assert t[5][6] == (A.gamma, 3)  # (il)(jl) = gamma*ij
    assert t[0][7] == (1, 7)
    units = [tuple(Fraction(int(i == k)) for i in range(8)) for k in range(8)]
    for a in range(8):
        for b in range(8):
            c, k = t[a][b]
            expected = oracle_mul(units[a], units[b], A.alpha, A.beta, A.gamma)
            assert type(c) is Fraction
            assert tuple(c if i == k else 0 for i in range(8)) == expected


@pytest.mark.parametrize(
    "params",
    [(-1, -1, -1), (2, 3, 5), (Fraction(-1, 2), -3, Fraction(-5, 4)), (Fraction(3, 8), Fraction(-7, 16), 6)],
)
def test_float_table_is_the_exact_table_rounded(params):
    # dyadic parameters: every structure constant is a float64 exactly
    exact = OctonionAlgebra(*params).mult_table()
    table = OctonionAlgebra(*params, mode="float").mult_table()
    assert all(type(c) is float for row in table for c, _ in row)
    assert table == tuple(tuple((float(c), k) for c, k in row) for row in exact)


def test_table_generic_params(alg_generic):
    t = alg_generic.mult_table()
    assert t[1][5] == (Fraction(-2), 4)
    assert t[5][6] == (Fraction(-5), 3)
    assert t[1][1] == (Fraction(-2), 0)


@pytest.mark.parametrize("max_den", [3, 10**6])
def test_mul_agrees_with_oracle(rng, max_den):
    for params in [(-1, -1, -1), (2, 3, 5), (-2, -3, -5), RATIONAL_PARAMS]:
        A = OctonionAlgebra(*params)
        for _ in range(200):
            x = rand_octonion(rng, A, max_den=max_den)
            y = rand_octonion(rng, A, max_den=max_den)
            expected = oracle_mul(x.coords, y.coords, A.alpha, A.beta, A.gamma)
            assert (x * y).coords == expected


def _float_coords(rng):
    # wide magnitudes, and some coordinates +0.0 or -0.0
    return [
        rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.uniform(-9, 9) * 10.0 ** rng.randint(-6, 6)
        for _ in range(8)
    ]


@pytest.mark.parametrize("params", [(-1, -1, -1), (2, 3, 5), (-2, -3, -5), RATIONAL_PARAMS])
def test_float_product_is_bitwise_the_loop(params, rng):
    A = OctonionAlgebra(*(str(p) for p in params), mode="float")
    table = A.mult_table()
    for _ in range(300):
        x, y = _float_coords(rng), _float_coords(rng)
        got = (A.octonion(x) * A.octonion(y)).coords
        assert [c.hex() for c in got] == [c.hex() for c in loop_product(table, x, y)]


@pytest.mark.parametrize("params", [(-2, -3, -5), RATIONAL_PARAMS])
def test_exact_form_is_canonical(params, rng):
    A = OctonionAlgebra(*params)
    for _ in range(100):
        x = rand_octonion(rng, A, max_den=10**6)
        y = rand_octonion(rng, A, max_den=10**6)
        xy = x * y
        for c in xy.coords:
            assert isinstance(c, Fraction)
            assert math.gcd(c.numerator, c.denominator) == 1
        for a, b in [(xy, A.parse(format_octonion(xy))), ((x + y) - y, x)]:
            assert a == b and hash(a) == hash(b)
        zero = x - x
        assert zero == A.zero and zero.vec[1] == 1


def test_golden_products(alg):
    i, j, l = alg.basis_element(1), alg.basis_element(2), alg.basis_element(4)
    ij, jl = alg.basis_element(3), alg.basis_element(6)
    assert i * j == ij
    assert (i + j) * (i - l) == alg.octonion([-1, 0, 0, -1, 0, -1, -1, 0])
    assert ij * l == alg.basis_element(7)
    assert i * jl == -alg.basis_element(7)  # non-associativity witness


def test_mismatched_algebras_rejected(alg, alg_generic):
    with pytest.raises(ConfigurationError):
        alg.one * alg_generic.one


def test_conjugation(alg):
    one = alg.one
    assert one.conj() == one
    x = alg.basis_element(1) + alg.basis_element(6)
    assert x.conj() == -x
    y = alg.parse("1/2 + 1/2*k")
    assert y.conj() == alg.parse("1/2 - 1/2*k")


def test_invariants(alg):
    z = alg.parse("1/2 + 1/2*k + 1/2*il + 1/2*jl")
    assert z.invariants() == (1, 1)
    assert alg.one.invariants() == (2, 1)
    x = alg.basis_element(1) + alg.basis_element(2)
    assert x.invariants() == (0, 2)


def test_bilinear_form(alg, rng):
    one, i = alg.one, alg.basis_element(1)
    assert bilinear_form(one, i) == 0
    assert bilinear_form(i, i) == -2 * alg.alpha
    for _ in range(50):
        x = rand_octonion(rng, alg, max_den=2)
        y = rand_octonion(rng, alg, max_den=3)
        assert bilinear_form(one, x) == x.trace()
        assert bilinear_form(x, y) == (x.conj() * y).trace()
        assert bilinear_form(x, y) == (x + y).norm() - x.norm() - y.norm()


def test_inverse(alg):
    i, j = alg.basis_element(1), alg.basis_element(2)
    assert i.inverse() == -i
    assert (i + j).inverse() == -(i + j) / 2
    x = alg.parse("1 + 2*i - j + kl")
    assert x * x.inverse() == alg.one
    assert x.inverse() * x == alg.one


def test_isotropic_inverse_rejected():
    A = OctonionAlgebra(-1, -1, 1)
    x = A.one + A.basis_element(4)  # norm 1 - gamma = 0
    assert x.norm() == 0
    with pytest.raises(SingularElementError):
        x.inverse()


def test_isotropic_float_inverse_rejected_at_scale_nu_squared():
    # the norm form of (-1, -1, 1) is indefinite: 1 + l has norm 0, while
    # nu(x)^2 = sum_k |q_k| x_k^2 = 2 bounds |N| and is the scale of the test
    A = OctonionAlgebra(-1, -1, 1, mode="float")
    x = A.one + A.basis_element(4)
    assert x.norm() == 0 and x.magnitude() ** 2 == pytest.approx(2, rel=1e-15)
    with pytest.raises(SingularElementError):
        x.inverse()
    assert (x + A.basis_element(1)).inverse() * (x + A.basis_element(1)) == A.one


def test_same_class(alg):
    i, j = alg.basis_element(1), alg.basis_element(2)
    assert same_class(i, j)
    assert not same_class(i, alg.one + i)
    assert not same_class(-j, -i - j)


def test_conjugator_examples(alg):
    i, j = alg.basis_element(1), alg.basis_element(2)
    d = conjugator(i, j)
    assert d == i + j
    assert (d * j) * d.inverse() == i
    d2 = conjugator(i, -i)
    assert d2 == j
    assert (d2 * -i) * d2.inverse() == i
    x = alg.parse("3 + i - 2*jl")
    assert conjugator(x, x) == x - x.conj()
    assert conjugator(alg.scalar_octonion(5), alg.scalar_octonion(5)) == alg.one


def test_exact_decisions_need_no_float_scale(alg):
    # coordinates far beyond float range: exact zero tests never convert to float
    big = 10**400
    i, j = alg.basis_element(1), alg.basis_element(2)
    g, h = big * i, big * j
    assert same_class(g, h)
    d = conjugator(g, h)
    assert (d * h) * d.inverse() == g
    assert conjugator(g, g.conj()) == j


def test_conjugator_random(alg, rng):
    for _ in range(100):
        h = rand_octonion(rng, alg, lo=-5, hi=5)
        delta = rand_invertible(rng, alg, lo=-5, hi=5)
        g = (delta * h) * delta.inverse()
        d = conjugator(g, h)
        assert d.trace() == 0
        assert (d * h) * d.inverse() == g


def _conjugates_to(d, h, g):
    """Whether (d h) d^-1 == g: exactly, or at g's scale in float mode."""
    return ((d * h) * d.inverse() - g).is_zero(lambda: max(1.0, max_abs(g)))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("params", [(-1, -1, -1), (-2, -3, -5)])
@pytest.mark.parametrize(
    "text", ["1 + i + j + k + l + il + jl + kl", "i + 2*j + 3*k + 4*l + 5*il + 6*jl + 7*kl"]
)
def test_conjugator_of_the_conjugate_with_no_zero_pure_coordinate(text, params, mode):
    # no pure basis element is orthogonal to g, so the closed form
    # delta = q_2 g_2 e_1 - q_1 g_1 e_2 conjugates conj(g) to g
    A = OctonionAlgebra(*params, mode=mode)
    g = A.parse(text)
    d = conjugator(g, g.conj())
    q, c = A.norm_coeffs, g.coords
    assert d == A.octonion([0, q[2] * c[2], -q[1] * c[1], 0, 0, 0, 0, 0])
    assert d.trace() == 0
    assert _conjugates_to(d, g.conj(), g)


def test_conjugator_of_the_conjugate_seeded():
    # 250 non-central g per algebra and mode, half of them with no zero
    # pure coordinate, conjugated from h = conj(g)
    rng = random.Random(20261019)
    for params in ((-1, -1, -1), (-2, -3, -5)):
        for mode in ("exact", "float"):
            A = OctonionAlgebra(*params, mode=mode)
            for case in range(250):
                coords = [rng.randint(-5, 5) for _ in range(8)]
                if case % 2:
                    coords[1:] = [x or rng.choice((-1, 1)) for x in coords[1:]]
                if not any(coords[1:]):
                    coords[rng.randint(1, 7)] = 1
                g = A.octonion(coords)
                d = conjugator(g, g.conj())
                assert d.trace() == 0
                assert _conjugates_to(d, g.conj(), g)


def test_conjugator_raises_only_on_an_isotropic_closed_form():
    # over (-1, 1, -1), q_1 = 1 and q_2 = -1, so for g_1 = g_2 = 1 the
    # closed form -e_1 - e_2 has norm 0
    A = OctonionAlgebra(-1, 1, -1)
    g = A.parse("1 + i + j + k + l + il + jl + kl")
    with pytest.raises(ValueError, match="no conjugating element found"):
        conjugator(g, g.conj())
    g = A.parse("1 + i + 2*j + k + l + il + jl + kl")
    d = conjugator(g, g.conj())
    assert _conjugates_to(d, g.conj(), g)


def test_conjugator_requires_same_class(alg):
    with pytest.raises(ValueError):
        conjugator(alg.basis_element(1), alg.one)


def test_division_check():
    assert OctonionAlgebra(-1, -1, -1).division_check() == DIVISION == "division"
    assert OctonionAlgebra(-1, -7, -2).division_check() == DIVISION
    assert OctonionAlgebra(Fraction(-1, 3), -7, -2).division_check() == DIVISION
    # one positive parameter makes the norm form indefinite: 1 + l is
    # isotropic in the first, 1 + i + l in the second
    A = OctonionAlgebra(-1, -1, 1)
    assert A.division_check() == SPLIT == "split"
    assert (A.one + A.basis_element(4)).norm() == 0
    B = OctonionAlgebra(-1, -1, 2)
    assert B.division_check() == SPLIT
    assert B.parse("1 + i + l").norm() == 0
    for params in [(1, -1, -1), (-1, 3, -1), (2, 3, 5)]:
        assert OctonionAlgebra(*params).division_check() == SPLIT


def test_division_check_float():
    assert OctonionAlgebra(-1, -1, -1, mode="float").division_check() == DIVISION
    A = OctonionAlgebra(-1.0, -1.0, 2.0, mode="float")
    assert A.division_check() == SPLIT
    w = A.octonion([2**0.5, 0, 0, 0, 1, 0, 0, 0])
    assert abs(w.norm()) < 1e-9


# -- identity suite (sampled here; full counts live in the acceptance tests) --


def _random_pairs(rng, A, count, span):
    for _ in range(count):
        yield rand_octonion(rng, A, -span, span), rand_octonion(rng, A, -span, span)


@pytest.mark.parametrize("params", [(-1, -1, -1), (-2, -3, -5)])
def test_alternativity_and_flexibility(params, rng):
    A = OctonionAlgebra(*params)
    for x, y in _random_pairs(rng, A, 100, 6):
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)
        assert (x * y) * x == x * (y * x)


def test_moufang_identities(alg, rng):
    for _ in range(100):
        x = rand_octonion(rng, alg, -5, 5)
        y = rand_octonion(rng, alg, -5, 5)
        z = rand_octonion(rng, alg, -5, 5)
        assert (x * y) * (z * x) == (x * (y * z)) * x
        assert ((x * y) * x) * z == x * (y * (x * z))


def test_norm_multiplicativity_and_char_equation(alg, rng):
    for x, y in _random_pairs(rng, alg, 100, 8):
        assert (x * y).norm() == x.norm() * y.norm()
        t, n = x.invariants()
        assert x * x - t * x + n * alg.one == alg.zero
        assert (x * y).conj() == y.conj() * x.conj()


def test_conjugation_preserves_invariants(alg, rng):
    for _ in range(100):
        h = rand_octonion(rng, alg, -6, 6)
        d = rand_invertible(rng, alg, -6, 6)
        assert ((d * h) * d.inverse()).invariants() == h.invariants()


def test_bilinear_adjoint_identity(alg, rng):
    for _ in range(100):
        x = rand_octonion(rng, alg, -5, 5)
        y = rand_octonion(rng, alg, -5, 5)
        z = rand_octonion(rng, alg, -5, 5)
        assert bilinear_form(x * y, z) == bilinear_form(y, x.conj() * z)
        assert bilinear_form(x * y, z) == bilinear_form(x, z * y.conj())


def test_product_bilinearity(alg, rng):
    for _ in range(50):
        x = rand_octonion(rng, alg, -5, 5)
        y = rand_octonion(rng, alg, -5, 5)
        z = rand_octonion(rng, alg, -5, 5)
        assert (x + y) * z == x * z + y * z
        assert z * (x + y) == z * x + z * y
        assert (3 * x) * y == 3 * (x * y)


def test_norm_trace_match_products(alg, rng):
    # Norm and trace defined through the product: conj(x)*x and x + conj(x)
    for _ in range(100):
        x = rand_octonion(rng, alg, -7, 7, max_den=3)
        t, n = x.invariants()
        assert x.conj() * x == n * alg.one
        assert x + x.conj() == t * alg.one


def test_float_mode_basics(alg_float):
    i, j = alg_float.basis_element(1), alg_float.basis_element(2)
    prod = (i + j) * (i - alg_float.basis_element(4))
    assert prod.coords == (-1.0, 0.0, 0.0, -1.0, 0.0, -1.0, -1.0, 0.0)
    assert same_class(i, j)
    x = alg_float.octonion([0.3, -1.2, 0.5, 0.0, 2.0, 0.0, 0.0, 1.0])
    y = x * x.inverse()
    assert max(abs(c) for c in (y - alg_float.one).coords) < 1e-12


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "value",
    [True, False, b"1", bytearray(b"1"), memoryview(b"1")],
    ids=["True", "False", "bytes", "bytearray", "memoryview"],
)
def test_bools_and_bytes_are_not_scalars(mode, value):
    # float() reads them as 0.0 or 1.0; both modes refuse them instead
    A = OctonionAlgebra(-1, -1, -1, mode=mode)
    with pytest.raises(TypeError):
        A.scalar(value)
    with pytest.raises(TypeError):
        A.octonion([value] + [0] * 7)
    with pytest.raises(TypeError):
        A.one * value


class _FloatLike:
    """Not a number, but float() reads it."""

    def __float__(self):
        return 1.0


def test_only_numbers_and_strings_are_scalars():
    # float() reads an object with __float__, but it is no number: float
    # mode refuses it as exact mode does
    for mode in ("exact", "float"):
        A = OctonionAlgebra(-1, -1, -1, mode=mode)
        with pytest.raises(TypeError):
            A.scalar(_FloatLike())
        with pytest.raises(TypeError):
            A.octonion([_FloatLike()] + [0] * 7)


def test_numpy_bools_are_not_scalars():
    # numpy.bool_ is no subclass of bool, and no registered Number
    numpy = pytest.importorskip("numpy")
    for mode in ("exact", "float"):
        A = OctonionAlgebra(-1, -1, -1, mode=mode)
        for value in (numpy.True_, numpy.False_):
            with pytest.raises(TypeError):
                A.scalar(value)


def test_float_inverse_refuses_an_overflowed_norm():
    # Norm(1e200) = 1e400 and its scale nu^2 are beyond float64
    A = OctonionAlgebra(-1, -1, -1, mode="float")
    with pytest.raises(NumericFailureError, match="^float64 overflow: "):
        A.scalar_octonion(1e200).inverse()


def test_bad_parameters():
    with pytest.raises(ConfigurationError):
        OctonionAlgebra(0, -1, -1)
    with pytest.raises(TypeError):
        OctonionAlgebra(-1.5, -1, -1)  # float into exact mode
    # a value outside float64 (the rational overflows, the float is inf)
    for alpha in ("-1e400", Fraction(-(10**400)), float("-inf"), float("nan")):
        with pytest.raises(ConfigurationError, match="not a finite float64"):
            OctonionAlgebra(alpha, "-1", "-1", mode="float")
    # a nonzero value that rounds to 0.0
    for alpha in ("1e-400", "-1/1" + "0" * 400, Fraction(1, 10**400)):
        with pytest.raises(ConfigurationError, match="underflows to 0 in float64"):
            OctonionAlgebra(alpha, "-1", "-1", mode="float")
