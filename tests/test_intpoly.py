"""The two division loops of ``intpoly``, its remainder sequence and its
pseudo-remainder step, against sympy's polynomial arithmetic."""

import random

import pytest

from octopoly import intpoly

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def _draw(rng, degree, span=9, lead=None):
    """An int list c_0..c_n of the degree, every coefficient in [-span,
    span], the leading one nonzero (``lead`` when given)."""
    a = [rng.randint(-span, span) for _ in range(degree)]
    return a + [lead or rng.choice([c for c in range(-span, span + 1) if c])]


def _zmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sympy_tools():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def poly(a, **domain):
        return sympy.Poly(list(reversed(a)) or [0], x, **domain)

    def ints(P, m=None):
        """P's coefficients c_0..c_n as ints (mod m), without trailing zeros."""
        return intpoly._trim([int(c) % m if m else int(c) for c in reversed(P.all_coeffs())])

    return sympy, poly, ints


def test_divmod_mod_p_matches_sympy():
    # q b + r = a with deg r < deg b, for a monic b, and the q and r of
    # sympy's division over GF(p)
    sympy, poly, ints = _sympy_tools()
    rng = random.Random(20261021)
    for p in PRIMES:
        for _ in range(12):
            a = intpoly._trim([c % p for c in _draw(rng, rng.randint(0, 9))])
            b = _draw(rng, rng.randint(1, 4), lead=1)
            b = [c % p for c in b]
            q, r = intpoly._divmod(a, b, p)
            assert intpoly._add(intpoly._mul(q, b, p), r, p) == a and len(r) < len(b)
            sq, sr = sympy.div(poly(a, modulus=p), poly(b, modulus=p))
            assert (q, r) == (ints(sq, p), ints(sr, p))


def test_integer_division_matches_sympy_over_qq():
    # None exactly when sympy's quotient over QQ has a coefficient that is
    # not an integer; otherwise that quotient and remainder
    sympy, poly, ints = _sympy_tools()
    rng = random.Random(20261022)
    stopped = 0
    for case in range(200):
        b = _draw(rng, rng.randint(1, 3), span=4)
        if case % 2:  # an integer quotient q: a = q b + r
            a = _zmul(_draw(rng, rng.randint(0, 4)), b)
            for k, c in enumerate(_draw(rng, len(b) - 2)):
                a[k] += c
        else:
            a = _draw(rng, rng.randint(0, 7))
        got = intpoly._zdivmod(a, b)
        sq, sr = sympy.div(poly(a, domain="QQ"), poly(b, domain="QQ"))
        if any(c.q != 1 for c in sq.all_coeffs()):
            assert got is None
            stopped += 1
        else:
            assert got == (ints(sq), ints(sr))
            assert intpoly._quotient(a, b) == (None if got[1] else got[0])
    assert 20 <= stopped <= 180


def test_primitive_gcd_matches_sympy():
    # the primitive gcd with a positive leading coefficient, on pairs with
    # a common factor, a repeated one and none
    sympy, poly, ints = _sympy_tools()
    rng = random.Random(20261023)
    for case in range(60):
        common = _draw(rng, case % 4, span=5)
        a = _zmul(common, _draw(rng, rng.randint(1, 3), span=5))
        b = _zmul(common, _draw(rng, rng.randint(0, 3), span=5))
        if case % 3 == 0:
            a = _zmul(a, common)
        g = sympy.gcd(poly(a), poly(b)).primitive()[1]
        want = ints(g if g.LC() > 0 else -g)
        assert intpoly._primitive_gcd(a, b) == want


def test_pseudo_remainder_step_matches_sympy_prem():
    # the remainder sequence's step: lc(b)^(deg a - deg b + 1) a divided by
    # b over Z leaves an integer quotient and sympy's pseudo-remainder
    sympy, poly, ints = _sympy_tools()
    rng = random.Random(20261024)
    for _ in range(100):
        b = _draw(rng, rng.randint(1, 4))
        a = _draw(rng, rng.randint(len(b) - 1, 8))
        scale = b[-1] ** (len(a) - len(b) + 1)
        got = intpoly._zdivmod([scale * c for c in a], b)
        assert got is not None and got[1] == ints(sympy.prem(poly(a), poly(b)))
