"""The kernels of ``intpoly`` against sympy's polynomial arithmetic and the
test oracles: its division loops and one-pass remainder, the product mod f,
the remainder sequence and its pseudo-remainder step, the trial division's
pre-check and the one-pass lifting step."""

import random

import pytest

from octopoly import intpoly
from oracle import two_division_lift

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


def test_rem_mod_p_matches_sympy():
    # a mod b over GF(p) for a b that need not be monic and an a that need
    # not be reduced (negative and large coefficients), and a b of degree 0
    sympy, poly, ints = _sympy_tools()
    rng = random.Random(20261025)
    for p in PRIMES:
        for case in range(16):
            big = rng.randint(1, 10**6)
            a = _draw(rng, rng.randint(0, 12), span=10**6, lead=-big) if case % 4 else []
            b = [c % p for c in _draw(rng, rng.randint(0, 5), span=p)]
            b[-1] = b[-1] or 1
            r = intpoly._rem(a, b, p)
            assert len(r) < len(b) and all(0 <= c < p for c in r)
            assert r == ints(sympy.rem(poly(a, modulus=p), poly(b, modulus=p)), p)


def test_mulmod_matches_sympy():
    # a b mod the monic f over GF(p), for reduced a and b of degree below
    # deg f (a zero factor included), as _powmod feeds it
    sympy, poly, ints = _sympy_tools()
    rng = random.Random(20261026)
    for p in PRIMES:
        for case in range(12):
            f = [c % p for c in _draw(rng, rng.randint(1, 8), lead=1)]
            a, b = ([c % p for c in _draw(rng, rng.randint(0, len(f) - 2))] for _ in range(2))
            a = intpoly._trim(a) if case % 6 else []
            want = sympy.rem(poly(a, modulus=p) * poly(b, modulus=p), poly(f, modulus=p))
            assert intpoly._mulmod(a, intpoly._trim(b), f, p) == ints(want, p)


def test_quotient_precheck_keeps_every_divisor():
    # the end-coefficient tests reject only non-divisors: divisors with a
    # zero constant term (the factor z), negative leading coefficients and
    # repeated factors divide, and every verdict is the full division's
    rng = random.Random(20261027)
    divisors = [[0, 1], [0, -3], [0, 2, 5], [0, 0, 1], [4, -2], [-1, 0, -1]]
    divisors += [_draw(rng, rng.randint(1, 3), span=6) for _ in range(30)]
    for b in divisors:
        for power in (1, 2, 3):
            a = _draw(rng, rng.randint(0, 4), span=6)
            for _ in range(power):
                a = _zmul(a, b)
            q = intpoly._quotient(a, b)
            assert q is not None and _zmul(q, b) == a
        for _ in range(10):
            a = _draw(rng, rng.randint(0, 8), span=6)
            if rng.random() < 0.3:
                a[0] = 0
            qr = intpoly._zdivmod(a, b)
            assert intpoly._quotient(a, b) == (qr[0] if qr is not None and not qr[1] else None)
    # z^3 (z - 2): the factor z divides three times, then a(0) = -2 stops it
    a, count = [0, 0, 0, -2, 1], 0
    while (q := intpoly._quotient(a, [0, 1])) is not None:
        a, count = q, count + 1
    assert (a, count) == ([-2, 1], 3)


def test_newton_lift_matches_the_two_division_reference():
    # the one-pass lift returns the reference's list for every local factor
    # of degree 1 and 2 of seeded S square-free mod p, p = 3..23, deg S up to
    # 32 and m = p^(2^j) for j = 0..5; the lifted h divides S mod m
    rng = random.Random(20261028)
    lifted = {1: 0, 2: 0}
    for p in PRIMES:
        for degree in (2, 3, 4, 5, 7, 9, 17, 32):
            while True:
                S = _draw(rng, degree, span=10**6, lead=rng.choice([-1, 1]) * rng.randint(1, 10**6))
                if S[-1] % p == 0:
                    continue
                f = intpoly._monic([c % p for c in S], p)
                fprime = intpoly._trim([k * c % p for k, c in enumerate(f)][1:])
                if len(intpoly._monic_gcd(f, fprime, p)) == 1:
                    break
            for u in intpoly._local_factors(f, p):
                for j in range(6):
                    m = p ** (2**j)
                    h = intpoly._newton_lift(S, u, p, m)
                    assert h == two_division_lift(S, u, p, m)
                    assert intpoly._divmod(S, h, m)[1] == [] and h[-1] == 1
                lifted[len(u) - 1] += 1
    assert lifted[1] >= 40 and lifted[2] >= 20
