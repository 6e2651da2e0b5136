"""Polynomials over Z and Z/m, as int lists c_0..c_n without trailing zeros
([] is 0), for the exact factor search of ``central``.

Every kernel is one pass per step over plain ints.  Over Z/m, ``_divmod``
divides by a monic polynomial; over F_p, ``_rem`` reduces by any nonzero
polynomial, scaling each quotient coefficient by the inverse of the leading
one as it goes, and serves ``_monic_gcd`` and ``_mulmod`` (a product, then
one reduction pass), which ``_powmod`` squares with.  Over Z, ``_zdivmod``
stops at the first quotient coefficient that is not an integer, and
``_quotient`` rejects a divisor by its end coefficients before it divides.
``_newton_lift`` takes both remainders of a lifting step in one double
synthetic division that never builds the quotient."""

import itertools
import math

# ---------------------------------------------------------------------------
# polynomials over Z/m
# ---------------------------------------------------------------------------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a, b, m, k=1):
    """a + k b mod m."""
    return _trim([(x + k * y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _mul(a, b, m):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim([x % m for x in out])


def _monic(a, m):
    """a != 0 times the inverse of its leading coefficient mod m."""
    inv = pow(a[-1], -1, m)
    return [x * inv % m for x in a]


def _divmod(a, b, m):
    """(quotient, remainder) of a by the monic b mod m; a zero quotient
    coefficient subtracts nothing."""
    n = len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - n, 0)
    for k in reversed(range(len(q))):
        q[k] = c = r[k + n] % m
        if c:
            for j in range(n):  # r[k + n] is not read again
                r[k + j] -= c * b[j]
    return _trim(q), _trim([x % m for x in r[:n]])


def _rem(a, b, p):
    """a mod b over F_p for a nonzero b, in one pass from the top: each
    quotient coefficient is read times -1/lc(b) and not stored, so b need
    not be monic and a need not be reduced."""
    n = len(b) - 1
    r, low = list(a), b[:n]
    inv = -pow(b[-1], -1, p)
    for k in reversed(range(len(a) - n)):
        c = r.pop() * inv % p
        if c:
            for j, y in enumerate(low, k):
                r[j] += c * y
    return _trim([x % p for x in r])


def _mulmod(a, b, f, p):
    """a b mod the monic f over F_p: the product over Z, then one
    reduction pass."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _rem(out, f, p)


def _monic_gcd(a, b, p):
    """The monic gcd of a != 0 and b over F_p; a nonzero constant remainder
    ends the sequence at gcd 1."""
    while len(b) > 1:
        a, b = b, _rem(a, b, p)
    return [1] if b else _monic(a, p)


def _powmod(a, e, f, p):
    """a^e mod the monic f over F_p, for e >= 1 and deg a < deg f, by
    left-to-right binary powering."""
    out = a
    for bit in bin(e)[3:]:
        out = _mulmod(out, out, f, p)
        if bit == "1":
            out = _mulmod(out, a, f, p)
    return out


# ---------------------------------------------------------------------------
# polynomials over Z, nonzero
# ---------------------------------------------------------------------------


def _primitive(a):
    """a divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [c // g for c in a]


def _zdivmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b over Z, or None at the first
    quotient coefficient that is not an integer: for a primitive b that
    already proves b does not divide a over Q (Gauss's lemma)."""
    n, lb = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(len(a) - n, 0)
    for k in reversed(range(len(q))):
        c, rest = divmod(r[k + n], lb)
        if rest:
            return None
        q[k] = c
        if c:
            for j in range(n):
                r[k + j] -= c * b[j]
    return q, _trim(r[:n])


def _quotient(a, b):
    """a / b if b divides a over Z, else None.  A nonzero a is first tested
    at its ends: b | a needs lc(b) | lc(a) and b(0) | a(0), and b(0) = 0
    (b has the factor z) needs a(0) = 0."""
    if a and (a[-1] % b[-1] or (a[0] % b[0] if b[0] else a[0])):
        return None
    qr = _zdivmod(a, b)
    return qr[0] if qr is not None and not qr[1] else None


def _primitive_gcd(a, b):
    """The primitive gcd with positive leading coefficient of two nonzero
    integer polynomials, by the primitive remainder sequence: each step
    divides lc(b)^(deg a - deg b + 1) a by b, which leaves an integer
    quotient, and makes the remainder primitive."""
    a, b = _primitive(a), _primitive(b)
    while b:
        scale = b[-1] ** max(len(a) - len(b) + 1, 0)
        r = _zdivmod([scale * c for c in a], b)[1]
        a, b = b, _primitive(r) if r else r
    return a


# ---------------------------------------------------------------------------
# the F_p stage: square-free test, local factors of degree <= 2, lifting
# ---------------------------------------------------------------------------


def _square_free_mod_p(a, tries=None):
    """(p, a mod p made monic) for the smallest odd prime p that does not
    divide lc(a) and keeps a mod p square-free, or None when the first
    ``tries`` odd primes that do not divide lc(a) all fail.  A square-free
    a mod p proves a square-free over Q: a repeated factor over Q stays
    repeated mod every p that keeps the degree."""
    lead, p = a[-1], 1
    while tries != 0:
        p += 2
        if lead % p == 0 or any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2)):
            continue
        f = _monic(a, p)
        if len(_monic_gcd(f, _trim([k * c % p for k, c in enumerate(f)][1:]), p)) == 1:
            return p, f
        if tries is not None:
            tries -= 1
    return None


def _split_quadratics(g, p):
    """The monic irreducible factors of g, a product of distinct monic
    irreducible quadratics over F_p, p odd: Cantor-Zassenhaus by the gcds of
    g with (z + s)^((p^2 - 1)/2) - 1 for s = 0, 1, ..., p - 1.  Mod an
    irreducible quadratic f that power is the Legendre symbol of f(-s), the
    norm of z + s, so f_1 and f_2 part at each s with f_1(-s) f_2(-s) a
    non-square.  Some s < p is one: for p >= 11 by Weil's bound 3 sqrt(p) < p
    on the character sum of the root-free quartic f_1 f_2, and for p <= 23
    by a check of every pair."""
    parts, e = [g], (p * p - 1) // 2
    for s in range(p):
        b = _add(_powmod([s, 1], e, g, p), [1], p, -1)
        split = []
        for u in parts:
            v = _monic_gcd(u, b, p)
            split += [v, _divmod(u, v, p)[0]] if 1 < len(v) < len(u) else [u]
        parts = split
        if 2 * len(parts) == len(g) - 1:
            return parts
    raise ArithmeticError("no shift z + s splits the quadratic factors mod %d" % p)


def _local_factors(f, p):
    """The monic irreducible factors of degree 1 and 2 of a monic
    square-free f over F_p.  The linears are z - r for the residues r with
    f(r) = 0.  The quadratics divide the root-free rest g: g itself when
    deg g = 2, none when deg g = 3, and otherwise the factors of
    gcd(g, z^(p^2) - z), split by ``_split_quadratics``."""
    values = [0] * p  # f at every residue, by Horner's rule on them all
    for c in reversed(f):
        values = [(v * r + c) % p for r, v in enumerate(values)]
    linears, g = [], f
    for r, value in enumerate(values):
        if value == 0:
            u = [-r % p, 1]
            linears.append(u)
            g = _divmod(g, u, p)[0]
    if len(g) > 4:
        z = [0, 1]
        g = _monic_gcd(g, _add(_powmod(z, p * p, g, p), z, p, -1), p)
        return linears + (_split_quadratics(g, p) if len(g) > 1 else [])
    return linears + ([g] if len(g) == 3 else [])


def _newton_lift(S, u, p, m):
    """The monic factor h of S mod m = p^(2^j) with h = u mod p, for an
    integer polynomial S that is square-free mod p with lc(S) a unit, and a
    monic factor u of degree 1 or 2 of S mod p.

    p-adic Newton (Bairstow) iteration on h's own coefficients, each step
    doubling the modulus.  For h = z^2 + a z + b, with S = h q + r_1 z + r_0
    and q = h q_2 + s_1 z + s_0, the Jacobian of (r_1, r_0) in (a, b) is
    [[a s_1 - s_0, -s_1], [b s_1, -s_0]], whose determinant is the
    resultant of h and q, a unit because S is square-free mod p.  One
    double synthetic division from S's top coefficient gives both
    remainders: t_k = S_k - a t_(k+1) - b t_(k+2) are the coefficients of
    q, each fed at once to the same recurrence for q by h, and q is never
    stored.  For h = z + b the step keeps h's leading 1 (a = 1, and
    r_1 = s_1 = 0) and takes b to b + r_0 / s_0, with r_0 = S(r) and
    s_0 = q(r) = S'(r) by Horner's rule at the root r = -b: Newton's
    r - S(r) / S'(r) (von zur Gathen & Gerhard, Modern Computer Algebra,
    sec. 15)."""
    h, mod = u, p
    top = S[:1:-1]  # S_n .. S_2
    while mod < m:
        mod *= mod
        b, a = h[0], h[1]
        if len(h) == 2:  # r_0 = S(-b) and s_0 = S'(-b), by one Horner pass
            r0 = s0 = r1 = s1 = 0
            for c in reversed(S):
                s0 = (s0 * -b + r0) % mod
                r0 = (r0 * -b + c) % mod
        else:
            t1 = t2 = u1 = u2 = 0  # t_(k+1), t_(k+2); the same two for q
            for c in top:
                t1, t2 = (c - a * t1 - b * t2) % mod, t1
                u1, u2 = (t1 - a * u1 - b * u2) % mod, u1
            r1, r0 = (S[1] - a * t1 - b * t2) % mod, (S[0] - b * t1) % mod
            s1, s0 = u2, (u1 + a * u2) % mod
        inv = pow(s0 * s0 - a * s0 * s1 + b * s1 * s1, -1, mod)
        da = (s1 * r0 - s0 * r1) * inv
        db = ((a * s1 - s0) * r0 - b * s1 * r1) * inv
        h = [(b - db) % mod, (a - da) % mod] + h[2:]
    return h
