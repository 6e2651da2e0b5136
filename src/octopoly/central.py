"""Roots of the central companion polynomial over the closure of the base field.

Each closure root that generates an extension of degree <= 2 is collapsed to
its (trace, norm) pair -- a conjugacy-class candidate.  Exact mode finds
every rational factor of degree <= 2 by a complete modular search on
integer polynomials.  A prime p that keeps the integer form square-free
mod p proves it square-free, so the primitive remainder sequence runs only
when the first few primes fail (a repeated factor, as for a full class).
Over F_p the linear factors come from the residues where the polynomial
vanishes and the quadratics from the root-free rest; every arithmetic step
there divides by a monic polynomial.  The local factors are lifted by
p-adic Newton (Bairstow) steps, and each candidate is confirmed by integer
trial division that stops at the first leading term that does not divide.
Float mode finds all complex roots by Aberth-Ehrlich iteration, as conjugate
pairs first since Phi(x) = N(phi(x)) >= 0 for real x, and clusters them by
their inclusion discs.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import NumericFailureError
from .polynomials import CentralPolynomial
from .scalars import ToleranceSpec

_ABERTH_MAX_ITER = 200
_SQUARE_FREE_TRIES = 6  # odd primes p not dividing lc(R) tried before the PRS
_EPS = 2.0**-52  # twice the unit roundoff


class ClassCandidate(
    namedtuple("ClassCandidate", "trace norm field_degree multiplicity")
):
    """A (trace, norm) conjugacy-class candidate of the companion polynomial.

    field_degree (an int) 1 means the underlying closure root lies in the
    base field (trace^2 == 4*norm); field_degree 2 means z^2 - trace*z + norm
    is irreducible (exact) / a conjugate complex pair (float).  multiplicity
    is an int.
    """

    __slots__ = ()


class CentralRoots(
    namedtuple("CentralRoots", "candidates warnings discarded_degree", defaults=((), 0))
):
    """Candidates (a tuple of :class:`ClassCandidate`) plus bookkeeping: a
    tuple of warnings and the degree (an int) of the part of the polynomial
    whose roots generate extensions of degree > 2 (those can never embed
    into the algebra and are discarded)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# polynomials over Z/m: int lists c_0..c_n without trailing zeros ([] is 0)
# ---------------------------------------------------------------------------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a, b, m, k=1):
    """a + k b mod m."""
    pairs = itertools.zip_longest(a, b, fillvalue=0)
    return _trim([(x + k * y) % m for x, y in pairs])


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
    """(quotient, remainder) of a by the monic b mod m."""
    n = len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - n, 0)
    for k in reversed(range(len(q))):
        q[k] = c = r[k + n] % m
        for j in range(n):  # r[k + n] is not read again
            r[k + j] -= c * b[j]
    return _trim(q), _trim([x % m for x in r[:n]])


def _rem(a, b, m):
    """The remainder of a by the monic b mod m; no quotient is kept."""
    n = len(b) - 1
    r = list(a)
    for k in reversed(range(len(r) - n)):
        c = r[k + n] % m
        if c:
            for j in range(n):
                r[k + j] -= c * b[j]
    return _trim([x % m for x in r[:n]])


def _monic_gcd(a, b, p):
    """The monic gcd of a monic a and b over F_p."""
    while b:
        b = _monic(b, p)
        a, b = b, _rem(a, b, p)
    return a


def _powmod(a, e, f, p):
    """a^e mod the monic f over F_p, for e >= 1 and deg a < deg f, by
    left-to-right binary powering."""
    out = a
    for bit in bin(e)[3:]:
        out = _rem(_mul(out, out, p), f, p)
        if bit == "1":
            out = _rem(_mul(out, a, p), f, p)
    return out


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


# ---------------------------------------------------------------------------
# exact factors of degree <= 2
# ---------------------------------------------------------------------------


class ExactFactorization(
    namedtuple("ExactFactorization", "factors remainder truncated", defaults=(False,))
):
    """Monic linear/quadratic rational factors with multiplicities, as
    ``factors = ((CentralPolynomial, multiplicity), ...)``, plus the exact
    ``remainder`` (a :class:`CentralPolynomial`), which has no rational
    factor of degree <= 2; multiplying everything back reproduces the input
    coefficientwise.  ``truncated`` is always False because the search is
    complete; the field stays because the benchmark's ``central.truncated``
    counter reads it."""

    __slots__ = ()


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
    resultant of h and q, a unit because S is square-free mod p.  For
    h = z + b the remainders give r_1 = s_1 = 0, so the same step keeps
    h's leading 1 and takes b to b + r_0 / s_0: Newton's r - S(r) / S'(r)
    at the root r = -b (von zur Gathen & Gerhard, Modern Computer Algebra,
    sec. 15)."""
    h, mod = u, p
    while mod < m:
        mod *= mod
        b, a = h[0], h[1]
        q, rem = _divmod(S, h, mod)
        r0, r1 = rem + [0] * (2 - len(rem))
        rem = _rem(q, h, mod)
        s0, s1 = rem + [0] * (2 - len(rem))
        inv = pow(s0 * s0 - a * s0 * s1 + b * s1 * s1, -1, mod)
        da = (s1 * r0 - s0 * r1) * inv
        db = ((a * s1 - s0) * r0 - b * s1 * r1) * inv
        h = [(b - db) % mod, (a - da) % mod] + h[2:]
    return h


# ---------------------------------------------------------------------------
# polynomials over Z: int lists c_0..c_n, nonzero
# ---------------------------------------------------------------------------


def _primitive(a):
    """a divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [c // g for c in a]


def _pseudo_remainder(a, b):
    """A remainder of lc(b)^k a by b over Z, for some k >= 0."""
    r, lb, n = list(a), b[-1], len(b) - 1
    while len(r) > n:
        c = r.pop()
        k = len(r) - n
        r = [lb * x for x in r]
        for j in range(n):
            r[k + j] -= c * b[j]
        _trim(r)
    return r


def _primitive_gcd(a, b):
    """The primitive gcd with positive leading coefficient of two nonzero
    integer polynomials, by the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, _primitive(r) if r else r
    return a


def _quotient(a, b):
    """a / b if b divides a over Z, else None.  The division stops at the
    first quotient coefficient that is not an integer: for a primitive b
    that already proves b does not divide a over Q (Gauss's lemma)."""
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
    return None if any(r[:n]) else q


def exact_quadratic_factors(Phi: CentralPolynomial):
    """Extract every monic rational factor of degree <= 2, with multiplicity.

    The search is complete (small-prime Zassenhaus method, von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 14-15) and runs on integer
    polynomials throughout.  R is the primitive integer form of Phi.  Its
    square-free part S is R itself when ``_square_free_mod_p`` finds R mod p
    square-free at one of the first few odd primes p not dividing lc(R);
    otherwise S = R / gcd(R, R'), the gcd taken by a primitive
    pseudo-remainder sequence, and p is the smallest good prime for S.  The
    monic factors of degree <= 2 of S mod p (``_local_factors``) are lifted by
    p-adic Newton iteration to the first m = p^(2^j) > 4 (floor(||S||_2) + 1).
    Every integer factor F of S of degree <= 2 has lc(S)/lc(F) F congruent mod
    m to lc(S) times a lifted factor or a product of two lifted linears, and
    its coefficients are below 2 ||S||_2 < m/2 in absolute value (Mignotte),
    so the symmetric residue recovers it.  Each candidate, made primitive, is
    confirmed by exact integer division of R, repeated for its multiplicity; a
    division stops at the first leading term that does not divide.  The
    remainder is what is left of R, rescaled to Phi's leading coefficient.
    Every polynomial here is held in integer form, so no Fraction is built.
    """
    if Phi.ints is None:
        raise ValueError("exact_quadratic_factors needs exact-rational coefficients")
    nums, den = Phi.ints
    if len(nums) < 2:
        return ExactFactorization((), CentralPolynomial(nums, den=den))
    R = _primitive(list(nums))
    found = _square_free_mod_p(R, _SQUARE_FREE_TRIES)
    S = R
    if found is None:  # most likely R has a repeated factor
        S = _quotient(R, _primitive_gcd(R, [k * c for k, c in enumerate(R)][1:]))
        found = _square_free_mod_p(S)
    p, f = found
    lead = S[-1]
    m = p
    while m <= 4 * (math.isqrt(sum(c * c for c in S)) + 1):
        m *= m
    local = [_newton_lift(S, u, p, m) for u in _local_factors(f, p)]
    pairs = itertools.combinations([h for h in local if len(h) == 2], 2)
    factors = []
    # the linears come first, so every rational root is taken from them
    for h in local + [_mul(a, b, m) for a, b in pairs]:
        F = _primitive([x - m if 2 * x > m else x for x in (lead * c % m for c in h)])
        mult = 0
        while (Q := _quotient(R, F)) is not None:
            R = Q
            mult += 1
        if mult:
            factors.append((F, mult))
    # linears by root -c_0/c_1 ascending, then quadratics by (norm, -trace)
    # = (c_0/c_2, c_1/c_2), compared over the lcm L of the leading terms
    L = math.lcm(*(F[-1] for F, _ in factors))

    def key(fm):
        F, k = fm[0], L // fm[0][-1]
        return (1, -F[0] * k) if len(F) == 2 else (2, F[0] * k, F[1] * k)

    factors.sort(key=key)
    factors = tuple((CentralPolynomial(F, den=F[-1]), mult) for F, mult in factors)
    rest = CentralPolynomial([nums[-1] * c for c in R], den=den * R[-1])
    return ExactFactorization(factors, rest)


# ---------------------------------------------------------------------------
# float roots: simultaneous iteration and inclusion discs
# ---------------------------------------------------------------------------


def _horner(b, z):
    """(p(z), p'(z), sum_k |b_k| |z|^k) by one pass over b_0..b_n; the last
    times len(b) * _EPS bounds the rounding error of p(z)."""
    p = dp = 0j
    s, r = 0.0, abs(z)
    for c in reversed(b):
        dp = dp * z + p
        p = p * z + c
        s = s * r + abs(c)
    return p, dp, s


def _sweeps(b, z, pairs):
    """Aberth-Ehrlich sweeps on z, in place, until every |p(z_i)| is below
    its rounding bound, then one Newton polish.  With ``pairs`` each z_i is
    above the real axis and stands for itself and its conjugate, so the
    correction also sums over the conjugates, its own included, and None is
    returned when a step would cross the axis or the sweeps do not converge."""
    pool = z + [w.conjugate() for w in z] if pairs else z  # the correction's roots
    for _ in range(_ABERTH_MAX_ITER):
        moved, values = False, []
        for i, zi in enumerate(z):
            p, dp, scale = _horner(b, zi)
            values.append((p, dp))
            if abs(p) > len(b) * _EPS * scale:
                s = p * sum(1 / (zi - w) for w in pool if w != zi)
                if dp != s:
                    z[i] = zi = zi - p / (dp - s)
                    moved = True
                    if pairs:
                        if not zi.imag > 0:
                            return None
                        pool[i], pool[i + len(z)] = zi, zi.conjugate()
        if not moved:
            break
    if moved:  # no convergence: the last sweep's values are stale
        if pairs:
            return None
        values = [_horner(b, w)[:2] for w in z]
    for i, (p, dp) in enumerate(values):
        if dp != 0:
            z[i] -= p / dp
    return z


def _aberth(b):
    """(z, paired): approximations to the roots of the real b_0 + ... + b_n z^n,
    b_0 != 0, from the circle of twice the Fujiwara bound.  A companion
    polynomial is N(phi(x)) >= 0 for real x, so its roots come in conjugate
    pairs and its real roots have even multiplicity: for even n, ``_sweeps``
    first runs on n/2 pairs above the axis (paired: the roots are z and their
    conjugates).  An odd n, a crossing or no convergence sweeps all n roots."""
    n = len(b) - 1
    radius = 2 * max(
        abs(b[n - k] / b[n] / (2 if k == n else 1)) ** (1 / k) for k in range(1, n + 1)
    )
    if n % 2 == 0:
        start = [radius * cmath.exp(1j * math.pi * (k + 0.5) / (n // 2)) for k in range(n // 2)]
        z = _sweeps(b, start, True)
        if z is not None:
            return z, True
    z = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    return _sweeps(b, z, False), False


def numeric_roots(coeffs, tol: ToleranceSpec | None = None):
    """All complex roots of a real-coefficient float polynomial, as a
    multiset of (re, im) tuples.

    Exactly zero low coefficients give the root 0; Aberth iteration finds
    the others, as conjugate pairs when it can (``_aberth``).  A residual
    above abs_eps + rel_eps * sum_k |b_k| |r|^k raises NumericFailureError
    with the residuals.  Each approximation z_i then gets the inclusion
    radius r_i = n (|p(z_i)| + e_i) / |b_n prod_{j != i} (z_i - z_j)|, e_i
    the rounding bound.  Horner's values at conj(z) are those at z
    conjugated, so a pair's certificate and radius serve both members.  A
    connected component of k overlapping discs holds exactly k roots (Bini
    1996; Bini & Robol 2014): it is one cluster, and its centre, the mean
    refined by Newton steps on the (k-1)-th derivative (three, or fewer when
    one leaves it unchanged), is emitted k times.  A cluster whose disc
    meets the real axis is real; one above the axis is emitted with its
    exact conjugate in place of its mirror cluster (which is not refined),
    and NumericFailureError is raised if the two differ in size.
    """
    tol = tol or ToleranceSpec()
    b = _trim([float(c) for c in coeffs])
    if len(b) < 2:
        raise ValueError("numeric_roots needs degree >= 1")
    zeros = next(k for k, c in enumerate(b) if c != 0)
    b = b[zeros:]
    n = len(b) - 1
    z, paired = _aberth(b) if n else ([], False)
    values = [_horner(b, r) for r in z]  # above the axis only, when paired
    residuals = [abs(p) for p, _, _ in values] * (1 + paired)
    z += [r.conjugate() for r in z] if paired else []
    radii = []
    for i, (_, _, scale) in enumerate(values):
        res = residuals[i]
        bound = tol.abs_eps + tol.rel_eps * scale
        if not res <= bound:
            why = "root finder residual %.3e exceeds bound %.3e" % (res, bound)
            if not math.isfinite(res + bound):  # a root beyond float64 range
                why = "float64 overflow: the polynomial is not finite at a root approximation"
            raise NumericFailureError(why, residuals=sorted(residuals, reverse=True))
        prod = b[n] * math.prod(z[i] - w for j, w in enumerate(z) if j != i)
        radii.append(n * (res + len(b) * _EPS * scale) / abs(prod) if prod else 0.0)
    radii *= 1 + paired

    clusters = []  # (centre, size); a real centre has imag 0
    unseen = list(range(n))
    while unseen:
        members = [unseen.pop(0)]
        for i in members:  # the loop also visits the members it appends
            near = [j for j in unseen if abs(z[i] - z[j]) <= radii[i] + radii[j]]
            unseen = [j for j in unseen if j not in near]
            members += near
        k = len(members)
        c = sum(z[i] for i in members) / k
        disc = max(abs(z[i] - c) + radii[i] for i in members)
        if abs(c.imag) <= disc:
            c = complex(c.real, 0.0)
        deriv, w = b, c
        if c.imag >= 0:
            for _ in range(k - 1):
                deriv = [j * d for j, d in enumerate(deriv)][1:]
            for _ in range(3):
                p, dp = _horner(deriv, w)[:2]
                last, w = w, w - (p / dp if dp else 0)
                if w == last and repr(w) == repr(last):  # unchanged, signed zeros too
                    break
        clusters.append((w if abs(w - c) <= disc else c, k))

    out = [(0.0, 0.0)] * zeros
    lower = [cl for cl in clusters if cl[0].imag < 0]
    for c, k in clusters:
        if c.imag == 0:
            out += [(c.real, 0.0)] * k
        elif c.imag > 0:
            # its mirror: the nearest cluster below the axis (size 0: none)
            mirror = min(
                lower, key=lambda cl: abs(cl[0] - c.conjugate()), default=(0j, 0)
            )
            if mirror[1] != k:
                break
            lower.remove(mirror)
            out += [(c.real, c.imag), (c.real, -c.imag)] * k
    else:
        if not lower:  # every cluster below the axis was a mirror
            return out
    raise NumericFailureError(
        "a root cluster and its mirror differ in size", residuals=residuals
    )


def float_candidates(Phi, tol):
    """Class candidates of a float polynomial, one per root cluster of
    numeric_roots: a real cluster gives field degree 1, a cluster above the
    axis field degree 2, and the cluster size is the multiplicity."""
    cands = []
    for (re, im), k in Counter(numeric_roots(Phi.coeffs, tol)).items():
        if im == 0:
            cands.append(ClassCandidate(2.0 * re, re * re, 1, k))
        elif im > 0:
            cands.append(ClassCandidate(2.0 * re, re * re + im * im, 2, k))
    cands.sort(key=lambda c: (c.norm, -c.trace))
    return cands


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def exact_candidates(Phi):
    """Class candidates of an exact polynomial from its rational factors of
    degree <= 2, read from their integer forms c_0..c_d; the remainder's
    roots generate extensions of degree > 2 and are discarded with a
    warning."""
    fact = exact_quadratic_factors(Phi)
    cands = []
    for poly, mult in fact.factors:
        c, lead = poly.ints
        if len(c) == 2:  # the root -c_0/c_1: trace twice it, norm its square
            cand = Fraction(-2 * c[0], lead), Fraction(c[0] * c[0], lead * lead), 1
        else:  # trace -c_1/c_2, norm c_0/c_2
            cand = Fraction(-c[1], lead), Fraction(c[0], lead), 2
        cands.append(ClassCandidate(*cand, mult))
    warnings = []
    if fact.remainder.degree >= 1:
        warnings.append(
            "degree-%d remainder has no rational factors of degree <= 2; "
            "its roots generate extensions of degree > 2 and cannot lie "
            "in the algebra" % fact.remainder.degree
        )
    cands.sort(key=lambda c: c.trace, reverse=True)  # stable: by (norm, -trace)
    cands.sort(key=lambda c: c.norm)
    return CentralRoots(tuple(cands), tuple(warnings), fact.remainder.degree)


def central_roots(Phi: CentralPolynomial, tol=None):
    """Conjugacy-class candidates for all closure roots of Phi of degree <= 2.

    Candidates are deduplicated on (trace, norm) with summed multiplicity and
    sorted by (norm, -trace).  Exact Phi (``Phi.ints``) takes the complete
    factor search: every closure root of degree <= 2 yields a candidate, and
    the roots generating extensions of degree > 2 make up
    ``discarded_degree``.  Float Phi takes the root clusters under ``tol``,
    and a trace or norm beyond float64 raises NumericFailureError.
    """
    if Phi.degree < 1:
        raise ValueError("central_roots needs a nonconstant polynomial")
    if Phi.ints is not None:
        return exact_candidates(Phi)
    cands = tuple(float_candidates(Phi, tol))
    for c in cands:
        if not (math.isfinite(c.trace) and math.isfinite(c.norm)):
            raise NumericFailureError(
                "float64 overflow: class invariants trace=%r, norm=%r" % (c.trace, c.norm)
            )
    return CentralRoots(cands)
