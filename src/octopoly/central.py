"""Roots of the central companion polynomial over the closure of the base field.

Each closure root that generates an extension of degree <= 2 is collapsed to
its (trace, norm) pair -- a conjugacy-class candidate.  Exact mode finds
every rational factor of degree <= 2 by a complete modular search: the
factors of degree 1 and 2 modulo a small prime are Hensel-lifted and
confirmed by trial division over Q.  Float mode finds all complex roots with
a simultaneous (Aberth-Ehrlich style) iteration and pairs the conjugates.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import NumericFailureError
from .polynomials import CentralPolynomial
from .scalars import FLOAT, ToleranceSpec, backend_for

_ABERTH_MAX_ITER = 200


@dataclass(frozen=True)
class ClassCandidate:
    """A (trace, norm) conjugacy-class candidate of the companion polynomial.

    field_degree 1 means the underlying closure root lies in the base field
    (trace^2 == 4*norm); field_degree 2 means z^2 - trace*z + norm is
    irreducible (exact) / a conjugate complex pair (float).
    """

    trace: object
    norm: object
    field_degree: int
    multiplicity: int


@dataclass(frozen=True)
class CentralRoots:
    """Candidates plus bookkeeping: warnings and the degree of the part of the
    polynomial whose roots generate extensions of degree > 2 (those can never
    embed into the algebra and are discarded)."""

    candidates: tuple
    warnings: tuple = ()
    discarded_degree: int = 0


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


def _divmod(a, b, m):
    """(quotient, remainder) of a by b mod m; lc(b) must be a unit mod m."""
    inv = pow(b[-1], -1, m)
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(q))):
        q[k] = c = r[k + len(b) - 1] * inv % m
        for j, y in enumerate(b):
            r[k + j] -= c * y
    return _trim(q), _trim([x % m for x in r[: len(b) - 1]])


def _xgcd(a, b, p):
    """(g, s, t) with g the monic gcd of a != 0 and b over F_p and
    s a + t b = g."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _add(s0, _mul(q, s1, p), p, -1)
        t0, t1 = t1, _add(t0, _mul(q, t1, p), p, -1)
    inv = pow(r0[-1], -1, p)
    return tuple([x * inv % p for x in c] for c in (r0, s0, t0))


def _powmod(a, e, f, p):
    """a^e mod f over F_p, for e >= 1."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, p), f, p)[1]
        a = _divmod(_mul(a, a, p), f, p)[1]
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# exact factors of degree <= 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactFactorization:
    """Monic linear/quadratic rational factors with multiplicities plus the
    exact remainder, which has no rational factor of degree <= 2;
    multiplying everything back reproduces the input coefficientwise.
    ``truncated`` is always False because the search is complete; the field
    stays because the benchmark's ``central.truncated`` counter reads it."""

    factors: tuple  # ((CentralPolynomial, multiplicity), ...)
    remainder: CentralPolynomial
    truncated: bool = False


def _divide_out(p, factor):
    """(p / factor^k, k) for the largest k such that factor^k divides p and
    each quotient keeps the degree of factor."""
    mult = 0
    while p.degree >= factor.degree:
        q, r = divmod(p, factor)
        if not r.is_zero():
            break
        p = q
        mult += 1
    return p, mult


def _gcd(a, b):
    """A gcd over Q of two nonzero polynomials, by Euclid's algorithm with
    each remainder made primitive."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1].primitive()
    return a


def _split(g, d, p, rng):
    """The monic irreducible factors of g, a product of distinct monic
    irreducibles of degree d over F_p, p odd (Cantor-Zassenhaus)."""
    if len(g) <= d + 1:
        return [g] if len(g) > 1 else []
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        b = _add(_powmod(a, (p**d - 1) // 2, g, p), [1], p, -1)
        u = _xgcd(g, b, p)[0]
        if 1 < len(u) < len(g):
            return _split(u, d, p, rng) + _split(_divmod(g, u, p)[0], d, p, rng)


def _local_factors(f, p, rng):
    """The monic irreducible factors of degree 1 and 2 of a monic
    square-free f over F_p: g1 = gcd(f, z^p - z) is their product for
    degree 1, and g2 = gcd(f, z^(p^2) - z) / g1 for degree 2."""
    z = [0, 1]
    zp = _powmod(z, p, f, p)
    g1 = _xgcd(f, _add(zp, z, p, -1), p)[0]
    g12 = _xgcd(f, _add(_powmod(zp, p, f, p), z, p, -1), p)[0]
    return _split(g1, 1, p, rng) + _split(_divmod(g12, g1, p)[0], 2, p, rng)


def _hensel_lift(f, u, p, m):
    """The monic factor h of f mod m = p^(2^j) with h = u mod p, for an
    integer polynomial f that is square-free mod p with lc(f) a unit, and a
    monic factor u of f mod p (Hensel step, von zur Gathen & Gerhard,
    Alg. 15.10, on f = g h with cofactor g)."""
    g = _divmod([c % p for c in f], u, p)[0]
    _, s, t = _xgcd(g, u, p)
    h, mod = u, p
    while mod < m:
        mod *= mod
        e = _add(f, _mul(g, h, mod), mod, -1)
        q, r = _divmod(_mul(s, e, mod), h, mod)
        g = _add(_add(g, _mul(t, e, mod), mod), _mul(q, g, mod), mod)
        h = _add(h, r, mod)
        b = _add(_add(_mul(s, g, mod), _mul(t, h, mod), mod), [1], mod, -1)
        c, d = _divmod(_mul(s, b, mod), h, mod)
        s = _add(s, d, mod, -1)
        t = _add(_add(t, _mul(t, b, mod), mod, -1), _mul(c, g, mod), mod, -1)
    return h


def exact_quadratic_factors(Phi: CentralPolynomial):
    """Extract every monic rational factor of degree <= 2, with multiplicity.

    The search is complete (small-prime Zassenhaus method, von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 14-15).  S is the square-free
    part of the primitive integer form of Phi, and p the smallest odd prime
    with p not dividing lc(S) and S mod p square-free.  The irreducible
    factors of degree 1 and 2 of S mod p are Hensel-lifted to the first
    m = p^(2^j) > 4 (floor(||S||_2) + 1).  Every integer factor F of S of
    degree <= 2 has lc(S)/lc(F) F congruent mod m to lc(S) times a lifted
    factor or a product of two lifted linears, and its coefficients are
    below 2 ||S||_2 < m/2 in absolute value (Mignotte), so the symmetric
    residue recovers it.  Each candidate is confirmed by trial division of
    Phi, which also gives its multiplicity.
    """
    if not all(isinstance(c, (int, Fraction)) for c in Phi.coeffs):
        raise ValueError("exact_quadratic_factors needs exact-rational coefficients")
    rem = CentralPolynomial([Fraction(c) for c in Phi.coeffs])
    if rem.degree < 1:
        return ExactFactorization((), rem)
    P = rem.primitive()
    dP = CentralPolynomial([k * c for k, c in enumerate(P.coeffs)][1:])
    S = list(divmod(P, _gcd(P, dP))[0].primitive().coeffs)
    lead = S[-1]
    p = 1
    while True:
        p += 2
        if lead % p == 0 or any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2)):
            continue
        f = _mul(S, [pow(lead, -1, p)], p)
        if len(_xgcd(f, _trim([k * c % p for k, c in enumerate(f)][1:]), p)[0]) == 1:
            break
    m = p
    while m <= 4 * (math.isqrt(sum(c * c for c in S)) + 1):
        m *= m
    local = [_hensel_lift(S, u, p, m) for u in _local_factors(f, p, random.Random(0))]
    pairs = itertools.combinations([h for h in local if len(h) == 2], 2)
    factors = []
    # the linears come first, so every rational root is taken from them
    for h in local + [_mul(a, b, m) for a, b in pairs]:
        sym = [x - m if 2 * x > m else x for x in (lead * c % m for c in h)]
        factor = CentralPolynomial([Fraction(c, lead) for c in sym])
        rem, mult = _divide_out(rem, factor)
        if mult:
            factors.append((factor, mult))
    # linears by root ascending, then quadratics by (norm, -trace)
    factors.sort(
        key=lambda fm: (1, -fm[0].coeffs[0]) if fm[0].degree == 1 else (2, *fm[0].coeffs)
    )
    return ExactFactorization(tuple(factors), rem)


# ---------------------------------------------------------------------------
# float roots: simultaneous iteration
# ---------------------------------------------------------------------------


def numeric_roots(coeffs, tol: ToleranceSpec | None = None):
    """All complex roots of a real-coefficient float polynomial.

    Simultaneous Aberth-Ehrlich iteration started on a randomly perturbed
    circle (iteration cap 200) with one Newton polish per root; conjugate
    pairs are then matched and symmetrized, and near-real roots snapped to
    the axis.  Returns (re, im) tuples.  Raises NumericFailureError, carrying
    the best residuals, if any residual stays above
    abs_eps + rel_eps * sum_k |b_k| |r|^k, and without residuals if the
    leading coefficient is zero at the coefficient scale.
    """
    tol = tol or ToleranceSpec()
    poly = CentralPolynomial([float(c) for c in coeffs], FLOAT)
    coeffs = poly.coeffs
    n = poly.degree
    if n < 1:
        raise ValueError("numeric_roots needs degree >= 1")
    scale = max(abs(c) for c in coeffs)
    if tol.is_zero(coeffs[-1], scale):
        raise NumericFailureError("leading coefficient is zero at the coefficient scale")
    monic = CentralPolynomial([c / coeffs[-1] for c in coeffs], FLOAT)

    rng = random.Random(0xAB3A7)
    radius = 1.0 + max(abs(c) for c in monic.coeffs[:-1])
    z = [
        radius
        * complex(
            math.cos(2 * math.pi * (k + 0.35) / n + 0.01 * rng.random()),
            math.sin(2 * math.pi * (k + 0.35) / n + 0.01 * rng.random()),
        )
        for k in range(n)
    ]
    step_tol = 1e-14
    for _ in range(_ABERTH_MAX_ITER):
        moved = 0.0
        for i in range(n):
            p, dp = monic.value_and_derivative(z[i])
            if p == 0:
                continue
            if dp == 0:
                z[i] += 1e-6 * radius * complex(rng.random(), rng.random())
                continue
            w = p / dp
            s = 0j
            for j2 in range(n):
                if j2 != i and z[i] != z[j2]:
                    s += 1.0 / (z[i] - z[j2])
            denom = 1.0 - w * s
            delta = w if denom == 0 else w / denom
            z[i] -= delta
            moved = max(moved, abs(delta) / (1.0 + abs(z[i])))
        if moved < step_tol:
            break
    for i in range(n):
        p, dp = monic.value_and_derivative(z[i])
        if dp != 0:
            z[i] -= p / dp

    residuals = []
    for r in z:
        val, _ = poly.value_and_derivative(r)
        bound = tol.abs_eps + tol.rel_eps * sum(
            abs(c) * abs(r) ** k for k, c in enumerate(coeffs)
        )
        residuals.append(abs(val))
        if abs(val) > bound:
            raise NumericFailureError(
                "root finder residual %.3e exceeds bound %.3e" % (abs(val), bound),
                residuals=sorted(residuals, reverse=True),
            )

    # snap near-real roots, then symmetrize conjugate pairs
    snapped = []
    for r in z:
        if tol.is_zero(r.imag, max(1.0, abs(r))):
            snapped.append(complex(r.real, 0.0))
        else:
            snapped.append(r)
    plus = [r for r in snapped if r.imag > 0]
    minus = [r for r in snapped if r.imag < 0]
    reals = [r for r in snapped if r.imag == 0]
    if len(plus) != len(minus):
        raise NumericFailureError(
            "conjugate pairing failed for a real-coefficient polynomial",
            residuals=residuals,
        )
    out = [(r.real, 0.0) for r in reals]
    for r in plus:
        jbest = min(range(len(minus)), key=lambda j2: abs(r.conjugate() - minus[j2]))
        m = minus.pop(jbest)
        re = 0.5 * (r.real + m.real)
        im = 0.5 * (r.imag - m.imag)
        out.append((re, im))
        out.append((re, -im))
    return out


def float_candidates(Phi, tol):
    """Class candidates of a float polynomial from its numeric roots, with
    clustered roots counted as one candidate of higher multiplicity."""
    roots = numeric_roots(Phi.coeffs, tol)
    # cluster equal roots; the merge radius lives at the scale the polynomial
    # values do, which is what lets squared factors collapse to one root
    clusters = []  # [sum_re, sum_im, count]
    for re, im in roots:
        merged = False
        for cl in clusters:
            cre, cim = cl[0] / cl[2], cl[1] / cl[2]
            mag = max(1.0, abs(complex(re, im)))
            radius = 10 * (
                tol.abs_eps
                + tol.rel_eps * sum(abs(c) * mag**k for k, c in enumerate(Phi.coeffs))
            )
            if abs(complex(re, im) - complex(cre, cim)) <= radius:
                cl[0] += re
                cl[1] += im
                cl[2] += 1
                merged = True
                break
        if not merged:
            clusters.append([re, im, 1])
    cands = []
    for sre, sim, count in clusters:
        re, im = sre / count, sim / count
        if im == 0.0:
            cands.append(ClassCandidate(2.0 * re, re * re, 1, count))
        elif im > 0:
            cands.append(ClassCandidate(2.0 * re, re * re + im * im, 2, count))
    # merge candidates that landed on the same (trace, norm)
    merged = []
    for c in cands:
        for k, other in enumerate(merged):
            s = max(1.0, abs(c.trace), abs(c.norm))
            if (
                other.field_degree == c.field_degree
                and tol.eq(other.trace, c.trace, s)
                and tol.eq(other.norm, c.norm, s)
            ):
                merged[k] = ClassCandidate(
                    other.trace,
                    other.norm,
                    other.field_degree,
                    other.multiplicity + c.multiplicity,
                )
                break
        else:
            merged.append(c)
    merged.sort(key=lambda c: (c.norm, -c.trace))
    return merged


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def exact_candidates(Phi):
    """Class candidates of an exact polynomial from its rational factors of
    degree <= 2; the remainder's roots generate extensions of degree > 2 and
    are discarded with a warning."""
    fact = exact_quadratic_factors(Phi)
    cands = []
    for poly, mult in fact.factors:
        if poly.degree == 1:
            r = -poly.coeffs[0]
            cands.append(ClassCandidate(2 * r, r * r, 1, mult))
        else:
            n_val, t_val = poly.coeffs[0], -poly.coeffs[1]
            cands.append(ClassCandidate(t_val, n_val, 2, mult))
    warnings = []
    if fact.remainder.degree >= 1:
        warnings.append(
            "degree-%d remainder has no rational factors of degree <= 2; "
            "its roots generate extensions of degree > 2 and cannot lie "
            "in the algebra" % fact.remainder.degree
        )
    cands.sort(key=lambda c: (c.norm, -c.trace))
    return CentralRoots(tuple(cands), tuple(warnings), fact.remainder.degree)


def central_roots(Phi: CentralPolynomial, tol=None):
    """Conjugacy-class candidates for all closure roots of Phi of degree <= 2.

    Candidates are deduplicated on (trace, norm) with summed multiplicity and
    sorted by (norm, -trace).  In exact mode the factor search is complete,
    so every closure root of degree <= 2 yields a candidate and the roots
    generating extensions of degree > 2 make up ``discarded_degree``.
    """
    if Phi.degree < 1:
        raise ValueError("central_roots needs a nonconstant polynomial")
    return backend_for(Phi.mode, tol).class_candidates(Phi)
