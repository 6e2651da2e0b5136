"""Roots of the central companion polynomial over the closure of the base field.

Each closure root that generates an extension of degree <= 2 is collapsed to
its (trace, norm) pair -- a conjugacy-class candidate.  Exact mode extracts
all rational roots plus all monic rational quadratic factors by a bounded
divisor-candidate search with integer divisibility tests; float mode finds
all complex roots with a simultaneous (Aberth-Ehrlich style) iteration and
pairs the conjugates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import NumericFailureError
from .polynomials import CentralPolynomial
from .scalars import FLOAT, ToleranceSpec, backend_for

MAX_CANDIDATE_PAIRS = 10_000
_ABERTH_MAX_ITER = 200


@dataclass(frozen=True)
class ClassCandidate:
    """A (trace, norm) conjugacy-class candidate of the companion polynomial.

    field_degree 1 means the underlying closure root lies in the base field
    (trace^2 == 4*norm); field_degree 2 means z^2 - trace*z + norm is
    irreducible (exact) / a conjugate complex pair (float).  ``approx`` marks
    candidates produced by the float fallback inside exact mode.
    """

    trace: object
    norm: object
    field_degree: int
    multiplicity: int
    approx: bool = False


@dataclass(frozen=True)
class CentralRoots:
    """Candidates plus bookkeeping: warnings and the degree of the part of the
    polynomial whose roots generate extensions of degree > 2 (those can never
    embed into the algebra and are discarded)."""

    candidates: tuple
    warnings: tuple = ()
    discarded_degree: int = 0


# ---------------------------------------------------------------------------
# integer factorization for divisor candidates
# ---------------------------------------------------------------------------


def _is_probable_prime(n):
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n, rng):
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _factorize(n):
    """Prime factorization of |n| >= 1 as {prime: exponent}."""
    n = abs(n)
    factors = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    rng = random.Random(0xFAC7)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return factors


def _divisors(n):
    divs = [1]
    for p, e in _factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# exact factors of degree <= 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactFactorization:
    """Monic linear/quadratic rational factors with multiplicities plus the
    exact unfactored remainder; multiplying everything back reproduces the
    input coefficientwise.  ``truncated`` reports that the divisor-candidate
    enumeration hit its bound, so quadratic factors may have been missed."""

    factors: tuple  # ((CentralPolynomial, multiplicity), ...)
    remainder: CentralPolynomial
    truncated: bool = False


def _root_bound(p):
    """Cauchy bound of a nonconstant integer polynomial: every complex root
    r of p has |r| <= 1 + max|p_k/p_m|."""
    lead = abs(p.coeffs[-1])
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def _rational_roots_of(p):
    """Set of rational roots of an exact polynomial (no multiplicities)."""
    ints = p.primitive().coeffs
    if len(ints) == 1:
        return set()
    k0 = next(i for i, c in enumerate(ints) if c != 0)
    roots = {Fraction(0)} if k0 > 0 else set()
    p = CentralPolynomial(ints[k0:])
    if p.degree == 0:
        return roots
    bound = _root_bound(p)
    lead = p.coeffs[-1]
    for dn in _divisors(p.coeffs[0]):
        if dn > bound * abs(lead):
            break
        for dd in _divisors(lead):
            for sign in (1, -1):
                r = Fraction(sign * dn, dd)
                if abs(r) <= bound and p(r) == 0:
                    roots.add(r)
    return roots


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


def exact_quadratic_factors(Phi: CentralPolynomial):
    """Extract every monic rational factor of degree <= 2, with multiplicity.

    Rational roots come first (divisor candidates on the primitive integer
    form).  Quadratic factors are then searched on the primitive remainder
    P: by Gauss's lemma each is z^2 - (b/a) z + c/a for an integer divisor
    Q = a z^2 - b z + c of P, so a > 0 divides the leading and c the
    constant coefficient.  The pairs (a, c) are pruned by the Cauchy root
    bound on |c/a| and capped at ``MAX_CANDIDATE_PAIRS``.  Q(1) divides
    P(1), which fixes b = a + c -+ d for the divisors d of P(1); a b is kept
    only if |b/a| is within twice the root bound and Q(-1) | P(-1),
    Q(2) | P(2) (P has no rational roots, so these values are nonzero), and
    is confirmed by trial division.  An incomplete search returns a larger
    remainder, never a wrong one.
    """
    if not all(isinstance(c, (int, Fraction)) for c in Phi.coeffs):
        raise ValueError("exact_quadratic_factors needs exact-rational coefficients")
    rem = CentralPolynomial([Fraction(c) for c in Phi.coeffs])
    factors = []

    for r in sorted(_rational_roots_of(rem)):
        factor = CentralPolynomial([-r, Fraction(1)])
        rem, mult = _divide_out(rem, factor)
        if mult:
            factors.append((factor, mult))

    truncated = False
    if rem.degree > 1:
        ints = rem.primitive()
        bound = _root_bound(ints)
        nbound, tbound = bound**2, math.ceil(2 * bound)
        const_divs = _divisors(ints.coeffs[0])
        lead_divs = _divisors(ints.coeffs[-1])
        p_m1, p_2, d1 = ints(-1), ints(2), _divisors(ints(1))
        pairs = 0
        for a in lead_divs:
            for dn in const_divs:
                pairs += 1
                if pairs > MAX_CANDIDATE_PAIRS:
                    truncated = True
                    break
                for c in (dn, -dn):
                    if dn > nbound * a or rem.degree <= 1:
                        continue
                    for b in (a + c + s * d for d in d1 for s in (-1, 1)):
                        at_m1, at_2 = a + b + c, 4 * a - 2 * b + c
                        if (
                            abs(b) > tbound * a
                            or at_m1 == 0
                            or p_m1 % at_m1
                            or at_2 == 0
                            or p_2 % at_2
                        ):
                            continue
                        factor = CentralPolynomial(
                            [Fraction(c, a), Fraction(-b, a), Fraction(1)]
                        )
                        rem, mult = _divide_out(rem, factor)
                        if mult:
                            factors.append((factor, mult))
                            ints = rem.primitive()
                            p_m1, p_2, d1 = ints(-1), ints(2), _divisors(ints(1))
            if truncated or rem.degree <= 1:
                break

    # with every rational root removed first, the remainder is a constant or
    # has degree >= 3; a linear leftover would contradict the root extraction
    return ExactFactorization(tuple(factors), rem, truncated)


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
    abs_eps + rel_eps * sum_k |b_k| |r|^k.
    """
    tol = tol or ToleranceSpec()
    poly = CentralPolynomial([float(c) for c in coeffs], FLOAT)
    coeffs = poly.coeffs
    n = poly.degree
    if n < 1:
        raise ValueError("numeric_roots needs degree >= 1")
    scale = max(abs(c) for c in coeffs)
    if tol.is_zero(coeffs[-1], scale):
        raise ValueError("leading coefficient is zero at the coefficient scale")
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


def exact_candidates(Phi, tol):
    """Class candidates of an exact polynomial from its rational factors of
    degree <= 2; a truncated factor search adds approximate candidates from
    the float roots of the remainder (found at tolerance ``tol``)."""
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
    discarded = 0
    if fact.remainder.degree >= 1:
        if fact.truncated:
            warnings.append(
                "exact factor search truncated at %d candidate pairs; "
                "falling back to float roots for the degree-%d remainder"
                % (MAX_CANDIDATE_PAIRS, fact.remainder.degree)
            )
            float_rem = CentralPolynomial(
                [float(c) for c in fact.remainder.coeffs], FLOAT
            )
            for c in float_candidates(float_rem, tol):
                cands.append(
                    replace(c, trace=Fraction(c.trace), norm=Fraction(c.norm), approx=True)
                )
        else:
            discarded = fact.remainder.degree
            warnings.append(
                "degree-%d remainder has no rational factors of degree <= 2; "
                "its roots generate extensions of degree > 2 and cannot lie "
                "in the algebra" % fact.remainder.degree
            )
    cands.sort(key=lambda c: (c.norm, -c.trace))
    return CentralRoots(tuple(cands), tuple(warnings), discarded)


def central_roots(Phi: CentralPolynomial, tol=None):
    """Conjugacy-class candidates for all closure roots of Phi of degree <= 2.

    Candidates are deduplicated on (trace, norm) with summed multiplicity and
    sorted by (norm, -trace).  In exact mode, roots generating extensions of
    degree > 2 end up in ``discarded_degree``; if the factor search was
    truncated, approximate candidates from the float root finder are appended
    with a warning.
    """
    if Phi.degree < 1:
        raise ValueError("central_roots needs a nonconstant polynomial")
    return backend_for(Phi.mode, tol).class_candidates(Phi)
