"""Standard polynomials over an octonion algebra.

A standard polynomial keeps all coefficients on the left of the variable:
c_n z^n + ... + c_1 z + c_0.  The module also builds the central companion
polynomial, reduces a polynomial modulo the characteristic relation
z^2 = T z - N to a linear form E z + G, and produces both twist families.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .algebra import Octonion, OctonionAlgebra
from .scalars import EXACT, over_common_denominator


class StandardPolynomial:
    """Coefficient list c_0..c_n over one algebra; the zero polynomial is
    rejected and trailing zero coefficients are stripped at construction.
    ``magnitudes``: each c_i.max_abs() in float mode, None in exact mode."""

    def __init__(self, algebra: OctonionAlgebra, coeffs):
        converted = []
        for c in coeffs:
            if isinstance(c, Octonion):
                algebra.check_same(c.algebra)
                converted.append(c)
            else:
                converted.append(algebra.scalar_octonion(c))
        while converted and converted[-1].is_exactly_zero():
            converted.pop()
        if not converted:
            raise ValueError("the zero polynomial is not a valid StandardPolynomial")
        self.algebra = algebra
        self.coeffs = tuple(converted)
        self.magnitudes = None if algebra.mode == EXACT else tuple(c.max_abs() for c in converted)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_monic(self):
        return self.coeffs[-1] == self.algebra.one

    def __eq__(self, other):
        if not isinstance(other, StandardPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        from .literals import format_polynomial

        return "<%s>" % format_polynomial(self)

    def __call__(self, lam):
        return eval_at(self, lam)


def eval_at(phi: StandardPolynomial, lam: Octonion) -> Octonion:
    """Substitute lam for the variable: sum_i c_i lam^i, by Horner's rule
    acc = acc*lam + c_k from acc = c_n down to c_0.

    The regrouping is an identity: (c lam^m) lam = c lam^(m+1), since c and
    lam generate an associative subalgebra (Artin's theorem), and the
    product distributes over the terms (exact mode gives the same value;
    float mode rounds in another order).  A degree-n polynomial
    costs n products instead of the 2n - 1 of building each power.
    """
    phi.algebra.check_same(lam.algebra)
    acc = phi.coeffs[-1]
    for c in reversed(phi.coeffs[:-1]):
        acc = acc * lam + c
    return acc


class CentralPolynomial:
    """Coefficient record b_0..b_m of a polynomial with central (scalar)
    coefficients: the companion polynomial and its factors.

    Trailing zero coefficients are stripped and the zero polynomial is
    rejected at construction.  ``ints = (nums, den)`` holds exact
    coefficients as ints over one positive denominator; a float coefficient
    makes it None, and the polynomial a float one.  Given ``den``,
    ``coeffs`` are such numerators, and their reduced Fractions are built
    when ``coeffs`` is first read.  The record does no arithmetic of its
    own beyond evaluation; the factor search in ``central`` uses ``ints``.
    """

    def __init__(self, coeffs, *, den=None):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            raise ValueError("the zero polynomial is not a valid CentralPolynomial")
        self.degree = len(coeffs) - 1
        self._coeffs = None if den else tuple(coeffs)
        self.ints = (tuple(coeffs), den) if den else None
        if not den and all(isinstance(c, (int, Fraction)) for c in coeffs):
            self.ints = over_common_denominator(coeffs)

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(n, self.ints[1]) for n in self.ints[0])
        return self._coeffs

    def __eq__(self, other):
        if not isinstance(other, CentralPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "CentralPolynomial(%r)" % (list(self.coeffs),)

    def __call__(self, z):
        """Evaluate at a scalar, complex number or octonion."""
        if isinstance(z, Octonion):
            return eval_at(StandardPolynomial(z.algebra, self.coeffs), z)
        acc = 0
        for b in reversed(self.coeffs):
            acc = acc * z + b
        return acc


def companion(phi: StandardPolynomial) -> CentralPolynomial:
    """The degree-2n central companion polynomial of phi.

    b_k sums Tr(conj(c_i) c_j) over i < j with i + j = k, plus Norm(c_m)
    when k = 2m.  Every root of phi is a root of the result.  Both come
    from the polar form of the norm: Norm(c) = <c,c> and
    Tr(conj(c_i) c_j) = 2<c_i,c_j>, so no octonion product is formed.  The
    backend sums them: exactly on ints over one denominator, or in float64
    pair by pair in a fixed order, refusing a sum that is not finite.
    """
    b, den = phi.algebra.backend.companion_form([c.vec for c in phi.coeffs])
    return CentralPolynomial(b, den=den)


def eg_sequence(norm, trace, zero, one):
    """Yield (e_i, g_i) for i = 0, 1, 2, ... with z^i = e_i z + g_i whenever
    z^2 = trace*z - norm, starting from (e_0, g_0) = (zero, one).

    Recurrence: e_{i+1} = T e_i + g_i, g_{i+1} = -N e_i.
    """
    e, g = zero, one
    while True:
        yield e, g
        e, g = trace * e + g, -norm * e


def eg_coeffs(norm, trace, i):
    """Central coefficients (e_i, g_i) with z^i = e_i z + g_i whenever
    z^2 = trace*z - norm."""
    if i < 0:
        raise ValueError("power index must be nonnegative")
    zero = norm * 0
    return next(itertools.islice(eg_sequence(norm, trace, zero, zero + 1), i, None))


class ReducedLinearForm(namedtuple("ReducedLinearForm", "E G norm trace")):
    """phi reduced on the class z^2 = trace*z - norm: phi(z) = E z + G there,
    with E and G Octonions and norm and trace scalars."""

    __slots__ = ()


def power_weights(a, b, d, n):
    """(es, gs, den) with z^i = (es[i] z + gs[i]) / den for i = 0..n on the
    class with trace a/d and norm b/d^2.  The recurrence runs on a and b
    (ints in exact mode, where the backend's ``clear_denominators`` or
    ``cleared_invariants`` gives them): w = d z has w^2 = a w - b, so
    z^i = (d e_i(a,b) z + g_i(a,b)) / d^i, and over den = d^n the weights
    are e_i(a,b) d^(n-i+1) and g_i(a,b) d^(n-i).  In float mode d = 1."""
    es, gs = zip(*itertools.islice(eg_sequence(b, a, 0, 1), n + 1))
    if d != 1:
        es = [e * d ** (n - i + 1) for i, e in enumerate(es)]
        gs = [g * d ** (n - i) for i, g in enumerate(gs)]
    return es, gs, d**n


def linear_form(phi: StandardPolynomial, weights):
    """(E, G): sum_i c_i es[i] / den and sum_i c_i gs[i] / den for
    ``power_weights`` (es, gs, den), each one backend combination."""
    es, gs, den = weights
    alg, vecs = phi.algebra, [c.vec for c in phi.coeffs]
    return tuple(Octonion(alg, alg.backend.combine(vecs, w, den)) for w in (es, gs))


def reduce_to_linear(phi: StandardPolynomial, norm, trace, weights=None) -> ReducedLinearForm:
    """E = sum c_i e_i(N,T), G = sum c_i g_i(N,T); for every lam with
    invariants (T, N), eval_at(phi, lam) == E*lam + G.  ``weights`` are the
    class's ``power_weights``, when the caller has them."""
    alg = phi.algebra
    norm = alg.scalar(norm)
    trace = alg.scalar(trace)
    weights = weights or power_weights(*alg.backend.clear_denominators(trace, norm), phi.degree)
    E, G = linear_form(phi, weights)
    return ReducedLinearForm(E=E, G=G, norm=norm, trace=trace)


def _require_monic(phi, what):
    if not phi.is_monic():
        raise ValueError("%s requires a monic polynomial" % what)


def twist_left(phi: StandardPolynomial, g: Octonion) -> StandardPolynomial:
    """One-sided twist: coefficient k becomes g^-1 c_k (leading becomes g^-1).

    Roots of the twists over all invertible g make up the left eigenvalues of
    the companion matrix.
    """
    _require_monic(phi, "twist_left")
    phi.algebra.check_same(g.algebra)
    ginv = g.inverse()
    coeffs = [ginv * c for c in phi.coeffs[:-1]] + [ginv]
    return StandardPolynomial(phi.algebra, coeffs)


def twist_two_sided(phi: StandardPolynomial, g: Octonion) -> StandardPolynomial:
    """Two-sided twist: coefficient k becomes g^-1 c_k g^-1 (leading g^-2);
    unambiguous by flexibility.  Governs the right eigenvalues."""
    _require_monic(phi, "twist_two_sided")
    phi.algebra.check_same(g.algebra)
    ginv = g.inverse()
    coeffs = [(ginv * c) * ginv for c in phi.coeffs[:-1]] + [ginv * ginv]
    return StandardPolynomial(phi.algebra, coeffs)
