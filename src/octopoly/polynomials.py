"""Standard polynomials over an octonion algebra.

A standard polynomial keeps all coefficients on the left of the variable:
c_n z^n + ... + c_1 z + c_0.  The module also builds the central companion
polynomial, reduces a polynomial modulo the characteristic relation
z^2 = T z - N to a linear form E z + G, and produces both twist families.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .algebra import Octonion, OctonionAlgebra
from .scalars import EXACT


class StandardPolynomial:
    """Coefficient list c_0..c_n over one algebra; the zero polynomial is
    rejected and trailing zero coefficients are stripped at construction."""

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
    """Substitute lam for the variable.

    Powers lam^i are built by repeated multiplication (any bracketing agrees
    by power-associativity) and multiplied by their coefficients on the left;
    the sum starts at c_0 and the powers at lam, so no product by 1 is spent.
    """
    phi.algebra.check_same(lam.algebra)
    acc, power = phi.coeffs[0], lam
    for i, c in enumerate(phi.coeffs[1:]):
        if i > 0:
            power = lam * power
        acc = acc + c * power
    return acc


class CentralPolynomial:
    """Coefficient record b_0..b_m of a polynomial with central (scalar)
    coefficients: the companion polynomial and its factors.

    Trailing zero coefficients are stripped and the zero polynomial is
    rejected at construction.  The record does no arithmetic of its own
    beyond evaluation; the exact factor search in ``central`` works on
    integer coefficient lists.
    """

    def __init__(self, coeffs, mode=EXACT):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            raise ValueError("the zero polynomial is not a valid CentralPolynomial")
        self.coeffs = tuple(coeffs)
        self.mode = mode

    @property
    def degree(self):
        return len(self.coeffs) - 1

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
    pair by pair in a fixed order.
    """
    alg = phi.algebra
    return CentralPolynomial(alg._companion([c.vec for c in phi.coeffs]), alg.mode)


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


def reduce_to_linear(phi: StandardPolynomial, norm, trace) -> ReducedLinearForm:
    """E = sum c_i e_i(N,T), G = sum c_i g_i(N,T); for every lam with
    invariants (T, N), eval_at(phi, lam) == E*lam + G.  Each sum is one
    backend combination of the coefficient vectors."""
    alg = phi.algebra
    norm = alg.scalar(norm)
    trace = alg.scalar(trace)
    eg = eg_sequence(norm, trace, alg._zero, alg._one)
    es, gs = zip(*itertools.islice(eg, len(phi.coeffs)))
    vecs = [c.vec for c in phi.coeffs]
    E = Octonion(alg, alg.backend.combine(vecs, es))
    G = Octonion(alg, alg.backend.combine(vecs, gs))
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
