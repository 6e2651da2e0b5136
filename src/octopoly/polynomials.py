"""Standard polynomials over an octonion algebra.

A standard polynomial keeps all coefficients on the left of the variable:
c_n z^n + ... + c_1 z + c_0.  The module also builds the central companion
polynomial, reduces a polynomial modulo the characteristic relation
z^2 = T z - N to a linear form E z + G, and produces both twist families.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Octonion, OctonionAlgebra
from .linalg import clear_denominators
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
    """Polynomial with central (scalar) coefficients b_0..b_m.

    The constructor rejects the zero polynomial, which arithmetic may return
    as the single coefficient 0.  Division and the primitive form need
    rational coefficients.  Both are public, with their own tests; the
    exact factor search in ``central`` does not use them, since it works on
    integer coefficient lists.
    """

    def __init__(self, coeffs, mode=EXACT):
        self.coeffs = self._make(coeffs, mode).coeffs
        self.mode = mode
        if self.is_zero():
            raise ValueError("the zero polynomial is not a valid CentralPolynomial")

    @classmethod
    def _make(cls, coeffs, mode):
        """Trailing zero coefficients stripped; the zero polynomial allowed."""
        p = cls.__new__(cls)
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        p.coeffs = tuple(coeffs) or (0,)
        p.mode = mode
        return p

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.coeffs == (0,)

    def __divmod__(self, divisor):
        """(quotient, remainder) of exact division by a nonzero polynomial."""
        p = list(self.coeffs)
        d = divisor.coeffs
        q = [0] * max(len(p) - len(d) + 1, 1)
        for k in range(len(p) - len(d), -1, -1):
            coef = Fraction(p[k + len(d) - 1], d[-1])
            q[k] = coef
            if coef != 0:
                for j, b in enumerate(d):
                    p[k + j] -= coef * b
        return self._make(q, self.mode), self._make(p, self.mode)

    def primitive(self):
        """The integer polynomial with coprime coefficients that is a positive
        multiple of this one."""
        ints = clear_denominators(self.coeffs)
        content = math.gcd(*ints) or 1
        return self._make([c // content for c in ints], self.mode)

    def value_and_derivative(self, z):
        """(p(z), p'(z)) at a complex z by one joint Horner pass."""
        p = dp = 0j
        for c in reversed(self.coeffs):
            dp = dp * z + p
            p = p * z + c
        return p, dp

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
            acc, power = z.algebra.scalar_octonion(self.coeffs[0]), z
            for i, b in enumerate(self.coeffs[1:]):
                if i > 0:
                    power = z * power
                acc = acc + b * power
            return acc
        acc = 0
        for b in reversed(self.coeffs):
            acc = acc * z + b
        return acc


def companion(phi: StandardPolynomial) -> CentralPolynomial:
    """The degree-2n central companion polynomial of phi.

    b_k sums Tr(conj(c_i) c_j) over i < j with i + j = k, plus Norm(c_m)
    when k = 2m.  Every root of phi is a root of the result.
    """
    n = phi.degree
    zero = phi.algebra._zero
    b = [zero] * (2 * n + 1)
    for i in range(n + 1):
        ci = phi.coeffs[i]
        b[2 * i] = b[2 * i] + ci.norm()
        ci_bar = ci.conj()
        for j in range(i + 1, n + 1):
            b[i + j] = b[i + j] + (ci_bar * phi.coeffs[j]).trace()
    return CentralPolynomial(b, phi.algebra.mode)


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


@dataclass(frozen=True)
class ReducedLinearForm:
    """phi reduced on the class z^2 = trace*z - norm: phi(z) = E z + G there."""

    E: Octonion
    G: Octonion
    norm: object
    trace: object


def reduce_to_linear(phi: StandardPolynomial, norm, trace) -> ReducedLinearForm:
    """E = sum c_i e_i(N,T), G = sum c_i g_i(N,T); for every lam with
    invariants (T, N), eval_at(phi, lam) == E*lam + G."""
    alg = phi.algebra
    norm = alg.scalar(norm)
    trace = alg.scalar(trace)
    E = alg.zero
    G = alg.zero
    for c, (e, g) in zip(phi.coeffs, eg_sequence(norm, trace, alg._zero, alg._one)):
        E = E + c * e
        G = G + c * g
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
