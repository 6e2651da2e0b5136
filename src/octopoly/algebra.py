"""Arithmetic in an octonion algebra over exact rationals or float64 scalars.

An algebra A is the double Q + Q*l of the quaternion algebra Q = (alpha, beta)
with l*l = gamma, multiplied by the doubling rule

    (p + q*l)(r + s*l) = p*r + gamma*(conj(s)*q) + (s*p + q*conj(r))*l.

Elements are coordinate vectors over the fixed basis

    e0=1, e1=i, e2=j, e3=ij, e4=l, e5=i*l, e6=j*l, e7=(ij)*l,

stored in the form of the algebra's scalar backend: in exact mode 8 ints
over one positive denominator, read as reduced ``Fraction`` coordinates
through ``Octonion.coords``; in float mode 8 floats.

The 8x8 structure table is derived once per algebra by applying the doubling
rule (recursively, down through the quaternion and complex levels) to basis
pairs; nothing is hand-entered.  All values are immutable after construction,
so everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ConfigurationError, SingularElementError
from .scalars import EXACT, ToleranceSpec, backend_for

DIVISION = "division"
SPLIT = "split"


def _cd_mul(x, y, params):
    """Cayley-Dickson product of coordinate tuples; one recursion per doubling
    parameter in ``params`` (applied outermost-last)."""
    if not params:
        return (x[0] * y[0],)
    half = len(x) // 2
    gamma, sub = params[-1], params[:-1]
    p, q = x[:half], x[half:]
    r, s = y[:half], y[half:]
    sbar = (s[0],) + tuple(-c for c in s[1:])
    rbar = (r[0],) + tuple(-c for c in r[1:])
    first = tuple(
        u + gamma * v for u, v in zip(_cd_mul(p, r, sub), _cd_mul(sbar, q, sub))
    )
    second = tuple(u + v for u, v in zip(_cd_mul(s, p, sub), _cd_mul(q, rbar, sub)))
    return first + second


@dataclass(frozen=True)
class DivisionCheck:
    """Outcome of the division-algebra test: the norm form is anisotropic
    (``division``) or isotropic (``split``); a split outcome carries an
    explicit isotropic witness when the search found one, else None."""

    status: str
    witness: "Octonion | None" = None


class OctonionAlgebra:
    """The octonion algebra determined by (alpha, beta, gamma), all nonzero.

    ``mode`` selects the scalar backend ('exact' or 'float'), held as
    ``backend``; ``tolerance`` is only consulted in float mode.
    """

    def __init__(self, alpha, beta, gamma, mode=EXACT, tolerance=None):
        self.tol = tolerance if tolerance is not None else ToleranceSpec()
        self.backend = backend_for(mode, self.tol)
        self.mode = mode
        self.alpha = self.scalar(alpha)
        self.beta = self.scalar(beta)
        self.gamma = self.scalar(gamma)
        if self.alpha == 0 or self.beta == 0 or self.gamma == 0:
            raise ConfigurationError("alpha, beta, gamma must all be nonzero")
        self._zero = self.scalar(0)
        self._one = self.scalar(1)
        self._table = self._build_table()
        # Norm(e_k) = -e_k^2 for k >= 1; the diagonal of the norm form.
        self.norm_coeffs = (self._one,) + tuple(
            -self._table[k][k][0] for k in range(1, 8)
        )
        self._mul = self.backend.multiplier(self._table)
        self._norm = self.backend.norm_form(self.norm_coeffs)
        self._basis = tuple(
            self.octonion([self._one if t == k else self._zero for t in range(8)])
            for k in range(8)
        )
        self.zero = self.octonion([self._zero] * 8)
        self.one = self._basis[0]
        self._division = None

    def scalar(self, value):
        return self.backend.coerce(value)

    def _build_table(self):
        params = (self.alpha, self.beta, self.gamma)
        basis = [
            tuple(self._one if t == k else self._zero for t in range(8))
            for k in range(8)
        ]
        table = []
        for a in range(8):
            row = []
            for b in range(8):
                prod = _cd_mul(basis[a], basis[b], params)
                nz = [(k, c) for k, c in enumerate(prod) if c != 0]
                if len(nz) != 1:
                    raise ConfigurationError(
                        "basis product e%d*e%d is not a monomial" % (a, b)
                    )
                k, c = nz[0]
                row.append((c, k))
            table.append(tuple(row))
        for k in range(1, 8):
            if table[k][k][1] != 0:
                raise ConfigurationError("basis square e%d^2 is not central" % k)
        return tuple(table)

    def mult_table(self):
        """8x8 table with ``table[a][b] = (c, k)`` such that e_a*e_b = c*e_k."""
        return self._table

    # -- element constructors ------------------------------------------------

    def octonion(self, coords):
        coords = [self.scalar(c) for c in coords]
        if len(coords) != 8:
            raise ConfigurationError("an octonion needs exactly 8 coordinates")
        return Octonion(self, self.backend.vector(coords))

    def scalar_octonion(self, value):
        return self.octonion([value] + [self._zero] * 7)

    def basis_element(self, k):
        if not 0 <= k <= 7:
            raise ConfigurationError("basis index out of range: %r" % (k,))
        return self._basis[k]

    def parse(self, text):
        """Parse an octonion literal such as '1/2 + 1/2*k + 1/2*il + 1/2*jl'."""
        from .literals import parse_octonion

        return parse_octonion(text, self)

    # -- comparisons ----------------------------------------------------------

    def same_params(self, other):
        return (
            isinstance(other, OctonionAlgebra)
            and self.mode == other.mode
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.gamma == other.gamma
        )

    def check_same(self, other):
        if other is not self and not self.same_params(other):
            raise ConfigurationError("operands belong to different algebras")

    # -- division-algebra test -----------------------------------------------

    def division_check(self):
        """Classify the algebra by (an)isotropy of its 8-variable norm form.

        The status is ``division`` if all three parameters are negative (the
        form is then positive definite) and ``split`` otherwise: an indefinite
        form is isotropic over the reals and, in dimension 8 > 4, over every
        p-adic field, hence over Q by Hasse-Minkowski.  A split status carries
        an isotropic witness when a direct or equal-coordinate search finds one.
        The result is cached per algebra.
        """
        if self._division is None:
            self._division = self._run_division_check()
        return self._division

    def _run_division_check(self):
        if self.alpha < 0 and self.beta < 0 and self.gamma < 0:
            return DivisionCheck(DIVISION)
        # Otherwise some q[k] < 0, so over the reals (float mode) a witness
        # sqrt(-q[k]) + e_k is found on the first row and the subset search
        # below is reached by exact mode only.
        q = self.norm_coeffs
        for a in range(8):
            for b in range(a + 1, 8):
                r = self.backend.sqrt(-q[b] / q[a])
                if r is not None:
                    coords = [self._zero] * 8
                    coords[a] = r
                    coords[b] = self._one
                    return DivisionCheck(SPLIT, self.octonion(coords))
        # pairs were tried above; a zero sum of q over a larger subset gives
        # the witness with ones on that subset
        for size in range(3, 9):
            for subset in itertools.combinations(range(8), size):
                if sum(q[k] for k in subset) == 0:
                    coords = [
                        self._one if k in subset else self._zero for k in range(8)
                    ]
                    return DivisionCheck(SPLIT, self.octonion(coords))
        return DivisionCheck(SPLIT)

    def __repr__(self):
        return "OctonionAlgebra(alpha=%s, beta=%s, gamma=%s, mode=%r)" % (
            self.alpha,
            self.beta,
            self.gamma,
            self.mode,
        )


class Octonion:
    """Immutable 8-coordinate element of an :class:`OctonionAlgebra`.

    Supports ``+ - *`` (octonion and scalar operands), ``/`` by a scalar and
    ``**`` by a nonnegative int; powers are computed by repeated left
    multiplication, which is unambiguous by power-associativity.  ``vec`` is
    the backend's stored form and ``coords`` the 8 scalar coordinates.
    """

    __slots__ = ("algebra", "vec")

    def __init__(self, algebra, vec):
        self.algebra = algebra
        self.vec = vec

    @property
    def coords(self):
        """The coordinates as a tuple of scalars (reduced Fractions in exact
        mode)."""
        return self.algebra.backend.coords(self.vec)

    def _binary(self, other):
        if isinstance(other, Octonion):
            self.algebra.check_same(other.algebra)
            return other
        return None

    def __add__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return Octonion(self.algebra, self.algebra.backend.add(self.vec, o.vec))

    def __sub__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return Octonion(self.algebra, self.algebra.backend.sub(self.vec, o.vec))

    def __neg__(self):
        return Octonion(self.algebra, self.algebra.backend.neg(self.vec))

    def __mul__(self, other):
        alg = self.algebra
        if isinstance(other, Octonion):
            alg.check_same(other.algebra)
            return Octonion(alg, alg._mul(self.vec, other.vec))
        try:
            s = alg.scalar(other)
        except TypeError:
            return NotImplemented
        return Octonion(alg, alg.backend.scale(self.vec, s))

    def __rmul__(self, other):
        # scalar * octonion; scalars are central so the order is immaterial
        return self.__mul__(other)

    def __truediv__(self, other):
        s = self.algebra.scalar(other)
        if s == 0:
            raise ZeroDivisionError("division of an octonion by scalar zero")
        return Octonion(self.algebra, self.algebra.backend.divide(self.vec, s))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("octonion powers take a nonnegative int exponent")
        result = self.algebra.one
        for _ in range(n):
            result = self * result
        return result

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return (
            other.algebra is self.algebra or self.algebra.same_params(other.algebra)
        ) and self.vec == other.vec

    def __hash__(self):
        return hash(self.vec)

    def __repr__(self):
        from .literals import format_octonion

        return "<%s>" % format_octonion(self)

    # -- structure maps --------------------------------------------------------

    def conj(self):
        """Symplectic involution: fixes e0, negates e1..e7."""
        return Octonion(self.algebra, self.algebra.backend.conj(self.vec))

    def trace(self):
        return self.algebra.backend.trace(self.vec)

    def norm(self):
        """Value of the diagonal norm form; equals (conj(x) * x)_0."""
        return self.algebra._norm(self.vec)

    def invariants(self):
        """The central pair (trace, norm); conjugation-invariant."""
        return self.trace(), self.norm()

    def pure(self):
        """The trace-zero part x - x0."""
        return self.algebra.octonion((0,) + self.coords[1:])

    def inverse(self):
        n = self.norm()
        if self.algebra.backend.is_zero(n, lambda: self.max_abs() ** 2):
            raise SingularElementError("element has (numerically) zero norm")
        return self.conj() / n

    def is_zero(self, scale=None):
        """Zero by the backend's test: exactly in exact mode, at the scale
        ``scale()`` returns (default 1) in float mode."""
        return self.algebra.backend.vector_is_zero(self.vec, scale)

    def is_exactly_zero(self):
        return self.vec == self.algebra.zero.vec

    def is_central(self):
        return all(c == 0 for c in self.coords[1:])

    def max_abs(self):
        """Largest coordinate magnitude as a float; the standard scale for
        zero-at-scale tests."""
        return max(abs(float(c)) for c in self.coords)


def bilinear_form(x, y):
    """Polarization of the norm form: <x,y> = N(x+y) - N(x) - N(y)."""
    x.algebra.check_same(y.algebra)
    return sum(
        2 * q * a * b for q, a, b in zip(x.algebra.norm_coeffs, x.coords, y.coords)
    )


def same_class(x, y):
    """Conjugacy test: equal trace and equal norm (exact or at tolerance)."""
    x.algebra.check_same(y.algebra)
    tx, nx = x.invariants()
    ty, ny = y.invariants()

    def scale():
        return max(1.0, x.max_abs(), y.max_abs())

    backend = x.algebra.backend
    return backend.is_zero(tx - ty, scale) and backend.is_zero(
        nx - ny, lambda: scale() * scale()
    )


def conjugator(g, h):
    """A trace-zero delta with (delta*h)*delta^-1 == g.

    Requires ``same_class(g, h)`` in a division algebra.  When g != conj(h)
    the choice is delta = g - conj(h); when g == conj(h) the first pure basis
    element or pairwise basis sum orthogonal to g (and of nonzero norm) is
    returned, which keeps the output deterministic.  For central g == h any
    delta works and 1 is returned.
    """
    g.algebra.check_same(h.algebra)
    alg = g.algebra
    if not same_class(g, h):
        raise ValueError("conjugator requires elements of the same class")
    delta = g - h.conj()

    def scale():
        return max(1.0, g.max_abs(), h.max_abs())

    if not delta.is_zero(scale):
        return delta
    # g == conj(h); central g means g == h and anything conjugates.
    if g.is_central():
        return alg.one
    candidates = [alg.basis_element(k) for k in range(1, 8)]
    for a in range(1, 8):
        for b in range(a + 1, 8):
            candidates.append(alg.basis_element(a) + alg.basis_element(b))
    for delta in candidates:
        pairing = bilinear_form(g, delta)
        if alg.backend.is_zero(pairing, scale) and not alg.backend.is_zero(delta.norm()):
            return delta
    raise ValueError("no conjugating element found")  # unreachable in a division algebra
