"""Arithmetic in an octonion algebra over exact rationals or float64 scalars.

An algebra A is the double Q + Q*l of the quaternion algebra Q = (alpha, beta)
with l*l = gamma, multiplied by the doubling rule

    (p + q*l)(r + s*l) = p*r + gamma*(conj(s)*q) + (s*p + q*conj(r))*l.

Elements are coordinate vectors over the fixed basis

    e0=1, e1=i, e2=j, e3=ij, e4=l, e5=i*l, e6=j*l, e7=(ij)*l,

stored in the form of the algebra's scalar backend: in exact mode 8 ints
over one positive denominator, read as reduced ``Fraction`` coordinates
through ``Octonion.coords``; in float mode 8 floats.

The 8x8 structure table is derived once per algebra from the doubling rule
applied to basis indices: e_a*e_b = c*e_k is found by one recursion step per
doubling parameter, each one of the four monomial cases p*r, (s*p)*l,
(q*conj(r))*l and gamma*conj(s)*q, down through the quaternion and complex
levels; nothing is hand-entered.  The backend compiles the product from
that table, and the norm from the inner form on the table's diagonal.  All
values are immutable after construction, so everything here is safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import ConfigurationError, SingularElementError
from .scalars import EXACT, ToleranceSpec, backend_for

DIVISION = "division"
SPLIT = "split"


class DivisionCheck(namedtuple("DivisionCheck", "status witness", defaults=(None,))):
    """Outcome of the division-algebra test: the norm form is anisotropic
    (``division``) or isotropic (``split``); a split outcome carries an
    explicit isotropic witness (an :class:`Octonion`) when the search found
    one, else None."""

    __slots__ = ()


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
        # its polar form <x,y>: N(x) = <x,x>, Tr(conj(x) y) = 2<x,y>
        self.backend.norm_form(self.norm_coeffs)
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

        def product(a, b, level):
            # (c, k) with e_a e_b = c e_k in the algebra doubled by
            # params[:level]; an index >= half is e_(index - half) * l, and
            # conj negates every unit except 1
            if level == 0:
                return self._one, 0
            half = 1 << (level - 1)
            if a < half and b < half:  # p r
                return product(a, b, level - 1)
            if a < half:  # (s p) l
                c, k = product(b - half, a, level - 1)
                return c, k + half
            if b < half:  # (q rbar) l
                c, k = product(a - half, b, level - 1)
                return (-c if b else c), k + half
            c, k = product(b - half, a - half, level - 1)  # gamma sbar q
            return params[level - 1] * (-c if b - half else c), k

        return tuple(tuple(product(a, b, 3) for b in range(8)) for a in range(8))

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
        """Value of the diagonal norm form, <x,x>; equals (conj(x) * x)_0."""
        return self.algebra.backend.inner(self.vec, self.vec)

    def invariants(self):
        """The central pair (trace, norm); conjugation-invariant."""
        return self.trace(), self.norm()

    def pure(self):
        """The trace-zero part x - x0."""
        return self.algebra.octonion((0,) + self.coords[1:])

    def inverse(self):
        """conj(x) / Norm(x); SingularElementError when the norm is (numerically) 0."""
        vec = self.algebra.backend.inverse(self.vec, lambda: self.max_abs() ** 2)
        if vec is None:
            raise SingularElementError("element has (numerically) zero norm")
        return Octonion(self.algebra, vec)

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
    """Polarization of the norm form: <x,y> = Tr(conj(x) y) = N(x+y) - N(x) -
    N(y), which is 2 sum_k q_k x_k y_k on the stored vectors."""
    x.algebra.check_same(y.algebra)
    return 2 * x.algebra.backend.inner(x.vec, y.vec)


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
    the choice is delta = g - conj(h).  When g == conj(h) is not central,
    delta is pure and orthogonal to g, so it anticommutes with g's pure part:
    the first e_k with <g, e_k> = 2 q_k g_k zero, else the closed form
    q_2 g_2 e_1 - q_1 g_1 e_2 of norm q_1 q_2 (q_2 g_2^2 + q_1 g_1^2), which
    vanishes (ValueError) only in a split algebra.  For central g == h any
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
    for k in range(1, 8):
        if alg.backend.is_zero(bilinear_form(g, alg.basis_element(k)), scale):
            return alg.basis_element(k)
    q, c = alg.norm_coeffs, g.coords
    delta = alg.octonion([0, q[2] * c[2], -q[1] * c[1], 0, 0, 0, 0, 0])
    if alg.backend.is_zero(delta.norm(), lambda: delta.max_abs() ** 2):
        raise ValueError("no conjugating element found")  # delta is isotropic
    return delta
