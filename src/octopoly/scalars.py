"""Scalar backends: exact rationals (:class:`Exact`) and float64 (:class:`Float`).

An algebra holds one backend, which owns every choice that depends on the
scalars: coercion and text form, zero tests, square roots, the nullspace
routine, the class candidates of a companion polynomial, and the storage of
octonion coordinate vectors with their arithmetic (sum, difference,
negation, scaling, conjugation, norm, trace and the product over the
structure table).  Exact mode stores a vector as 8 ints over one positive
denominator, kept canonical (gcd(den, n_0..n_7) = 1, zero over 1), so a
product or sum costs one gcd instead of one per coordinate operation; its
coordinates are exposed as reduced ``fractions.Fraction`` and every decision
is exact.  Float mode stores a tuple of 8 ``float`` and routes every zero
decision through one :class:`ToleranceSpec`.  A zero test takes its scale
as a function that only the float backend calls, so the exact path never
computes a scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import ConfigurationError

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)


@dataclass(frozen=True)
class ToleranceSpec:
    """Zero policy for the float backend.

    A float ``x`` is "zero at scale s" iff ``|x| <= abs_eps + rel_eps * |s|``.
    Both fields must be finite and nonnegative.
    """

    abs_eps: float = 1e-10
    rel_eps: float = 1e-9

    def __post_init__(self):
        for name in ("abs_eps", "rel_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    "%s must be finite and >= 0, got %r" % (name, value)
                )

    def is_zero(self, x, scale=1.0):
        return abs(x) <= self.abs_eps + self.rel_eps * abs(scale)


def _table_product(rows, xs, ys, zero):
    """Coordinates of x*y from a structure table ``rows[a][b] = (c, k)``
    (e_a e_b = c e_k); zero coordinates of either operand are skipped."""
    out = [zero] * 8
    for xa, row in zip(xs, rows):
        if xa:
            for yb, (c, k) in zip(ys, row):
                if yb:
                    out[k] += c * xa * yb
    return out


def over_common_denominator(values):
    """(nums, den): the rationals ``values`` as a tuple of ints over the
    least common multiple den of their denominators."""
    den = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def _reduced(nums, den):
    """The canonical exact vector nums/den, for den > 0."""
    g = math.gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(n // g for n in nums), den // g


class _Backend:
    def __init__(self, tol):
        self.tol = tol

    def is_zero(self, x, scale=None):
        """Is ``x`` zero at the scale that ``scale()`` returns (default 1)?"""
        return self.all_zero((x,), scale)

    def term(self, mag, symbol):
        """Text of a positive coefficient ``mag`` on a basis symbol."""
        return "%s*%s" % (self.format(mag), symbol)

    def sub(self, x, y):
        """x - y of two vectors (x + (-y) is exact in both backends)."""
        return self.add(x, self.neg(y))


class Exact(_Backend):
    """Rational scalars; every decision is exact and no scale is computed.

    A vector is ``(nums, den)``: a tuple of 8 ints and an int den > 0 with
    gcd(den, *nums) == 1, so equal vectors have equal forms.
    """

    def coerce(self, value):
        """Ints, Fractions and 'p/q' strings; floats are rejected because
        they would silently lose exactness."""
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, (int, Fraction, str)):
            return Fraction(value)
        if isinstance(value, float):
            raise TypeError(
                "float scalar %r not allowed in exact mode; pass a Fraction" % value
            )
        raise TypeError("cannot use %r as an exact scalar" % (value,))

    def format(self, x):
        """Reduced 'p/q' (or 'p')."""
        return str(x)

    def term(self, mag, symbol):
        """A unit coefficient is left out."""
        return symbol if mag == 1 else super().term(mag, symbol)

    def all_zero(self, values, scale=None):
        return all(x == 0 for x in values)

    def sqrt(self, x):
        """Exact square root of a Fraction, or None when x is not a square."""
        if x < 0:
            return None
        rn = math.isqrt(x.numerator)
        rd = math.isqrt(x.denominator)
        if rn * rn == x.numerator and rd * rd == x.denominator:
            return Fraction(rn, rd)
        return None

    def nullspace(self, columns):
        """Kernel vector of the matrix whose columns are the given vectors:
        the columns are brought over one denominator, which leaves the
        kernel unchanged, and the integer rows go to Bareiss elimination."""
        den = math.lcm(*(d for _, d in columns))
        scaled = [[n * (den // d) for n in nums] for nums, d in columns]
        return linalg.exact_nullspace_vector(list(zip(*scaled)))

    def class_candidates(self, Phi):
        from . import central  # central imports this module through algebra

        return central.exact_candidates(Phi)

    # -- vectors -----------------------------------------------------------

    def vector(self, coords):
        """The vector of 8 Fractions; over the lcm of their denominators it is
        already canonical."""
        return over_common_denominator(coords)

    def coords(self, v):
        nums, den = v
        return tuple(Fraction(n, den) for n in nums)

    def vector_is_zero(self, v, scale=None):
        return not any(v[0])

    def add(self, x, y):
        (xn, xd), (yn, yd) = x, y
        if xd == yd:
            return _reduced([a + b for a, b in zip(xn, yn)], xd)
        return _reduced([a * yd + b * xd for a, b in zip(xn, yn)], xd * yd)

    def neg(self, v):
        return tuple(-n for n in v[0]), v[1]

    def conj(self, v):
        nums, den = v
        return (nums[0],) + tuple(-n for n in nums[1:]), den

    def scale(self, v, s):
        """v times the Fraction s."""
        p = s.numerator
        return _reduced([n * p for n in v[0]], v[1] * s.denominator)

    def divide(self, v, s):
        return self.scale(v, 1 / s)

    def trace(self, v):
        return Fraction(2 * v[0][0], v[1])

    def norm_form(self, coeffs):
        """The diagonal form sum_k coeffs[k] x_k^2 as a function of a vector;
        the coefficients are held as ints over one denominator."""
        qs, qden = over_common_denominator(coeffs)

        def norm(v):
            nums, den = v
            return Fraction(sum([q * n * n for q, n in zip(qs, nums)]), qden * den * den)

        return norm

    def multiplier(self, table):
        """The product of two vectors under ``table[a][b] = (c, k)``; the
        coefficients c are held as ints over one denominator, so rational
        algebra parameters cost nothing beyond the one gcd per product."""
        tden = math.lcm(*(c.denominator for row in table for c, _ in row))
        rows = tuple(tuple((int(c * tden), k) for c, k in row) for row in table)

        def mul(x, y):
            (xn, xd), (yn, yd) = x, y
            return _reduced(_table_product(rows, xn, yn, 0), xd * yd * tden)

        return mul


class Float(_Backend):
    """float64 scalars; zero and equality are decided by ``tol`` at a scale.

    A vector is a tuple of 8 floats."""

    def coerce(self, value):
        """Anything float() accepts, plus 'p/q' strings."""
        if isinstance(value, str):
            return float(Fraction(value))
        return float(value)

    def format(self, x):
        """17 significant digits, enough to round-trip a float64."""
        return format(float(x), ".17g")

    def all_zero(self, values, scale=None):
        s = scale() if scale else 1.0
        return all(self.tol.is_zero(x, s) for x in values)

    def sqrt(self, x):
        return x**0.5 if x >= 0 else None

    def nullspace(self, columns):
        """Kernel vector of the matrix whose columns are the given vectors."""
        return linalg.float_nullspace_vector(list(zip(*columns)), self.tol)

    def class_candidates(self, Phi):
        from . import central  # central imports this module through algebra

        return central.CentralRoots(tuple(central.float_candidates(Phi, self.tol)))

    # -- vectors -----------------------------------------------------------

    def vector(self, coords):
        return tuple(coords)

    def coords(self, v):
        return v

    def vector_is_zero(self, v, scale=None):
        return self.all_zero(v, scale)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def neg(self, v):
        return tuple(-a for a in v)

    def conj(self, v):
        return (v[0],) + tuple(-a for a in v[1:])

    def scale(self, v, s):
        return tuple(a * s for a in v)

    def divide(self, v, s):
        return tuple(a / s for a in v)

    def trace(self, v):
        return v[0] + v[0]

    def norm_form(self, coeffs):
        def norm(v):
            return sum(q * c * c for q, c in zip(coeffs, v))

        return norm

    def multiplier(self, table):
        def mul(x, y):
            return tuple(_table_product(table, x, y, 0.0))

        return mul


def backend_for(mode, tol=None):
    """The backend of ``mode`` ('exact' or 'float') with tolerance ``tol``
    (default :class:`ToleranceSpec`)."""
    backends = {EXACT: Exact, FLOAT: Float}
    if mode not in backends:
        raise ConfigurationError("mode must be one of %r" % (MODES,))
    return backends[mode](tol if tol is not None else ToleranceSpec())
