"""Scalar backends: exact rationals (:class:`Exact`) and float64 (:class:`Float`).

An algebra holds one backend, which owns every choice that depends on the
scalars: coercion and text form, zero tests, square roots, the nullspace
routine and the class candidates of a companion polynomial.  Exact mode
stores reduced ``fractions.Fraction`` coordinates and decides exactly; float
mode stores ``float`` and routes every zero decision through one
:class:`ToleranceSpec`.  A zero test takes its scale as a function that only
the float backend calls, so the exact path never computes a scale.
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


class _Backend:
    def __init__(self, tol):
        self.tol = tol

    def is_zero(self, x, scale=None):
        """Is ``x`` zero at the scale that ``scale()`` returns (default 1)?"""
        return self.all_zero((x,), scale)

    def term(self, mag, symbol):
        """Text of a positive coefficient ``mag`` on a basis symbol."""
        return "%s*%s" % (self.format(mag), symbol)


class Exact(_Backend):
    """Rational scalars; every decision is exact and no scale is computed."""

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

    def nullspace(self, rows):
        return linalg.exact_nullspace_vector(rows)

    def class_candidates(self, Phi):
        from . import central  # central imports this module through algebra

        return central.exact_candidates(Phi)


class Float(_Backend):
    """float64 scalars; zero and equality are decided by ``tol`` at a scale."""

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

    def nullspace(self, rows):
        return linalg.float_nullspace_vector(rows, self.tol)

    def class_candidates(self, Phi):
        from . import central  # central imports this module through algebra

        return central.CentralRoots(tuple(central.float_candidates(Phi, self.tol)))


def backend_for(mode, tol=None):
    """The backend of ``mode`` ('exact' or 'float') with tolerance ``tol``
    (default :class:`ToleranceSpec`)."""
    backends = {EXACT: Exact, FLOAT: Float}
    if mode not in backends:
        raise ConfigurationError("mode must be one of %r" % (MODES,))
    return backends[mode](tol if tol is not None else ToleranceSpec())
