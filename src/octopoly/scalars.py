"""Scalar backends: exact rationals (:class:`Exact`) and float64 (:class:`Float`).

An algebra holds one backend, which owns every choice that depends on the
scalars: coercion, the value of a literal's number token and the text
form, zero tests, square roots, the nullspace routine, the algebra's norm
form (``norm_form``) with the tests and maps read from it (inverse, class
invariants, embedding of a class, the companion polynomial's coefficients),
and the storage of octonion coordinate vectors with their arithmetic.
Exact mode stores a vector as 8 ints over one positive denominator, kept
canonical (gcd(den, n_0..n_7) = 1, zero over 1), so a product or sum costs
one gcd; every decision is exact and made on numerators, and a
``fractions.Fraction`` is built only for a scalar handed out (a
coordinate, a trace, a norm, a pairing).  Float mode stores a tuple of 8
``float`` and routes every zero decision through one :class:`ToleranceSpec`.
A zero test takes its scale as a function that only the float backend
calls, so the exact path never computes a scale.

Three kernels are written out straight-line.  ``multiplier`` compiles the
product from the algebra's structure table once, one sum per output
coordinate with its terms in the table's (a, b) order; from the same table
``operator_columns`` reads a product with a basis element as a signed,
scaled permutation of coordinates.  ``inner`` is the
polar form <u,v> = sum_k q_k u_k v_k of the diagonal norm form, so
Norm(x) = <x,x> and Tr(conj(x) y) = 2<x,y> need no product, and
``companion_form`` sums those pairings into the companion polynomial's
coefficients, on ints over one denominator in exact mode.  ``combine``
forms sum_i s_i v_i / den in one pass, with one reduction in exact mode.
Float sums start at 0.0 and run in a fixed order (never ``sum()``, whose
rounding changed in Python 3.12).
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .errors import ConfigurationError, NumericFailureError

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)


class ToleranceSpec(namedtuple("ToleranceSpec", "abs_eps rel_eps", defaults=(1e-10, 1e-9))):
    """Zero policy for the float backend.

    A float ``x`` is "zero at scale s" iff ``|x| <= abs_eps + rel_eps * |s|``.
    Both fields (floats, default 1e-10 and 1e-9) must be finite and
    nonnegative.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    "%s must be finite and >= 0, got %r" % (name, value)
                )
        return self

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``; validate there too
        return cls(*iterable)

    def is_zero(self, x, scale=1.0):
        return abs(x) <= self.abs_eps + self.rel_eps * abs(scale)


def _compiled_product(rows, start):
    """The coordinates of x*y under the structure table ``rows[a][b] =
    (c, k)`` (e_a e_b = c e_k), as a function of the two coordinate tuples,
    compiled from straight-line source.

    Coordinate k is the sum ``start`` (source text, maybe empty) plus its
    terms in the table's (a, b) order: a coefficient of +-1 as a plain
    ``+``/``-`` and any other c as ``|c|*xa*yb``, i.e. (|c|*xa)*yb, with
    |c| embedded by ``repr``.  A float sum from 0.0 thus rounds exactly as
    adding c*xa*yb term by term in that order.
    """
    sums = [start] * 8
    for a, row in enumerate(rows):
        for b, (c, k) in enumerate(row):
            term = "x%d*y%d" % (a, b) if abs(c) == 1 else "%r*x%d*y%d" % (abs(c), a, b)
            if sums[k]:
                sums[k] += (" - " if c < 0 else " + ") + term
            else:
                sums[k] = "-" + term if c < 0 else term
    x, y = (", ".join("%s%d" % (v, k) for k in range(8)) for v in "xy")
    source = "def product(xs, ys):\n    %s = xs\n    %s = ys\n    return (%s)\n" % (
        x, y, ", ".join(sums)
    )
    namespace = {"inf": math.inf}  # repr of an overflowed float constant
    exec(compile(source, "<octonion product>", "exec"), namespace)
    return namespace["product"]


def over_common_denominator(values):
    """(nums, den): the rationals ``values`` as a tuple of ints over the
    least common multiple den of their denominators."""
    den = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def _too_long(digits):
    """The ValueError for a digit string longer than int() converts
    (``sys.get_int_max_str_digits()``)."""
    return ValueError("a number of %d digits is too long to convert" % len(digits))


def _ratio(text):
    """(p, q) of a 'p/q' text, ints with q != 0 (else ValueError)."""
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den)
    except ValueError:
        longest = max(num, den, key=len)
        # 0 when int() has no digit limit (as before Python 3.10.7)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and len(longest) > limit:
            raise _too_long(longest) from None
        raise ValueError("%r is not a ratio of two integers" % text) from None
    if den == 0:
        raise ValueError("zero denominator")
    return num, den


def _range_error(value, what):
    """ConfigurationError 'scalar <value> <what>', the value's text cut to 40
    characters."""
    text = str(value)
    if len(text) > 40:
        text = text[:37] + "..."
    return ConfigurationError("scalar %s %s" % (text, what))


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

    def _hold_structure(self, coeffs, tden, start):
        """Compile and return the product of coordinate sequences under the
        structure table ``coeffs[a][b] = (c, k)`` over the denominator
        ``tden`` (``_compiled_product`` with ``start``), and hold it with
        tden and, per basis element e_b, the maps x -> x e_b and
        x -> e_b x as one (c, a) per output coordinate k, which is c x_a."""
        self._product, self._tden = _compiled_product(coeffs, start), tden
        self._by_basis = ([[None] * 8 for _ in range(8)], [[None] * 8 for _ in range(8)])
        for a, row in enumerate(coeffs):
            for b, (c, k) in enumerate(row):
                self._by_basis[0][b][k] = (c, a)
                self._by_basis[1][a][k] = (c, b)
        return self._product

    def operator_columns(self, e, g, lam, right):
        """The columns b = 0..7 of the operator gamma -> E act(gamma) + G
        gamma at gamma = e_b, for the vectors e, g of E, G and act(gamma) =
        lam gamma (gamma lam when ``right``), as ``nullspace`` takes them.

        lam e_b (e_b lam) and G e_b are signed, scaled permutations of the
        coordinates, read off the structure table, so a column costs one
        compiled product and no reduction.  Each permuted coordinate is
        zero + c x_a, which in float mode rounds as the compiled product
        with e_b does, so float columns are bitwise those of the octonion
        products; exact columns are ints over one shared denominator."""
        (en, ed), (gn, gd), (ln, ld) = map(self._split, (e, g, lam))
        acts, g_acts, zero = self._by_basis[right], self._by_basis[0], self._ZERO
        columns = []
        for b in range(8):
            v = [zero + c * ln[a] for c, a in acts[b]]
            w = [zero + c * gn[a] for c, a in g_acts[b]]
            columns.append((self._product(en, v), w))
        return self._columns(columns, ed * ld * self._tden**2, gd * self._tden)


class Exact(_Backend):
    """Rational scalars; every decision is exact and no scale is computed.

    A vector is ``(nums, den)``: a tuple of 8 ints and an int den > 0 with
    gcd(den, *nums) == 1, so equal vectors have equal forms.
    """

    _ZERO = 0

    def coerce(self, value):
        """Ints, Fractions and 'p/q' strings; floats are rejected because
        they would silently lose exactness."""
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, (int, Fraction, str)):
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, float):
            raise TypeError(
                "float scalar %r not allowed in exact mode; pass a Fraction" % value
            )
        raise TypeError("cannot use %r as an exact scalar" % (value,))

    def literal(self, text):
        """The scalar of a number token: an int for a digit string, a
        Fraction for 'p/q'.  A decimal raises ValueError, as do a zero
        denominator and a digit string longer than int() converts."""
        if text.isdigit():
            try:
                return int(text)
            except ValueError:
                raise _too_long(text) from None
        if "/" in text:
            return Fraction(*_ratio(text))
        raise ValueError("decimal coefficients need float mode")

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
        """Kernel vector, or None, of the matrix whose columns are the given
        vectors: the columns are brought over one denominator, which leaves
        the kernel unchanged, and the integer rows go to Bareiss elimination."""
        den = math.lcm(*(d for _, d in columns))
        scaled = [[n * (den // d) for n in nums] for nums, d in columns]
        return linalg.exact_nullspace_vector(list(zip(*scaled)))

    # -- vectors -----------------------------------------------------------

    def vector(self, coords):
        """The vector of 8 ints or Fractions, in any mix; over the lcm of their
        denominators it is already canonical."""
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
        """v divided by the nonzero Fraction or int s."""
        p, q = (s.denominator, s.numerator) if s > 0 else (-s.denominator, -s.numerator)
        return _reduced([n * p for n in v[0]], v[1] * q)

    def clear_denominators(self, x, y):
        """(a, b, d): the ints a = d x and b = d^2 y for d = lcm(den x, den y)."""
        d = math.lcm(x.denominator, y.denominator)
        return x.numerator * (d // x.denominator), y.numerator * (d // y.denominator) * d, d

    def cleared_invariants(self, v):
        """(a, b, d) with Tr(v) = a/d and Norm(v) = b/d^2 for d = qden den."""
        nums, den = v
        return 2 * nums[0] * self.qden, self._pairing(nums, nums) * self.qden, den * self.qden

    def trace(self, v):
        return Fraction(2 * v[0][0], v[1])

    def norm_form(self, coeffs):
        """Hold the diagonal norm form sum_k coeffs[k] x_k^2 of the algebra,
        as ints ``qs`` over one denominator ``qden``."""
        self.qs, self.qden = over_common_denominator(coeffs)

    def _pairing(self, xs, ys):
        """sum_k qs[k] xs[k] ys[k] on ints."""
        return sum(map(operator.mul, map(operator.mul, self.qs, xs), ys))

    def inner(self, u, v):
        """The polar form <u,v> = sum_k q_k u_k v_k of the norm form."""
        return Fraction(self._pairing(u[0], v[0]), self.qden * u[1] * v[1])

    def inverse(self, v, scale=None):
        """conj(v) / Norm(v) on ints, or None when the norm is 0."""
        nums, den = self.conj(v)
        total = self._pairing(nums, nums)
        m = self.qden * den if total > 0 else -self.qden * den
        return _reduced([n * m for n in nums], abs(total)) if total else None

    def embeds(self, trace, norm):
        """Does some q_k, k >= 1, have the sign of norm - trace^2/4?  The sign
        is read from 4 norm - trace^2 on numerators."""
        s = 4 * norm.numerator * trace.denominator**2 - trace.numerator**2 * norm.denominator
        return any(s * q > 0 for q in self.qs[1:])

    def companion_form(self, vecs):
        """(b, den): the companion coefficients b_k / den = sum_{i+j=k}
        <v_i,v_j> (ordered pairs) of a vector list v_0..v_n, summed on ints
        with the vectors over the lcm of their denominators."""
        vden = math.lcm(*(d for _, d in vecs))
        nums = [[x * (vden // d) for x in xs] for xs, d in vecs]
        n = len(nums) - 1
        b = [0] * (2 * n + 1)
        for i, xs in enumerate(nums):
            ws = list(map(operator.mul, self.qs, xs))
            b[2 * i] += sum(map(operator.mul, ws, xs))
            for j in range(i + 1, n + 1):
                b[i + j] += 2 * sum(map(operator.mul, ws, nums[j]))
        return b, self.qden * vden * vden

    def multiplier(self, table):
        """The product of two vectors under ``table[a][b] = (c, k)``; the
        coefficients c are held as ints over one denominator, so rational
        algebra parameters cost nothing beyond the one gcd per product."""
        tden = math.lcm(*(c.denominator for row in table for c, _ in row))
        coeffs = [[(int(c * tden), k) for c, k in row] for row in table]
        product = self._hold_structure(coeffs, tden, "")

        def mul(x, y):
            (xn, xd), (yn, yd) = x, y
            return _reduced(product(xn, yn), xd * yd * tden)

        return mul

    def _split(self, v):
        """(coordinate numerators, denominator) of a vector."""
        return v

    def _columns(self, pairs, d1, d2):
        """The columns p/d1 + w/d2 of the (p, w) pairs, over d = lcm(d1, d2)."""
        d = math.lcm(d1, d2)
        s1, s2 = d // d1, d // d2
        return [([s1 * x + s2 * y for x, y in zip(p, w)], d) for p, w in pairs]

    def combine(self, vecs, weights, den=1):
        """sum_i weights[i] * vecs[i] / den for int weights and a positive int
        den, with one reduction: the vectors over the lcm of their denominators."""
        vden = math.lcm(*(d for _, d in vecs))
        terms = [(w * (vden // d), nums) for w, (nums, d) in zip(weights, vecs) if w]
        sums = [sum([m * nums[k] for m, nums in terms]) for k in range(8)]
        return _reduced(sums, vden * den)


class Float(_Backend):
    """float64 scalars; zero and equality are decided by ``tol`` at a scale.

    A vector is a tuple of 8 floats."""

    _ZERO = 0.0

    def coerce(self, value):
        """Anything float() accepts, plus 'p/q' strings (a string is read by
        ``literal``), whose value is a finite float64 that is 0 only when
        the value is."""
        if isinstance(value, str):
            return self.literal(value)
        try:
            x = float(value)
        except OverflowError:  # a rational too large for float64
            x = math.inf
        if not math.isfinite(x):
            raise _range_error(value, "is not a finite float64")
        if x == 0 and value != 0:  # a rational too small for float64
            raise _range_error(value, "underflows to 0 in float64")
        return x

    def literal(self, text):
        """The float nearest the number text ``text``: anything float()
        accepts, or 'p/q' of two ints (float() of a string and int / int
        both round correctly).  A value beyond float64, or a nonzero one
        that rounds to 0, raises ConfigurationError; a 'p/q' that is not
        two ints, or has a zero denominator or a part longer than int()
        converts, raises ValueError."""
        if "/" in text:
            num, den = _ratio(text)
            try:
                x = num / den
            except OverflowError:  # a ratio too large for float64
                raise _range_error(text, "is not a finite float64") from None
            nonzero = num != 0
        else:
            x = float(text)
            if not math.isfinite(x):
                # a decimal is named by its value, as coerce names a float
                raise _range_error(text if text.isdigit() else x, "is not a finite float64")
            # nonzero when a digit of the mantissa is (any script's digits)
            mantissa = text.lower().partition("e")[0]
            nonzero = any(c.isdecimal() and int(c) for c in mantissa)
        if x == 0 and nonzero:
            raise _range_error(text, "underflows to 0 in float64")
        return x

    def format(self, x):
        """17 significant digits, enough to round-trip a float64."""
        return format(float(x), ".17g")

    def all_zero(self, values, scale=None):
        s = scale() if scale else 1.0
        return all(self.tol.is_zero(x, s) for x in values)

    def sqrt(self, x):
        return x**0.5 if x >= 0 else None

    def nullspace(self, columns):
        """Kernel vector, or None, of the matrix whose columns are the given vectors."""
        x = linalg.float_nullspace_vector(list(zip(*columns)), self.tol)
        return None if x is None else self.vector(x)

    # -- vectors -----------------------------------------------------------

    def vector(self, coords):
        """The vector of 8 finite floats (a literal's coordinate is a sum of
        finite floats, which can overflow)."""
        v = tuple(coords)
        for x in v:
            if not math.isfinite(x):
                raise _range_error(x, "is not a finite float64")
        return v

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

    def clear_denominators(self, x, y):
        """(x, y, 1): a float needs no denominator cleared."""
        return x, y, 1

    def cleared_invariants(self, v):
        """(Tr(v), Norm(v), 1)."""
        return self.trace(v), self.inner(v, v), 1

    def trace(self, v):
        return v[0] + v[0]

    def norm_form(self, coeffs):
        """Hold the diagonal norm form sum_k coeffs[k] x_k^2 of the algebra."""
        self.qs = coeffs

    def inner(self, u, v):
        """<u,v> = sum_k q_k u_k v_k, summed from 0.0 as (q*u_k)*v_k in k
        order (the order of coordinate 0 of the product conj(u) v)."""
        t = 0.0
        for q, a, b in zip(self.qs, u, v):
            t += q * a * b
        return t

    def inverse(self, v, scale):
        """conj(v) / Norm(v), or None when the norm is zero at ``scale()``."""
        n = self.inner(v, v)
        return None if self.tol.is_zero(n, scale()) else self.divide(self.conj(v), self.coerce(n))

    def embeds(self, trace, norm):
        """Does some q_k, k >= 1, have the sign of norm - trace^2/4?"""
        s = norm - trace * trace / 4
        return any(s * q > 0 for q in self.qs[1:])

    def companion_form(self, vecs):
        """(b, None): the companion coefficients b_k = sum_{i+j=k} <v_i,v_j>
        of a vector list v_0..v_n, each summed from 0.0, pair by pair in i
        order, a pair i < j adding <v_i,v_j> doubled.  A b_k that is not
        finite raises NumericFailureError."""
        n = len(vecs) - 1
        b = [0.0] * (2 * n + 1)
        for i, u in enumerate(vecs):
            b[2 * i] += self.inner(u, u)
            for j in range(i + 1, n + 1):
                t = self.inner(u, vecs[j])
                b[i + j] += t + t
        for k, x in enumerate(b):
            if not math.isfinite(x):
                raise NumericFailureError(
                    "float64 overflow: companion coefficient b_%d is %r" % (k, x)
                )
        return b, None

    def multiplier(self, table):
        """The product of two vectors under ``table[a][b] = (c, k)``, each
        coordinate summed from 0.0 in (a, b) order."""
        return self._hold_structure(table, 1, "0.0")

    def _split(self, v):
        """(coordinates, 1): a float vector has no denominator."""
        return v, 1

    def _columns(self, pairs, d1, d2):
        """The columns p + w of the (p, w) pairs; d1 = d2 = 1."""
        return [tuple(map(operator.add, p, w)) for p, w in pairs]

    def combine(self, vecs, scalars, den=1):
        """sum_i scalars[i] * vecs[i] / den, summed from 0.0 in i order; a
        scalar that is not finite raises NumericFailureError."""
        if not all(map(math.isfinite, scalars)):
            raise NumericFailureError(
                "float64 overflow: a combination scalar is not finite"
            )
        out = [0.0] * 8
        for v, s in zip(vecs, scalars):
            out = [o + a * s for o, a in zip(out, v)]
        return tuple(out) if den == 1 else tuple(o / den for o in out)


def backend_for(mode, tol=None):
    """The backend of ``mode`` ('exact' or 'float') with tolerance ``tol``
    (default :class:`ToleranceSpec`)."""
    backends = {EXACT: Exact, FLOAT: Float}
    if mode not in backends:
        raise ConfigurationError("mode must be one of %r" % (MODES,))
    return backends[mode](tol if tol is not None else ToleranceSpec())
