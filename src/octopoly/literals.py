"""Text forms of octonions and polynomials.

Octonion literals are sums of terms ``coeff``, ``coeff*basis`` or ``basis``
with basis symbols 1, i, j, k, l, il, jl, kl (k is ij, kl is (ij)l) and
coefficients that are integers, 'p/q' rationals or -- in float mode only --
decimals.  Polynomial literals are sums of ``C*z^d``, ``C*z``, ``C`` where C
is a parenthesized octonion literal or a bare term.  The surface aliases k
and kl exist only here; storage is always the 8-coordinate vector.

One regex scan splits a literal into token texts, and the parser walks
them by index; token offsets are recomputed only to report an error.  Each
number token is converted once, by the backend's ``literal``, straight into
its scalar: an int or a Fraction in exact mode, the nearest float in float
mode.  Coordinates accumulate in that type, and each coefficient becomes
its stored vector in one backend call.  A malformed number (a decimal in
exact mode, a zero denominator, more digits than int() converts) is a
ParseError at its offset; a float literal that float64 cannot hold (not
finite, or nonzero but rounding to 0) is a ConfigurationError naming it,
as is a float coordinate whose sum overflows (the backend's ``vector``
refuses it).
"""

from __future__ import annotations

import re

from .algebra import Octonion
from .errors import ParseError
from .polynomials import StandardPolynomial

BASIS_SYMBOLS = {"1": 0, "i": 1, "j": 2, "k": 3, "l": 4, "il": 5, "jl": 6, "kl": 7}
_SYMBOL_FOR_INDEX = {0: "1", 1: "i", 2: "j", 3: "k", 4: "l", 5: "il", 6: "jl", 7: "kl"}

MAX_DEGREE = 16

# one token per match: a number, a name, an operator, or any other character
# (which starts no token and is reported as unexpected)
_TOKEN_RE = re.compile(
    r"\s*(\d+/\d+|\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?|[A-Za-z]+|[-+*^()]|\S)"
)
_ONE_CHAR_TOKEN_RE = re.compile(r"[A-Za-z\d()*^+-]")
_OPS = frozenset("+-*^()")
_SIGNS = frozenset("+-")
_BASIS_NAMES = {s: k for s, k in BASIS_SYMBOLS.items() if s.isalpha()}


def _tokenize(text):
    """The token texts of a literal, then "" for its end.

    A token's kind follows from its text: a name is letters, an operator
    one of ``+-*^()``, and anything else a number.  A character that starts
    no token is a one-character token outside those, reported here at its
    own offset, as every other error is at its token's."""
    tokens = _TOKEN_RE.findall(text)
    if any(map(_unexpected, set(tokens))):
        for m in _TOKEN_RE.finditer(text):
            if _unexpected(m[1]):
                raise ParseError("unexpected character %r" % m[1], text, m.start(1))
    tokens.append("")
    return tokens


def _unexpected(token):
    """Is the token a character that starts no token?"""
    return len(token) == 1 and not _ONE_CHAR_TOKEN_RE.match(token)


def _offset(text, k):
    """The offset in ``text`` of token k (k past the last token: the end)."""
    starts = [m.start(1) for m in _TOKEN_RE.finditer(text)]
    return starts[k] if k < len(starts) else len(text)


class _Parser:
    """Recursive descent over the token texts; ``k`` indexes the next token."""

    def __init__(self, text, algebra):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.literal = algebra.backend.literal
        self.zero = self.literal("0")
        self.one = self.literal("1")

    def fail(self, message, k=None):
        """Raise ParseError at token k (default: the next token)."""
        raise ParseError(message, self.text, _offset(self.text, self.k if k is None else k))

    def expect(self, op):
        if self.tokens[self.k] != op:
            self.fail("expected %r" % op)
        self.k += 1

    def sign(self):
        """Consume a run of '+' and '-'; True when it negates."""
        tokens, k = self.tokens, self.k
        negative = False
        while tokens[k] in _SIGNS:
            negative ^= tokens[k] == "-"
            k += 1
        self.k = k
        return negative

    # term := number ['*' basis] | basis
    def octonion_term(self):
        """The term's one nonzero coordinate as (index, value)."""
        tokens, k = self.tokens, self.k
        t = tokens[k]
        if t in _BASIS_NAMES:
            self.k = k + 1
            return _BASIS_NAMES[t], self.one
        if t.isalpha():
            self.fail("unknown basis symbol %r" % t, k)
        if not t or t in _OPS:
            self.fail("expected a coefficient or basis symbol", k)
        try:  # the number token, converted once into the backend scalar
            value = self.literal(t)
        except ValueError as exc:  # a decimal in exact mode, a zero denominator, too many digits
            self.fail(str(exc), k)
        if tokens[k + 1] == "*":
            nxt = tokens[k + 2]
            if nxt in _BASIS_NAMES:
                self.k = k + 3
                return _BASIS_NAMES[nxt], value
            if nxt.isalpha() and nxt != "z":
                self.fail("unknown basis symbol %r" % nxt, k + 2)
            # else the '*' belongs to an enclosing z-term
        self.k = k + 1
        return 0, value

    def octonion_expr(self):
        tokens = self.tokens
        if tokens[self.k] in ("", ")"):
            self.fail("empty octonion literal")
        coords = [self.zero] * 8
        while True:
            negative = self.sign()
            idx, value = self.octonion_term()
            coords[idx] = coords[idx] - value if negative else coords[idx] + value
            if tokens[self.k] not in _SIGNS:
                return coords


def parse_octonion(text, algebra):
    """Parse a full octonion literal; the whole string must be consumed."""
    p = _Parser(text, algebra)
    coords = p.octonion_expr()
    if p.tokens[p.k]:
        p.fail("trailing input after octonion literal")
    return Octonion(algebra, algebra.backend.vector(coords))


def parse_polynomial(text, algebra):
    """Parse a polynomial literal into a StandardPolynomial.

    Duplicate degrees are summed and missing degrees are zero; a polynomial
    that sums to zero, or a degree above 16, is a parse error.
    """
    p = _Parser(text, algebra)
    tokens = p.tokens
    if not tokens[0]:
        raise ParseError("empty polynomial", text, 0)
    by_degree = {}
    while True:
        negative = p.sign()
        terms, degree = _poly_term(p)
        cur = by_degree.setdefault(degree, [p.zero] * 8)
        for idx, value in terms:
            cur[idx] = cur[idx] - value if negative else cur[idx] + value
        if not tokens[p.k]:
            break
        if tokens[p.k] not in _SIGNS:
            p.fail("expected '+' or '-' between terms")
    top = max(by_degree)
    if top > MAX_DEGREE:
        raise ParseError("degree %d exceeds the maximum %d" % (top, MAX_DEGREE), text)
    vector = algebra.backend.vector
    coeffs = [
        Octonion(algebra, vector(by_degree[d])) if d in by_degree else algebra.zero
        for d in range(top + 1)
    ]
    try:
        return StandardPolynomial(algebra, coeffs)
    except ValueError as exc:
        raise ParseError(str(exc), text) from exc


def _poly_term(p):
    """One polynomial term -> (its nonzero coordinates as (index, value)
    pairs, degree)."""
    tokens = p.tokens
    t = tokens[p.k]
    if t == "z":
        return [(0, p.one)], _z_degree(p)
    if t == "(":
        p.k += 1
        terms = [(idx, c) for idx, c in enumerate(p.octonion_expr()) if c != 0]
        p.expect(")")
    else:
        terms = [p.octonion_term()]
    if tokens[p.k] == "*":
        if tokens[p.k + 1] != "z":
            p.fail("expected 'z' after '*'")
        p.k += 1
        return terms, _z_degree(p)
    return terms, 0


def _z_degree(p):
    """The degree of the 'z' or 'z^d' at the next token."""
    tokens, k = p.tokens, p.k
    if tokens[k + 1] != "^":
        p.k = k + 1
        return 1
    digits = tokens[k + 2]
    if not digits.isdigit():
        p.fail("expected a nonnegative integer exponent", k + 2)
    p.k = k + 3
    try:
        return int(digits)
    except ValueError:  # longer than int() converts, so far above the cap
        p.fail("degree of %d digits exceeds the maximum %d" % (len(digits), MAX_DEGREE), k + 2)


def format_octonion(x):
    """Canonical literal form; parse_octonion(format_octonion(x)) == x."""
    backend = x.algebra.backend
    parts = []
    for idx, c in enumerate(x.coords):
        if c == 0:
            continue
        if idx == 0:
            body = backend.format(abs(c))
        else:
            body = backend.term(abs(c), _SYMBOL_FOR_INDEX[idx])
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out


def format_polynomial(phi):
    """Display form of a StandardPolynomial (uses parentheses around any
    multi-term coefficient)."""
    chunks = []
    for d in range(phi.degree, -1, -1):
        c = phi.coeffs[d]
        if c.is_exactly_zero():
            continue
        text = format_octonion(c)
        nonzero = [v for v in c.coords if v != 0]
        needs_parens = len(nonzero) > 1 or text.startswith("-")
        if d == 0:
            chunks.append("(%s)" % text if needs_parens else text)
            continue
        z = "z" if d == 1 else "z^%d" % d
        if c == c.algebra.one:
            chunks.append(z)
        else:
            base = "(%s)" % text if needs_parens else text
            chunks.append("%s*%s" % (base, z))
    return " + ".join(chunks) if chunks else "0"
