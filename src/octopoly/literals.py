"""Text forms of octonions and polynomials.

Octonion literals are sums of terms ``coeff``, ``coeff*basis`` or ``basis``
with basis symbols 1, i, j, k, l, il, jl, kl (k is ij, kl is (ij)l) and
coefficients that are integers, 'p/q' rationals or -- in float mode only --
decimals.  Polynomial literals are sums of ``C*z^d``, ``C*z``, ``C`` where C
is a parenthesized octonion literal or a bare term.  The surface aliases k
and kl exist only here; storage is always the 8-coordinate vector.
"""

from __future__ import annotations

import re

from .errors import ParseError

BASIS_SYMBOLS = {"1": 0, "i": 1, "j": 2, "k": 3, "l": 4, "il": 5, "jl": 6, "kl": 7}
_SYMBOL_FOR_INDEX = {0: "1", 1: "i", 2: "j", 3: "k", 4: "l", 5: "il", 6: "jl", 7: "kl"}

MAX_DEGREE = 16

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+/\d+|\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z]+)|(?P<op>[-+*^()])|(?P<bad>\S))"
)


def _tokenize(text):
    """(kind, text, offset) tokens of a literal, ending with an "end" token.

    One scan: consecutive matches cover the text up to trailing whitespace,
    and any character that starts no token matches ``bad``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError("unexpected character %r" % m[kind], text, m.start())
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, algebra):
        self.text = text
        self.algebra = algebra
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, self.text, tok[2])

    def expect_op(self, op):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            self.fail("expected %r" % op, tok)

    def number(self, tok):
        txt = tok[1]
        if "." in txt or "e" in txt or "E" in txt:
            try:
                return self.algebra.scalar(float(txt))
            except TypeError:  # the exact backend refuses floats
                self.fail("decimal coefficients need float mode", tok)
        return self.algebra.scalar(txt)

    def sign(self):
        s = 1
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            if self.next()[1] == "-":
                s = -s
        return s

    # term := number ['*' basis] | basis
    def octonion_term(self):
        """The term's one nonzero coordinate as (index, value)."""
        tok = self.next()
        if tok[0] == "number":
            value = self.number(tok)
            if self.peek()[0] == "op" and self.peek()[1] == "*":
                save = self.k
                self.next()
                nxt = self.next()
                if nxt[0] == "name" and nxt[1] in BASIS_SYMBOLS:
                    return BASIS_SYMBOLS[nxt[1]], value
                if nxt[0] == "name" and nxt[1] != "z":
                    self.fail("unknown basis symbol %r" % nxt[1], nxt)
                self.k = save  # the '*' belongs to an enclosing z-term
            return 0, value
        if tok[0] == "name":
            if tok[1] not in BASIS_SYMBOLS:
                self.fail("unknown basis symbol %r" % tok[1], tok)
            return BASIS_SYMBOLS[tok[1]], self.algebra._one
        self.fail("expected a coefficient or basis symbol", tok)

    def octonion_expr(self):
        coords = [self.algebra._zero] * 8
        first = True
        while True:
            tok = self.peek()
            if tok[0] == "end" or (tok[0] == "op" and tok[1] == ")"):
                if first:
                    self.fail("empty octonion literal", tok)
                return coords
            if not first:
                if tok[0] != "op" or tok[1] not in "+-":
                    return coords
            s = self.sign()
            idx, value = self.octonion_term()
            coords[idx] = coords[idx] + value if s > 0 else coords[idx] - value
            first = False


def parse_octonion(text, algebra):
    """Parse a full octonion literal; the whole string must be consumed."""
    p = _Parser(text, algebra)
    coords = p.octonion_expr()
    if p.peek()[0] != "end":
        p.fail("trailing input after octonion literal")
    return algebra.octonion(coords)


def parse_polynomial(text, algebra):
    """Parse a polynomial literal into a StandardPolynomial.

    Duplicate degrees are summed and missing degrees are zero; a polynomial
    that sums to zero, or a degree above 16, is a parse error.
    """
    from .polynomials import StandardPolynomial

    p = _Parser(text, algebra)
    by_degree = {}
    first = True
    while p.peek()[0] != "end":
        tok = p.peek()
        if not first and not (tok[0] == "op" and tok[1] in "+-"):
            p.fail("expected '+' or '-' between terms")
        s = p.sign()
        terms, degree = _poly_term(p)
        cur = by_degree.setdefault(degree, [algebra._zero] * 8)
        for idx, value in terms:
            cur[idx] = cur[idx] + value if s > 0 else cur[idx] - value
        first = False
    if first:
        raise ParseError("empty polynomial", text, 0)
    top = max(by_degree)
    if top > MAX_DEGREE:
        raise ParseError("degree %d exceeds the maximum %d" % (top, MAX_DEGREE), text)
    coeffs = [
        algebra.octonion(by_degree.get(d, [algebra._zero] * 8))
        for d in range(top + 1)
    ]
    try:
        return StandardPolynomial(algebra, coeffs)
    except ValueError as exc:
        raise ParseError(str(exc), text) from exc


def _poly_term(p):
    """One polynomial term -> (its nonzero coordinates as (index, value)
    pairs, degree)."""
    tok = p.peek()
    if tok[0] == "name" and tok[1] == "z":
        return [(0, p.algebra._one)], _z_degree(p)
    if tok[0] == "op" and tok[1] == "(":
        p.next()
        terms = [(idx, c) for idx, c in enumerate(p.octonion_expr()) if c != 0]
        p.expect_op(")")
    else:
        terms = [p.octonion_term()]
    nxt = p.peek()
    if nxt[0] == "op" and nxt[1] == "*":
        save = p.k
        p.next()
        if p.peek()[0] == "name" and p.peek()[1] == "z":
            return terms, _z_degree(p)
        p.k = save
        p.fail("expected 'z' after '*'")
    return terms, 0


def _z_degree(p):
    tok = p.next()
    if tok[0] != "name" or tok[1] != "z":
        p.fail("expected the variable 'z'", tok)
    if p.peek()[0] == "op" and p.peek()[1] == "^":
        p.next()
        dtok = p.next()
        if dtok[0] != "number" or not dtok[1].isdigit():
            p.fail("expected a nonnegative integer exponent", dtok)
        return int(dtok[1])
    return 1


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
