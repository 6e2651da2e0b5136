"""Independent arithmetic and output checks for the benchmark.

Nothing here imports the package under test.  Octonion products go through
explicit 4-coordinate quaternion formulas plus one doubling step, a different
path from the package's recursive Cayley-Dickson table.  sympy and mpmath are
used only as checking oracles (rational factorization, polynomial division,
high-precision polynomial roots), and only inside the check functions.

Elements are plain 8-tuples of ``Fraction`` (exact) or ``float``.  An algebra
is the parameter triple ``(alpha, beta, gamma)``.

Reports reach the checks in one normalized form, whether they come from the
library or from the CLI's JSON:

* solve: ``{"companion": [b_0..b_2n], "classes": [(trace, norm, field_degree,
  multiplicity, status, point)]}`` where ``point`` is the root (single_root),
  the witness (full_class) or None;
* eigen: ``{"member": bool, "kernel": 8-tuple or None, "vector": [8-tuple]
  or None}``.

Each check raises :class:`CheckFailed` with a reason; returning means pass.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

SYMBOLS = ("1", "i", "j", "k", "l", "il", "jl", "kl")
FLOAT_REL_TOL = 1e-7  # substitution residual bound, relative to the value scale
FLOAT_CLASS_TOL = 1e-6  # (trace, norm) agreement with mpmath roots
FLOAT_ROOT_TOL = 1e-6  # planted-root agreement, relative to max(1, |lambda|)


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent computation."""


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def quat_mul(x, y, alpha, beta):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + alpha * x1 * y1 + beta * x2 * y2 - alpha * beta * x3 * y3,
        x0 * y1 + x1 * y0 - beta * x2 * y3 + beta * x3 * y2,
        x0 * y2 + x2 * y0 + alpha * x1 * y3 - alpha * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def quat_conj(x):
    return (x[0], -x[1], -x[2], -x[3])


def _mul(x, y, alpha, beta, gamma):
    p, q, r, s = x[:4], x[4:], y[:4], y[4:]
    first = zip(quat_mul(p, r, alpha, beta), quat_mul(quat_conj(s), q, alpha, beta))
    second = zip(quat_mul(s, p, alpha, beta), quat_mul(q, quat_conj(r), alpha, beta))
    return tuple(u + gamma * v for u, v in first) + tuple(u + v for u, v in second)


def _integral(x):
    """(integer numerators, common denominator) of a Fraction 8-tuple."""
    den = 1
    for c in x:
        den = den * c.denominator // gcd(den, c.denominator)
    return tuple(c.numerator * (den // c.denominator) for c in x), den


def mul(x, y, params):
    """(p + q l)(r + s l) = (p r + gamma conj(s) q) + (s p + q conj(r)) l.

    Exact operands are multiplied as integer numerators over a common
    denominator when the parameters are integers."""
    if isinstance(x[0], float):
        return _mul(x, y, *(float(a) for a in params))
    if any(a.denominator != 1 for a in params):
        return _mul(x, y, *params)
    (xn, xd), (yn, yd) = _integral(x), _integral(y)
    prod = _mul(xn, yn, *(a.numerator for a in params))
    return tuple(Fraction(c, xd * yd) for c in prod)


def conj(x):
    return (x[0],) + tuple(-c for c in x[1:])


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def scale(x, s):
    return tuple(a * s for a in x)


def norm(x, params):
    return mul(conj(x), x, params)[0]


def trace(x):
    return 2 * x[0]


def inverse(x, params):
    return scale(conj(x), 1 / norm(x, params))


def one(zero):
    return (zero + 1,) + (zero,) * 7


def basis(k, zero):
    return tuple(zero + (1 if t == k else 0) for t in range(8))


def max_abs(x):
    return max(abs(float(c)) for c in x)


def powers(lam, n, params):
    out = [one(lam[0] * 0)]
    for _ in range(n):
        out.append(mul(lam, out[-1], params))
    return out


def evaluate(coeffs, lam, params):
    """phi(lam) = sum_i c_i lam^i with coefficients on the left."""
    pw = powers(lam, len(coeffs) - 1, params)
    acc = (lam[0] * 0,) * 8
    for c, p in zip(coeffs, pw):
        acc = add(acc, mul(c, p, params))
    return acc


def companion(coeffs, params):
    """b_k = sum_{i<j, i+j=k} Tr(conj(c_i) c_j) + [k even] Norm(c_{k/2})."""
    n = len(coeffs) - 1
    zero = coeffs[0][0] * 0
    b = [zero] * (2 * n + 1)
    for i, ci in enumerate(coeffs):
        b[2 * i] += norm(ci, params)
        for j in range(i + 1, n + 1):
            b[i + j] += trace(mul(conj(ci), coeffs[j], params))
    return b


def reduced_linear(coeffs, t, n, params):
    """(E, G) with phi(z) = E z + G for every z with z^2 = t z - n."""
    zero = t * 0
    e, g = zero, zero + 1
    E = G = (zero,) * 8
    for i, c in enumerate(coeffs):
        if i:
            e, g = t * e + g, -n * e
        E = add(E, scale(c, e))
        G = add(G, scale(c, g))
    return E, G


def lev_point(coeffs, t, n, g, params):
    """-(E^-1 g)(g^-1 G): a left eigenvalue of the companion matrix in the
    class (t, n) of a monic phi, one for each invertible twist g."""
    E, G = reduced_linear(coeffs, t, n, params)
    left = mul(inverse(E, params), g, params)
    right = mul(inverse(g, params), G, params)
    return scale(mul(left, right, params), -1)


def operator_rows(coeffs, lam, side, params):
    """8x8 matrix of gamma -> sum_i c_i (lam^i gamma) + lam^n gamma (left) or
    sum_i c_i (gamma lam^i) + gamma lam^n (right), coefficients c_0..c_{n-1}
    of a monic phi of degree n."""
    n = len(coeffs) - 1
    pw = powers(lam, n, params)
    zero = lam[0] * 0
    cols = []
    for b in range(8):
        e = basis(b, zero)
        if side == "left":
            acc = mul(pw[n], e, params)
            for i in range(n):
                acc = add(acc, mul(coeffs[i], mul(pw[i], e, params), params))
        else:
            acc = mul(e, pw[n], params)
            for i in range(n):
                acc = add(acc, mul(coeffs[i], mul(e, pw[i], params), params))
        cols.append(acc)
    return [[cols[c][r] for c in range(8)] for r in range(8)]


def rank(rows):
    """Rank of a matrix of Fractions by Gauss-Jordan elimination."""
    m = [list(r) for r in rows]
    rk = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rk, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(len(m)):
            if i != rk and m[i][c] != 0:
                f = m[i][c] / m[rk][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


# ---------------------------------------------------------------------------
# literals: the program receives text only
# ---------------------------------------------------------------------------


def _number_text(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def format_element(x):
    """Literal form ``a + b*i - c*k`` in the package's surface syntax."""
    parts = []
    for c, sym in zip(x, SYMBOLS):
        if c == 0:
            continue
        body = _number_text(abs(c)) if sym == "1" else "%s*%s" % (_number_text(abs(c)), sym)
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(" %s %s" % p for p in parts[1:])


def format_poly(coeffs):
    terms = []
    for d, c in enumerate(coeffs):
        if any(v != 0 for v in c):
            terms.append("(%s)*z^%d" % (format_element(c), d) if d else "(%s)" % format_element(c))
    return " + ".join(reversed(terms))


_TERM = re.compile(r"^(?:(?P<num>[0-9./eE+-]+?)(?:\*(?P<sym>[a-z]+))?|(?P<bare>[a-z]+))$")


def parse_element(text, exact):
    """Parse the ``format_octonion`` output of the CLI's eigen report."""
    coords = [Fraction(0) if exact else 0.0] * 8
    if text.strip() == "0":
        return tuple(coords)
    tokens = text.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        tok = tok.strip()
        sign = -1 if tok.startswith("-") else 1
        m = _TERM.match(tok.lstrip("-"))
        if m is None:
            raise CheckFailed("unparseable term %r in %r" % (tok, text))
        sym = m.group("sym") or m.group("bare") or "1"
        num = m.group("num") or "1"
        value = Fraction(num) if exact else float(num)
        coords[SYMBOLS.index(sym)] += sign * value
    return tuple(coords)


# ---------------------------------------------------------------------------
# closure classes of the companion polynomial
# ---------------------------------------------------------------------------


def _sympy_poly(coeffs):
    """sympy polynomial in z from ascending Fraction coefficients."""
    import sympy

    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], sympy.Symbol("z"))


def exact_classes(Phi):
    """(trace, norm, field_degree, multiplicity) for each linear and each
    irreducible quadratic rational factor of Phi, from ``sympy.factor_list``."""
    out = []
    for f, mult in _sympy_poly(Phi).factor_list()[1]:
        cs = [Fraction(int(c.p), int(c.q)) for c in f.all_coeffs()]
        if len(cs) == 2:
            r = -cs[1] / cs[0]
            out.append((2 * r, r * r, 1, mult))
        elif len(cs) == 3:
            out.append((-cs[1] / cs[0], cs[2] / cs[0], 2, mult))
    return sorted(out)


def float_classes(Phi):
    """Classes of Phi's complex roots from ``mpmath.polyroots`` at 30 digits:
    conjugate pairs give (2 Re r, |r|^2, 2), real roots (2r, r^2, 1)."""
    import mpmath

    with mpmath.workdps(30):
        roots = mpmath.polyroots(list(reversed(Phi)), maxsteps=400, extraprec=60)
        out = []
        for r in roots:
            mag = max(1.0, float(abs(r)))
            if abs(float(r.imag)) <= 1e-9 * mag:
                out.append((2 * float(r.real), float(r.real) ** 2, 1))
            elif r.imag > 0:
                out.append((2 * float(r.real), float(abs(r)) ** 2, 2))
    return out


def divides_companion(Phi, t, n):
    """Does z^2 - t z + n divide Phi?  (sympy polynomial division.)"""
    return _sympy_poly(Phi).rem(_sympy_poly([n, -t, Fraction(1)])).is_zero


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _value_scale(coeffs, lam):
    m = max_abs(lam)
    return sum(max_abs(c) * m**i for i, c in enumerate(coeffs))


def _is_root(coeffs, lam, params, exact):
    value = evaluate(coeffs, lam, params)
    if exact:
        return all(c == 0 for c in value)
    return max_abs(value) <= 1e-9 + FLOAT_REL_TOL * _value_scale(coeffs, lam)


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _same_class(t, n, t2, n2, exact):
    if exact:
        return (t, n) == (t2, n2)
    return _close(t, t2, FLOAT_CLASS_TOL) and _close(n, n2, FLOAT_CLASS_TOL)


def check_substitution(coeffs, report, params, exact):
    """Every reported root and full-class witness is a root of phi, in the
    class it is reported in; a class reported as rootless has none at its
    forced point."""
    for t, n, degree, _, status, point in report["classes"]:
        if status in ("single_root", "full_class"):
            if point is None or not _is_root(coeffs, point, params, exact):
                raise CheckFailed("%s (%s, %s) fails substitution" % (status, t, n))
            pt, pn = trace(point), norm(point, params)
            if not _same_class(pt, pn, t, n, exact):
                raise CheckFailed("point of class (%s, %s) has invariants (%s, %s)" % (t, n, pt, pn))
        elif status == "undetermined":
            raise CheckFailed("class (%s, %s) left undetermined" % (t, n))
        elif exact and status in ("not_embeddable", "no_root_in_class"):
            if degree == 1:
                forced = (t / 2,) + (Fraction(0),) * 7
            else:
                E, G = reduced_linear(coeffs, t, n, params)
                if all(c == 0 for c in E):
                    raise CheckFailed("class (%s, %s) with E = 0 reported %s" % (t, n, status))
                forced = scale(mul(inverse(E, params), G, params), -1)
            if _is_root(coeffs, forced, params, exact) and (trace(forced), norm(forced, params)) == (t, n):
                raise CheckFailed("class (%s, %s) reported %s but holds a root" % (t, n, status))


def check_planted(report, planted, params, exact):
    """The planted root is a reported root, or its class is a full class."""
    t0, n0 = trace(planted), norm(planted, params)
    for t, n, _, _, status, point in report["classes"]:
        if status == "single_root":
            if exact and point == planted:
                return
            if not exact and max(abs(a - b) for a, b in zip(point, planted)) <= FLOAT_ROOT_TOL * max(1.0, max_abs(planted)):
                return
        if status == "full_class" and _same_class(t, n, t0, n0, exact):
            return
    raise CheckFailed("planted root %r lost" % (planted,))


def check_companion(coeffs, report, params, exact):
    """Phi recomputed independently equals the report's; the reported class
    set equals the factor_list classes (exact) or the mpmath roots (float)."""
    Phi = companion(coeffs, params)
    got = report["companion"]
    if len(got) != len(Phi):
        raise CheckFailed("companion has degree %d, expected %d" % (len(got) - 1, len(Phi) - 1))
    for a, b in zip(got, Phi):
        if (a != b) if exact else not _close(a, b, 1e-12):
            raise CheckFailed("companion coefficient %s != %s" % (a, b))
    reported = [(t, n, d, m) for t, n, d, m, _, _ in report["classes"]]
    if exact:
        if sorted(reported) != exact_classes(Phi):
            raise CheckFailed("classes %s != factor_list classes %s" % (sorted(reported), exact_classes(Phi)))
        return
    expected = float_classes(Phi)
    flat = [(t, n, d) for t, n, d, m in reported for _ in range(m)]
    if len(flat) != len(expected):
        raise CheckFailed("%d classes with multiplicity, mpmath gives %d" % (len(flat), len(expected)))
    for t, n, d in expected:
        hit = next((k for k, (u, v, e) in enumerate(flat) if e == d and _same_class(u, v, t, n, False)), None)
        if hit is None:
            raise CheckFailed("mpmath class (%r, %r) missing" % (t, n))
        flat.pop(hit)


def check_solve(coeffs, planted, report, params, exact):
    """All solve checks; ``planted`` is None for an input without one."""
    check_companion(coeffs, report, params, exact)
    check_substitution(coeffs, report, params, exact)
    if planted is not None:
        check_planted(report, planted, params, exact)


def check_eigen(coeffs, lam, side, report, params):
    """Membership equals singularity of the independent operator (left) and
    divisibility of Phi by lam's class quadratic (right); a member's
    eigenvector v satisfies C v = lam v (left) or C v = v lam (right)."""
    n = len(coeffs) - 1
    singular = rank(operator_rows(coeffs, lam, side, params)) < 8
    if side == "right":
        expected = divides_companion(companion(coeffs, params), trace(lam), norm(lam, params))
        if expected != singular:
            raise CheckFailed("operator singularity and class divisibility disagree")
    else:
        expected = singular
    if report["member"] != expected:
        raise CheckFailed("%s membership %s, expected %s" % (side, report["member"], expected))
    if not expected:
        return
    v = report["vector"]
    if len(v) != n or all(c == 0 for x in v for c in x):
        raise CheckFailed("eigenvector has the wrong length or is zero")
    if report["kernel"] != v[0]:
        raise CheckFailed("kernel element is not the eigenvector's first entry")
    for r in range(n):
        if r < n - 1:
            cv = v[r + 1]
        else:
            cv = (Fraction(0),) * 8
            for c in range(n):
                cv = sub(cv, mul(coeffs[c], v[c], params))
        want = mul(lam, v[r], params) if side == "left" else mul(v[r], lam, params)
        if cv != want:
            raise CheckFailed("row %d of C v differs from the eigenvalue product" % r)
