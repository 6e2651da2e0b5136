"""Independent reference arithmetic used as a test oracle.

Deliberately written along a different path than the package: explicit
4-coordinate quaternion product formulas (not a recursive doubling), plus a
single doubling step to octonions.  Operates on plain 8-tuples of Fractions,
except for the twist oracles, which build package polynomials from package
products, and the integer-polynomial references.
"""

import cmath
import math
from fractions import Fraction

from octopoly import StandardPolynomial


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


def oct_mul(x, y, alpha, beta, gamma):
    p, q = x[:4], x[4:]
    r, s = y[:4], y[4:]
    first = tuple(
        u + gamma * v
        for u, v in zip(quat_mul(p, r, alpha, beta), quat_mul(quat_conj(s), q, alpha, beta))
    )
    second = tuple(
        u + v
        for u, v in zip(quat_mul(s, p, alpha, beta), quat_mul(q, quat_conj(r), alpha, beta))
    )
    return first + second


def oct_conj(x):
    return (x[0],) + tuple(-c for c in x[1:])


def oct_norm(x, alpha, beta, gamma):
    value = oct_mul(oct_conj(x), x, alpha, beta, gamma)
    assert all(c == 0 for c in value[1:])
    return value[0]


def max_abs(x):
    """The largest coordinate magnitude of an Octonion, as a float: a
    yardstick for measuring in tests, apart from the package's zero scales."""
    return max(abs(float(c)) for c in x.coords)


def nu(x):
    """The algebra's norm nu(x) = sqrt(sum_k |q_k| x_k^2) of a float
    Octonion, by the formula that ``Octonion.magnitude`` is specified by:
    ``math.hypot`` of the coordinates weighted by sqrt|q_k|."""
    q = x.algebra.norm_coeffs
    return math.hypot(*(math.sqrt(abs(qk)) * xk for qk, xk in zip(q, x.coords)))


def loop_product(table, xs, ys):
    """Float product by the interpreted loop over a structure table
    ``table[a][b] = (c, k)``: zero coordinates skipped, each coordinate
    summed from 0.0 in (a, b) order.  The reference summation order of the
    package's float product."""
    out = [0.0] * 8
    for xa, row in zip(xs, table):
        if xa:
            for yb, (c, k) in zip(ys, row):
                if yb:
                    out[k] += c * xa * yb
    return tuple(out)


def power_sum_eval(phi, lam):
    """phi(lam) as ``polynomials.eval_at`` computed it before Horner's rule:
    c_0 plus c_i lam^i, the powers built by repeated left multiplication
    from lam.  The reference of the Horner evaluation."""
    acc, power = phi.coeffs[0], lam
    for i, c in enumerate(phi.coeffs[1:]):
        if i > 0:
            power = lam * power
        acc = acc + c * power
    return acc


def horner_loops(b, z):
    """The float root finder's former three evaluations of b_0..b_n at a
    complex z, one loop each: (p(z), p'(z)) by a joint Horner pass from 0j,
    p(z) again by Horner from the int 0, and the rounding scale
    sum_k |b_k| |z|^k.  The reference order of ``central._horner``."""
    p = dp = 0j
    for c in reversed(b):
        dp = dp * z + p
        p = p * z + c
    value = 0
    for c in reversed(b):
        value = value * z + c
    scale = 0.0
    for c in reversed(b):
        scale = scale * abs(z) + abs(c)
    return p, dp, value, scale


def full_aberth(b):
    """The float root finder's former iteration on all n roots at once:
    Aberth-Ehrlich sweeps from n points on the circle of twice the Fujiwara
    bound, until every |p(z_i)| is below its rounding bound, then one Newton
    polish with fresh Horner values.  The reference of ``central._aberth``,
    which sweeps conjugate pairs first and falls back to this iteration;
    at most 200 sweeps, 2^-52 twice the unit roundoff."""
    n = len(b) - 1
    radius = 2 * max(
        abs(b[n - k] / b[n] / (2 if k == n else 1)) ** (1 / k) for k in range(1, n + 1)
    )
    z = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(200):
        moved = False
        for i in range(n):
            p, dp, _, scale = horner_loops(b, z[i])
            if abs(p) > len(b) * 2.0**-52 * scale:
                s = p * sum(1 / (z[i] - w) for w in z if w != z[i])
                if dp != s:
                    z[i] -= p / (dp - s)
                    moved = True
        if not moved:
            break
    for i in range(n):
        p, dp, _, _ = horner_loops(b, z[i])
        if dp != 0:
            z[i] -= p / dp
    return z


def fraction_nullspace_vector(rows):
    """The exact kernel routine as it was on Fractions: Bareiss elimination
    of an integer matrix, back-substitution in Fractions and division by
    the first nonzero coordinate.  A list of Fractions, or None for a
    regular matrix; the reference of ``linalg.exact_nullspace_vector``."""
    m = [list(row) for row in rows]
    nrows, ncols = len(m), len(m[0])
    prev, pivots, r = 1, [], 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            fac = m[i][c]
            m[i] = [(piv * m[i][k] - fac * m[r][k]) // prev for k in range(ncols)]
        prev = piv
        pivots.append((r, c))
        r += 1
    piv_cols = {c for _, c in pivots}
    free = [c for c in range(ncols) if c not in piv_cols]
    if not free:
        return None
    x = [Fraction(0)] * ncols
    x[free[0]] = Fraction(1)
    for rr, cc in reversed(pivots):
        s = sum((Fraction(m[rr][k]) * x[k] for k in range(cc + 1, ncols)), Fraction(0))
        x[cc] = -s / m[rr][cc]
    lead = next(v for v in x if v != 0)
    return [v / lead for v in x]


def fraction_reduce_to_linear(coeffs, norm, trace):
    """(E, G), 8-tuples of Fractions, of phi = sum_i c_i z^i on the class
    z^2 = trace z - norm, by the recurrence on Fractions as
    ``reduce_to_linear`` ran it before: (e_0, g_0) = (0, 1),
    e_{i+1} = trace e_i + g_i, g_{i+1} = -norm e_i, E = sum_i e_i c_i and
    G = sum_i g_i c_i."""
    E = G = (Fraction(0),) * 8
    e, g = Fraction(0), Fraction(1)
    for c in coeffs:
        E = tuple(x + e * y for x, y in zip(E, c))
        G = tuple(x + g * y for x, y in zip(G, c))
        e, g = trace * e + g, -norm * e
    return E, G


def rand_coords(rng, lo=-9, hi=9, max_den=1):
    return tuple(
        Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(8)
    )


def eg_coeffs(norm, trace, i):
    """(e_i, g_i) with z^i = e_i z + g_i whenever z^2 = trace z - norm, by
    i steps of e_(k+1) = trace e_k + g_k, g_(k+1) = -norm e_k from
    (e_0, g_0) = (0, 1)."""
    e, g = norm * 0, norm * 0 + 1
    for _ in range(i):
        e, g = trace * e + g, -norm * e
    return e, g


def twist_left(phi, g):
    """The one-sided twist of a monic phi by an invertible g: c_k becomes
    g^-1 c_k, and the leading 1 becomes g^-1.  The roots of all such twists
    are left eigenvalues of the companion matrix (the paper's twist
    theorem); a singular g raises as ``g.inverse()`` does."""
    if not phi.is_monic():
        raise ValueError("twist_left requires a monic polynomial")
    ginv = g.inverse()
    return StandardPolynomial(phi.algebra, [ginv * c for c in phi.coeffs[:-1]] + [ginv])


def twist_two_sided(phi, g):
    """The two-sided twist of a monic phi by an invertible g: c_k becomes
    g^-1 c_k g^-1 (unambiguous by flexibility), and the leading 1 becomes
    g^-2.  Its roots are right eigenvalues of the companion matrix."""
    if not phi.is_monic():
        raise ValueError("twist_two_sided requires a monic polynomial")
    ginv = g.inverse()
    coeffs = [(ginv * c) * ginv for c in phi.coeffs[:-1]] + [ginv * ginv]
    return StandardPolynomial(phi.algebra, coeffs)


def _long_division(a, h, m):
    """(quotient, remainder) of a by the monic h mod m, by schoolbook long
    division: while deg a >= deg h, subtract lc(a) z^k h for k = deg a -
    deg h.  The remainder has deg h coefficients (fewer when a has)."""
    n = len(h) - 1
    r = [x % m for x in a]
    q = [0] * max(len(r) - n, 0)
    while len(r) > n:
        k = len(r) - 1 - n
        q[k] = c = r[-1]
        r = [(x - c * h[i - k]) % m if i >= k else x for i, x in enumerate(r[:-1])]
    return q, r


def two_division_lift(S, u, p, m):
    """The lifting step of the exact factor search as two divisions mod the
    current modulus, q = S div h with S mod h, then q mod h, for the
    Bairstow update of h = u mod p up to m = p^(2^j).  The reference of
    ``intpoly._newton_lift``, which takes both remainders in one pass."""
    h, mod = u, p
    while mod < m:
        mod *= mod
        b, a = h[0], h[1]
        q, rem = _long_division(S, h, mod)
        r0, r1 = rem + [0] * (2 - len(rem))
        rem = _long_division(q, h, mod)[1]
        s0, s1 = rem + [0] * (2 - len(rem))
        inv = pow(s0 * s0 - a * s0 * s1 + b * s1 * s1, -1, mod)
        da = (s1 * r0 - s0 * r1) * inv
        db = ((a * s1 - s0) * r0 - b * s1 * r1) * inv
        h = [(b - db) % mod, (a - da) % mod] + h[2:]
    return h
