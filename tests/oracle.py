"""Independent reference arithmetic used as a test oracle.

Deliberately written along a different path than the package: explicit
4-coordinate quaternion product formulas (not a recursive doubling), plus a
single doubling step to octonions.  Operates on plain 8-tuples of Fractions.
"""

from fractions import Fraction


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


def rand_coords(rng, lo=-9, hi=9, max_den=1):
    return tuple(
        Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(8)
    )
