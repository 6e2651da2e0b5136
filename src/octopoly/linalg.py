"""Nullspace extraction for the 8x8 scalar operator matrices.

The module holds one routine per scalar backend.  Exact mode takes an
integer matrix (``scalars.Exact.nullspace`` brings the columns over one
denominator) and runs fraction-free (Bareiss) elimination and back-
substitution on ints, so no ``Fraction`` is built.  Float mode uses
column-pivoted elimination with zero-at-scale pivot decisions.  Both return
a single kernel vector built from the first free column, which keeps
reports deterministic.
"""

from __future__ import annotations

import math


def exact_nullspace_vector(rows):
    """One exact kernel vector of an integer matrix, or None if the matrix
    is regular: the exact backend's vector form (nums, den), normalized so
    its first nonzero coordinate is 1.  The back-substitution keeps ints by
    scaling its vector by pivot / gcd, and divides once, at the end.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0])
    prev = 1
    pivots = []  # (row, col) in echelon order
    r = 0
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
    x = [0] * ncols  # a multiple of the kernel vector
    x[free[0]] = 1
    for rr, cc in reversed(pivots):
        row = m[rr]
        s = sum(row[k] * x[k] for k in range(cc + 1, ncols))
        g = math.gcd(s, row[cc])
        x = [v * (row[cc] // g) for v in x]
        x[cc] = -s // g
    lead = next(v for v in x if v != 0)
    g = math.gcd(*x)
    return tuple(v // g if lead > 0 else -v // g for v in x), abs(lead) // g


def float_nullspace_vector(rows, tol):
    """One kernel vector of a float matrix, or None if numerically regular.

    Pivots are chosen by largest magnitude in the current column and declared
    zero by the ToleranceSpec ``tol`` at the scale of the largest original
    entry.  The vector is
    normalized to unit max-coordinate.
    """
    m = [[float(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0])
    scale = max((abs(e) for row in m for e in row), default=0.0) or 1.0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = max(range(r, nrows), key=lambda i: abs(m[i][c]))
        if tol.is_zero(m[pr][c], scale):
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            fac = m[i][c] / piv
            if fac != 0.0:
                m[i] = [m[i][k] - fac * m[r][k] for k in range(ncols)]
        pivots.append((r, c))
        r += 1
    piv_cols = {c for _, c in pivots}
    free = [c for c in range(ncols) if c not in piv_cols]
    if not free:
        return None
    x = [0.0] * ncols
    x[free[0]] = 1.0
    for rr, cc in reversed(pivots):
        s = sum((m[rr][k] * x[k] for k in range(cc + 1, ncols)), 0.0)
        x[cc] = -s / m[rr][cc]
    lead = max(x, key=abs)
    return [v / lead for v in x]
