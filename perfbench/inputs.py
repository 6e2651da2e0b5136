"""Seeded inputs for every workload.

Each generator takes a ``random.Random`` and returns cases whose polynomial
and lambda travel to the program as literal strings only; the oracle-side
tuples (coefficients, planted root) stay with the benchmark for checking.
All arithmetic here is the oracle's, not the package's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import oracle

STANDARD = (Fraction(-1), Fraction(-1), Fraction(-1))
GENERIC = (Fraction(-2), Fraction(-3), Fraction(-5))
GOLDEN = "i*z^2 + j*z + l"


@dataclass(frozen=True)
class Case:
    """One operation's input.  ``kind`` is solve, lev or rev; ``lam`` is set
    for the eigen tests; ``planted`` is a known root (solve cases)."""

    kind: str
    params: tuple
    exact: bool
    coeffs: tuple
    literal: str
    planted: tuple | None = None
    lam: tuple | None = None
    lam_literal: str | None = None
    label: str = ""


def _int_element(rng, span=2):
    return tuple(Fraction(rng.randint(-span, span)) for _ in range(8))


def _invertible(rng, params, span=2):
    while True:
        x = _int_element(rng, span)
        if oracle.norm(x, params) != 0:
            return x


def _float_element(rng, span=1.0):
    return tuple(rng.uniform(-span, span) for _ in range(8))


def plant(tail, lam, params):
    """Prepend c_0 = -sum_{i>=1} c_i lam^i so that lam is a root."""
    value = oracle.evaluate((oracle.scale(tail[0], 0),) + tuple(tail), lam, params)
    return (oracle.scale(value, -1),) + tuple(tail)


def planted_exact(rng, params, degree, monic):
    lam = _int_element(rng)
    tail = [_int_element(rng) for _ in range(degree - 1)]
    tail.append(oracle.one(Fraction(0)) if monic else _invertible(rng, params))
    return plant(tail, lam, params), lam


def planted_float(rng, params, degree):
    lam = _float_element(rng)
    tail = [_float_element(rng) for _ in range(degree - 1)] + [oracle.one(0.0)]
    return plant(tail, lam, params), lam


def _real_poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _irreducible_cubic(rng):
    """Monic integer cubic with no rational root, hence irreducible over Q."""
    while True:
        c = [Fraction(rng.choice([-2, -1, 1, 2]))] + [Fraction(rng.randint(-2, 2)) for _ in range(2)]
        c.append(Fraction(1))
        roots = {d * s for d in range(1, abs(int(c[0])) + 1) if int(c[0]) % d == 0 for s in (1, -1)}
        if all(sum(x * r**k for k, x in enumerate(c)) != 0 for r in roots):
            return c


def central_exact(rng, params, degree, lead, cubic):
    """Real-coefficient phi = lead (z^2 - t z + n) [cubic] prod (z - r_k).

    (t, n) are the invariants of lam = a + b e_k, so its whole class is a
    class of roots with a one-direction witness; a cubic factor leaves an
    irreducible remainder of Phi = phi^2 that has to be discarded."""
    k = rng.randint(1, 7)
    lam = [Fraction(0)] * 8
    lam[0] = Fraction(rng.randint(-2, 2))
    lam[k] = Fraction(rng.choice([-2, -1, 1, 2]))
    lam = tuple(lam)
    real = [oracle.norm(lam, params), -oracle.trace(lam), Fraction(1)]
    if cubic:
        real = _real_poly_mul(real, _irreducible_cubic(rng))
    while len(real) - 1 < degree:
        real = _real_poly_mul(real, [Fraction(-rng.randint(-2, 2)), Fraction(1)])
    coeffs = tuple((c * lead,) + (Fraction(0),) * 7 for c in real)
    return coeffs, lam


def solve_case(params, coeffs, planted, exact, label):
    return Case("solve", params, exact, tuple(coeffs), oracle.format_poly(coeffs), planted=planted, label=label)


def eigen_case(kind, params, coeffs, lam, label):
    return Case(
        kind, params, True, tuple(coeffs), oracle.format_poly(coeffs),
        lam=lam, lam_literal=oracle.format_element(lam), label=label,
    )


# ---------------------------------------------------------------------------
# workloads: one round of operations each
# ---------------------------------------------------------------------------

# (algebra, monic, {degree: instances}).  The cost of an exact solve follows
# the number of divisor pairs of Phi's end coefficients, so it varies several
# fold between instances of one degree.  Most instances therefore sit at
# degree 2-3, where a round holds enough of them for a mean that is steady
# from seed to seed; degree 4-5 monic instances make up the tail (p90).
# Degrees 6-8 are left out: one instance takes 0.1-2 s (11 s at degree 7
# over (-2,-3,-5)), so a handful of them would set a run's figures alone.
SOLVE_EXACT = (
    (STANDARD, True, {2: 40, 3: 40, 4: 40, 5: 16}),
    (STANDARD, False, {2: 30, 3: 14}),
    (GENERIC, True, {2: 30, 3: 14}),
    (GENERIC, False, {2: 14}),
)
# (algebra, lead, degree, irreducible cubic) for the real-coefficient inputs
SOLVE_CENTRAL = (
    (STANDARD, 1, 3, False), (STANDARD, 2, 4, False), (STANDARD, 1, 5, True),
    (GENERIC, 1, 4, False), (GENERIC, 3, 3, False), (GENERIC, 1, 5, True),
)
# (algebra, degrees, instances per degree); the family in which float solve
# succeeds today (see the FOUND lines of CHANGES.md for the region outside).
# The cluster merge of central._float_candidates fails when two roots of Phi
# lie within its radius; over 2000 draws per degree the smallest ratio of
# root distance to radius was 28 at degree 7 over (-1,-1,-1) and 406 at
# degree 3 over (-2,-3,-5), but 1.6 and 0.6 at degrees 8 and 9 and 0.99 at
# degree 4 over (-2,-3,-5), where some seeds lose a class.
SOLVE_FLOAT = ((STANDARD, range(2, 8), 8), (GENERIC, range(2, 4), 8))
EIGEN_DEGREES = range(2, 9)
EIGEN_POLYS = 1  # monic polynomials per (algebra, degree)


def solve_exact_cases(rng):
    cases = []
    for params, monic, counts in SOLVE_EXACT:
        for degree, count in counts.items():
            for _ in range(count):
                coeffs, lam = planted_exact(rng, params, degree, monic)
                label = "%s deg%d %s" % (params[0], degree, "monic" if monic else "nonmonic")
                cases.append(solve_case(params, coeffs, lam, True, label))
    for params, lead, degree, cubic in SOLVE_CENTRAL:
        coeffs, lam = central_exact(rng, params, degree, lead, cubic)
        label = "%s deg%d central%s" % (params[0], degree, " cubic" if cubic else "")
        cases.append(solve_case(params, coeffs, lam, True, label))
    return cases


def solve_float_cases(rng):
    cases = []
    for params, degrees, count in SOLVE_FLOAT:
        for degree in degrees:
            for _ in range(count):
                coeffs, lam = planted_float(rng, params, degree)
                cases.append(solve_case(params, coeffs, lam, False, "%s deg%d float" % (params[0], degree)))
    return cases


def eigen_lambdas(rng, coeffs, lam, params):
    """The planted root, a conjugate d lam d^-1, a left eigenvalue that is
    not a root, and a random element."""
    d = _invertible(rng, params)
    conjugate = oracle.mul(oracle.mul(d, lam, params), oracle.inverse(d, params), params)
    t, n = oracle.trace(lam), oracle.norm(lam, params)
    while True:
        point = oracle.lev_point(coeffs, t, n, _invertible(rng, params), params)
        if any(c != 0 for c in oracle.evaluate(coeffs, point, params)):
            break
    return (("planted", lam), ("conjugate", conjugate), ("left_point", point), ("random", _int_element(rng)))


def eigen_cases(rng):
    cases = []
    for params in (STANDARD, GENERIC):
        for degree in EIGEN_DEGREES:
            for _ in range(EIGEN_POLYS):
                coeffs, lam = planted_exact(rng, params, degree, True)
                for source, x in eigen_lambdas(rng, coeffs, lam, params):
                    for kind in ("lev", "rev"):
                        label = "%s deg%d %s %s" % (params[0], degree, source, kind)
                        cases.append(eigen_case(kind, params, coeffs, x, label))
    return cases


def _basis_poly(*indices):
    """Coefficients c_d = e_{indices[d]} (an index None means zero)."""
    zero = Fraction(0)
    return tuple(oracle.basis(k, zero) if k is not None else (zero,) * 8 for k in indices)


# The cli tail (p90) is set by the costliest exact solves.  With one solve
# per kind it was two or three instances of the seed, and its spread over
# seeds was 0.14; with 7 per kind and as many eigen queries, about ten
# distinct solves lie beyond it.
CLI_SOLVES = ((STANDARD, 2, True), (STANDARD, 3, True), (STANDARD, 4, True),
              (STANDARD, 2, False), (GENERIC, 2, True), (GENERIC, 3, True))
CLI_SOLVE_INSTANCES = 7  # per kind
CLI_EIGEN = ((STANDARD, 3), (GENERIC, 2))
CLI_EIGEN_POLYS = 6  # per (algebra, degree); two lambdas, both sides each


def cli_cases(rng):
    """Small inputs for one process per operation: the README examples,
    planted exact solves and eigen tests of degree 2-4, one float solve."""
    golden = Case("solve", STANDARD, True, _basis_poly(4, 2, 1), GOLDEN, label="README golden solve")
    readme = _basis_poly(None, 1, 0)
    readme = (oracle.add(oracle.one(Fraction(0)), oracle.basis(3, Fraction(0))),) + readme[1:]
    j = oracle.basis(2, Fraction(0))
    cases = [
        golden,
        Case("lev", STANDARD, True, readme, "z^2 + i*z + (1 + k)", lam=j, lam_literal="j", label="README eigen left"),
    ]
    for params, degree, monic in CLI_SOLVES:
        for _ in range(CLI_SOLVE_INSTANCES):
            coeffs, lam = planted_exact(rng, params, degree, monic)
            label = "cli %s deg%d %s solve" % (params[0], degree, "monic" if monic else "nonmonic")
            cases.append(solve_case(params, coeffs, lam, True, label))
    for params, degree in CLI_EIGEN:
        for _ in range(CLI_EIGEN_POLYS):
            coeffs, lam = planted_exact(rng, params, degree, True)
            for source, x in eigen_lambdas(rng, coeffs, lam, params)[::3]:
                for kind in ("lev", "rev"):
                    label = "cli %s deg%d %s %s" % (params[0], degree, source, kind)
                    cases.append(eigen_case(kind, params, coeffs, x, label))
    coeffs, lam = planted_float(rng, STANDARD, 3)
    cases.append(solve_case(STANDARD, coeffs, lam, False, "cli -1 deg3 float solve"))
    return cases


def library_cases(rng):
    """Exact solves, float solves and exact eigen tests, shuffled into one
    round so that a drift of the machine's speed within a run touches every
    kind of operation alike."""
    cases = solve_exact_cases(rng) + solve_float_cases(rng) + eigen_cases(rng)
    rng.shuffle(cases)
    return cases


WORKLOADS = {"library": library_cases, "cli": cli_cases}
