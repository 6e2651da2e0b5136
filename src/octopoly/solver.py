"""End-to-end root finding for standard polynomials over a division algebra.

Every class candidate of the companion polynomial is resolved into exactly
one of: a single root (the generic case), a full conjugacy class of roots, a
degenerate empty class, a non-embeddable class, or an honest "undetermined".
Nothing is emitted on the strength of the theory alone -- every root and
witness is verified by substitution, once, in ``resolve_class``, before it
enters the report.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .algebra import SPLIT, Octonion, OctonionAlgebra, has_invariants
from .central import ClassCandidate, central_roots
from .errors import NumericFailureError, SingularElementError, UnsupportedAlgebraError
from .polynomials import StandardPolynomial, companion, eval_at, reduce_to_linear

SINGLE_ROOT = "single_root"
FULL_CLASS = "full_class"
NO_ROOT_IN_CLASS = "no_root_in_class"
NOT_EMBEDDABLE = "not_embeddable"
UNDETERMINED = "undetermined"

_WITNESS_HEIGHT = 50


class ClassResolution(
    namedtuple("ClassResolution", "status root witness reason", defaults=(None,) * 3)
):
    """How one (trace, norm) candidate meets the root set.

    ``root`` (an :class:`Octonion`) is set for single_root, ``witness`` for
    full_class (a verified member of the class), ``reason`` (a str) for
    undetermined; each is None otherwise.
    """

    __slots__ = ()


class RootReport(
    namedtuple(
        "RootReport",
        "algebra polynomial companion classes roots full_classes mode tolerance warnings",
    )
):
    """Everything solve() found: the algebra and polynomial, the companion
    polynomial, one resolution per class candidate as ``classes =
    ((ClassCandidate, ClassResolution), ...)``, the verified single roots in
    class order, one ``(trace, norm, witness)`` per fully-rooted class, the
    mode, the tolerance and any warnings.  The report is the complete root
    set whenever no resolution is undetermined."""

    __slots__ = ()


def verify_root(phi: StandardPolynomial, lam: Octonion) -> bool:
    """Substitute and test for zero: exactly in exact mode, and in float mode
    at scale sum_i nu(c_i) nu(lam)^i, which bounds the backward error of lam
    since the norm nu is multiplicative (Higham 2002, ch. 5)."""
    value = eval_at(phi, lam)

    def scale():
        lam_mag = lam.magnitude()
        return sum(m * lam_mag**i for i, m in enumerate(phi.magnitudes))

    return value.is_zero(scale)


def class_witness(algebra: OctonionAlgebra, norm, trace):
    """An element with the given invariants, or None if none was found.

    The witness is trace/2 + u with u pure of norm s = norm - trace^2/4.
    Each pure basis direction is tried first, with the backend's square root
    (over the reals, in float mode, this finds a witness whenever one
    exists); then two-direction combinations with numerators and
    denominators up to height 50, searching each binary form
    q_a x^2 + q_b y^2 once; then equal coordinates
    t = sqrt(s / sum_{k in S} q_k) on subsets S of 2-7 pure directions.
    Absence is a legal return -- the caller decides how to report it.
    """
    norm = algebra.scalar(norm)
    trace = algebra.scalar(trace)
    half_t = trace / 2
    s = norm - half_t * half_t
    q = algebra.norm_coeffs

    def witness(parts):
        coords = [half_t] + [algebra._zero] * 7
        for k, x in parts:
            coords[k] = x
        return algebra.octonion(coords)

    if algebra.backend.is_zero(s, lambda: max(1.0, abs(norm), trace * trace)):
        return witness(())
    for k in range(1, 8):
        r = algebra.backend.sqrt(s / q[k])
        if r is not None:
            return witness([(k, r)])
    if not algebra.backend.embeds(trace, norm):
        return None
    tried = set()  # binary forms (q_a, q_b) already searched in vain
    for a, b in itertools.combinations(range(1, 8), 2):
        if (q[a], q[b]) in tried:
            continue
        tried.add((q[a], q[b]))
        for den in range(1, _WITNESS_HEIGHT + 1):
            for num in range(1, _WITNESS_HEIGHT + 1):
                t_a = Fraction(num, den)
                if t_a.numerator != num:
                    continue  # not in lowest terms; already tried
                rest = (s - q[a] * t_a * t_a) / q[b]
                t_b = algebra.backend.sqrt(rest)
                if t_b is not None:
                    return witness([(a, t_a), (b, t_b)])
    for size in range(2, 8):
        for subset in itertools.combinations(range(1, 8), size):
            t = algebra.backend.sqrt(s / sum(q[k] for k in subset))
            if t is not None:
                return witness((k, t) for k in subset)
    return None


def resolve_class(phi: StandardPolynomial, cand: ClassCandidate) -> ClassResolution:
    """Resolve one companion-class candidate against phi.

    Degenerate classes (field_degree 1) are singletons {trace/2} in a
    division algebra and are tested by direct substitution.  A class that
    the algebra's norm form cannot represent (trace^2 >= 4 norm in a
    division algebra) is not embeddable.  Otherwise the class reduces phi
    to E z + G: E = G = 0 roots the whole class (witness looked up and
    verified), E = 0 != G leaves an empty class (possible only through float
    drift), and invertible E pins the unique representative -E^-1 G, emitted
    only if substitution and the invariants check out, else undetermined
    (the class embeds, so it is never reported not embeddable).  E = 0 and
    G = 0 are the reduction's ``vanishes`` tests: exact in exact mode, at
    the scale sum_i nu(c_i) |w_i| of their weights in float mode.
    """
    alg = phi.algebra
    trace = alg.scalar(cand.trace)
    norm = alg.scalar(cand.norm)
    if cand.field_degree == 1:
        lam = alg.scalar_octonion(trace / 2)
        if verify_root(phi, lam):
            return ClassResolution(SINGLE_ROOT, root=lam)
        return ClassResolution(NO_ROOT_IN_CLASS)
    if not alg.backend.embeds(trace, norm):
        return ClassResolution(NOT_EMBEDDABLE)
    red = reduce_to_linear(phi, norm, trace)
    if red.vanishes(phi, 0):
        if red.vanishes(phi, 1):
            witness = class_witness(alg, norm, trace)
            if witness is None:
                return ClassResolution(
                    UNDETERMINED,
                    reason="no class witness found at height %d" % _WITNESS_HEIGHT,
                )
            if verify_root(phi, witness):
                return ClassResolution(FULL_CLASS, witness=witness)
            return ClassResolution(
                UNDETERMINED,
                reason="class witness failed root verification (numeric drift)",
            )
        return ClassResolution(NO_ROOT_IN_CLASS)
    try:
        lam = -(red.E.inverse() * red.G)
    except SingularElementError:
        return ClassResolution(
            UNDETERMINED, reason="reduced E is numerically singular (numeric drift)"
        )
    if verify_root(phi, lam) and has_invariants(lam, trace, norm):
        return ClassResolution(SINGLE_ROOT, root=lam)
    return ClassResolution(
        UNDETERMINED, reason="root -E^-1 G failed verification (numeric drift)"
    )


def solve(phi: StandardPolynomial) -> RootReport:
    """Find all roots of a nonconstant polynomial over a division algebra.

    Split algebras (some of alpha, beta, gamma positive) are rejected
    outright, naming the positive parameters, so Phi of degree below 2n (or
    Phi = 0) means float64 lost Norm(c_n) > 0.  The companion polynomial's
    class candidates are resolved independently and in order; resolve_class
    emits a root or witness only after its one substitution check.
    """
    if phi.degree < 1:
        raise ValueError("solve needs a polynomial of degree >= 1")
    alg = phi.algebra
    if alg.division_check() == SPLIT:
        params = zip(("alpha", "beta", "gamma"), (alg.alpha, alg.beta, alg.gamma))
        positive = ", ".join("%s = %s > 0" % p for p in params if p[1] > 0)
        raise UnsupportedAlgebraError(
            "the algebra is split (%s, so its norm form is indefinite); roots "
            "are only classified over division algebras" % positive
        )
    try:
        Phi = companion(phi)
    except ValueError:  # every companion coefficient underflowed to 0
        Phi = None
    if Phi is None or Phi.degree < 2 * phi.degree:
        lost = "is 0" if Phi is None else "has degree %d < %d" % (Phi.degree, 2 * phi.degree)
        raise NumericFailureError(
            "float64 underflow: the norm of the leading coefficient is 0, "
            "so the companion polynomial %s" % lost
        )
    found = central_roots(Phi, tol=alg.tol)
    warnings = list(found.warnings)
    classes = []
    roots = []
    full_classes = []
    for cand in found.candidates:
        res = resolve_class(phi, cand)
        classes.append((cand, res))
        if res.status == SINGLE_ROOT:
            roots.append(res.root)
        elif res.status == FULL_CLASS:
            full_classes.append((cand.trace, cand.norm, res.witness))
        elif res.status == NO_ROOT_IN_CLASS:
            warnings.append(
                "class (trace=%s, norm=%s) resolved to an empty class; this "
                "cannot happen for genuine companion classes and usually "
                "signals numeric drift" % (cand.trace, cand.norm)
            )
        elif res.status == UNDETERMINED:
            warnings.append(
                "class (trace=%s, norm=%s) undetermined: %s"
                % (cand.trace, cand.norm, res.reason)
            )
    return RootReport(
        algebra=alg,
        polynomial=phi,
        companion=Phi,
        classes=tuple(classes),
        roots=tuple(roots),
        full_classes=tuple(full_classes),
        mode=alg.mode,
        tolerance=alg.tol,
        warnings=tuple(warnings),
    )
