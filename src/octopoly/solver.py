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

from .algebra import SPLIT, Octonion, OctonionAlgebra
from .central import ClassCandidate, central_roots
from .errors import NumericFailureError, SingularElementError, UnsupportedAlgebraError
from .polynomials import StandardPolynomial, companion, eval_at, power_weights, reduce_to_linear

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
    """Substitute and test for zero: exactly in exact mode, zero-at-scale
    with scale sum_i ||c_i|| * ||lam||^i (max-coordinate norms) in float."""
    value = eval_at(phi, lam)

    def scale():
        lam_mag = lam.max_abs()
        return sum(m * lam_mag**i for i, m in enumerate(phi.magnitudes))

    return value.is_zero(scale)


def class_embeds(algebra: OctonionAlgebra, norm, trace) -> bool:
    """Does the field-degree-2 class z^2 = trace z - norm meet the algebra?

    Its members are trace/2 + u with u pure of norm s = norm - trace^2/4.
    The pure norm form <q_1..q_7> has dimension 7, so by Hasse-Minkowski it
    represents s != 0 iff some q_k has the sign of s.  In a division algebra
    every q_k is positive, and this is trace^2 < 4 norm.  Exact mode decides
    it on numerators.
    """
    return algebra.backend.embeds(trace, norm)


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
    if not class_embeds(algebra, norm, trace):
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


def _invariants_match(lam: Octonion, trace, norm):
    """Has lam the trace and norm, each at the scale of the larger side?
    Both sides are compared as (a, b, d), trace a/d and norm b/d^2: on ints
    in exact mode, and with d = 1 in float mode."""
    backend, mag = lam.algebra.backend, lam.max_abs
    a, b, d = backend.cleared_invariants(lam.vec)
    ta, tb, td = backend.clear_denominators(trace, norm)
    return backend.is_zero(
        a * td - ta * d, lambda: max(1.0, abs(trace), mag())
    ) and backend.is_zero(b * td * td - tb * d * d, lambda: max(1.0, abs(norm), mag() * mag()))


def resolve_class(phi: StandardPolynomial, cand: ClassCandidate) -> ClassResolution:
    """Resolve one companion-class candidate against phi.

    Degenerate classes (field_degree 1) are singletons {trace/2} in a
    division algebra and are tested by direct substitution.  A class that
    the algebra's norm form cannot represent (trace^2 >= 4 norm in a
    division algebra) is not embeddable.  Otherwise the class reduces phi
    to E z + G: E = G = 0 roots the whole class (witness
    looked up and verified), E = 0 != G leaves an empty class (possible only
    through float drift), and invertible E pins the unique representative
    -E^-1 G, emitted only if substitution and the invariants check out.
    One ``power_weights`` pass gives both E and G and their zero scales.
    """
    alg = phi.algebra
    trace = alg.scalar(cand.trace)
    norm = alg.scalar(cand.norm)
    if cand.field_degree == 1:
        lam = alg.scalar_octonion(trace / 2)
        if verify_root(phi, lam):
            return ClassResolution(SINGLE_ROOT, root=lam)
        return ClassResolution(NO_ROOT_IN_CLASS)
    if not class_embeds(alg, norm, trace):
        return ClassResolution(NOT_EMBEDDABLE)
    weights = power_weights(*alg.backend.clear_denominators(trace, norm), phi.degree)
    red = reduce_to_linear(phi, norm, trace, weights)

    def scale(k):
        """Magnitude the sum E (k = 0) or G (k = 1) lives at (float mode)."""
        return lambda: sum(m * abs(w) for m, w in zip(phi.magnitudes, weights[k]))

    if red.E.is_zero(scale(0)):
        if red.G.is_zero(scale(1)):
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
    if verify_root(phi, lam) and _invariants_match(lam, trace, norm):
        return ClassResolution(SINGLE_ROOT, root=lam)
    return ClassResolution(NOT_EMBEDDABLE)


def solve(phi: StandardPolynomial) -> RootReport:
    """Find all roots of a nonconstant polynomial over a division algebra.

    Split algebras are rejected outright, so Phi of degree below 2n means
    float64 lost Norm(c_n) > 0.  The companion polynomial's class candidates
    are resolved independently and in order; resolve_class emits a root or
    witness only after its one substitution check.
    """
    if phi.degree < 1:
        raise ValueError("solve needs a polynomial of degree >= 1")
    alg = phi.algebra
    check = alg.division_check()
    if check.status == SPLIT:
        why = (
            "its norm form is indefinite"
            if check.witness is None
            else "isotropic witness %r" % (check.witness,)
        )
        raise UnsupportedAlgebraError(
            "the algebra is split (%s); roots are only classified over "
            "division algebras" % why
        )
    Phi = companion(phi)
    if Phi.degree < 2 * phi.degree:
        raise NumericFailureError(
            "float64 underflow: the norm of the leading coefficient is 0, "
            "so the companion polynomial has degree %d < %d" % (Phi.degree, 2 * phi.degree)
        )
    found = central_roots(Phi, tol=alg.tol)
    warnings = list(found.warnings)
    if found.discarded_degree:
        warnings.append(
            "discarded closure roots spanning degree %d (field degree > 2)"
            % found.discarded_degree
        )
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
