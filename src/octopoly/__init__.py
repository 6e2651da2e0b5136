"""Roots of standard polynomials over octonion division algebras.

The package implements exact-rational and float64 arithmetic in the octonion
algebra (alpha, beta, gamma), the central companion polynomial whose closure
roots enumerate the conjugacy classes of roots, a complete class-by-class
solver, and decision procedures for left/right eigenvalues of the companion
matrix of a monic polynomial.  A CLI (``octopoly solve`` / ``octopoly
eigen``) fronts the same machinery with JSON reports.
"""

import types

from .algebra import (
    DIVISION,
    SPLIT,
    Octonion,
    OctonionAlgebra,
    bilinear_form,
    conjugator,
    same_class,
)
from .central import (
    CentralRoots,
    ClassCandidate,
    ExactFactorization,
    central_roots,
    exact_quadratic_factors,
    numeric_roots,
)
from .eigen import (
    CompanionMatrix,
    MembershipReport,
    Side,
    companion_matrix,
    lev_test,
    lev_class_point,
    rev_classes,
    rev_class_point,
    rev_test,
    subalgebra_lev_check,
    verify_eigen_pair,
)
from .errors import (
    ConfigurationError,
    NumericFailureError,
    OctopolyError,
    ParseError,
    SingularElementError,
    UnsupportedAlgebraError,
)
from .literals import format_octonion, format_polynomial, parse_octonion, parse_polynomial
from .polynomials import (
    CentralPolynomial,
    ReducedLinearForm,
    StandardPolynomial,
    companion,
    eval_at,
    reduce_to_linear,
)
from .scalars import EXACT, FLOAT, ToleranceSpec
from .solver import (
    FULL_CLASS,
    NO_ROOT_IN_CLASS,
    NOT_EMBEDDABLE,
    SINGLE_ROOT,
    UNDETERMINED,
    ClassResolution,
    RootReport,
    class_witness,
    resolve_class,
    solve,
    verify_root,
)

__version__ = "0.1.0"

# every name imported above, and no submodule
__all__ = [k for k, v in globals().items() if k[0] != "_" and not isinstance(v, types.ModuleType)]
