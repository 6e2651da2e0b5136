"""Exception types shared across the package."""


class OctopolyError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(OctopolyError):
    """Operands belong to different algebras or the parameters are invalid."""


class SingularElementError(OctopolyError):
    """Inversion of zero or of a norm-isotropic element was requested."""


class UnsupportedAlgebraError(OctopolyError):
    """The requested operation needs a division algebra but got a split one."""


class NumericFailureError(OctopolyError):
    """The float root finder failed its residual certificate, a root
    cluster and its mirror below the real axis differ in size, or a float
    companion coefficient, class invariant or combination scalar left the
    float64 range (overflow, or a leading norm underflowed to 0)."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = tuple(residuals or ())


class ParseError(OctopolyError):
    """Malformed octonion or polynomial literal."""

    def __init__(self, message, text=None, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.text = text
        self.pos = pos
