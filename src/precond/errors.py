"""Exception hierarchy shared across the package."""


class PrecondError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInputError(PrecondError):
    """An input matrix or vector contains NaN or infinite entries."""


class DimensionMismatchError(PrecondError):
    """Operands have incompatible shapes."""


class SingularMatrixError(PrecondError):
    """A matrix required to be nonsingular is singular to working precision."""


class DefinitenessError(PrecondError):
    """A matrix required to be positive definite is not."""

    def __init__(self, message, offending_eigenvalue=None):
        super().__init__(message)
        self.offending_eigenvalue = offending_eigenvalue


class AssumptionViolationError(PrecondError):
    """Numeric evidence contradicts a structural assumption (e.g. strong convexity)."""


class BoundInapplicableError(PrecondError):
    """The preconditions of a bound do not hold for the supplied constants."""


class ZeroVarianceError(PrecondError):
    """A series has zero variance, as a chain that never moved does."""


class ModeSearchError(PrecondError):
    """Mode finding failed to converge within the iteration cap."""


class ModelFileError(PrecondError):
    """A model file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
