"""Exception hierarchy shared across the package."""


class FinfactorError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(FinfactorError):
    """Operands do not share one ambient dimension."""


class DimensionOverflow(FinfactorError):
    """A construction would exceed the configured ambient-dimension cap, or
    an array that a unit-system builder (k^2 n^2 entries), generate or
    commutant (n^4 entries) would allocate would pass the 1 GiB byte budget
    of complex entries (matrix_core.check_array_budget)."""


class NotSelfAdjoint(FinfactorError):
    """Input fails the self-adjointness residual check."""


class NotDivisible(FinfactorError):
    """A required divisibility constraint (k | n, r | rank) fails."""


class UnknownStrategy(FinfactorError):
    """Unrecognized search strategy name."""


class SizeMismatch(FinfactorError):
    """Families or systems of different sizes were combined."""


class SystemTooSmall(FinfactorError):
    """The matrix-unit system is too small for the requested construction."""


class SupportMismatch(FinfactorError):
    """Chained unit systems fail the nesting support precondition, or
    family_from_units gets a system that is not full or whose column runs
    are off unitary."""


class FactorTooSmall(FinfactorError):
    """A tensor factor dimension is below the minimum of 3."""


class IndexTooLarge(FinfactorError):
    """The measured interaction index violates the compression precondition."""


class SupportTooLarge(FinfactorError):
    """No diagonal unit is disjoint from the projection's support."""


class NumericalFailure(FinfactorError):
    """A constructed object failed its structural verification."""


class InconsistentAssignment(FinfactorError):
    """A compression assignment is malformed or out of range."""


class FileFormatError(FinfactorError):
    """A matrix or report file does not match the documented JSON format."""
