"""Exception taxonomy shared by the whole package.

The CLI maps these onto its exit codes: ParameterError and
InvalidInputError -> 2, PreconditionError -> 3, NumericFailureError -> 4.
"""

from numbers import Integral


class AmmError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(AmmError):
    """A parameter is outside its documented range."""


class InvalidInputError(AmmError):
    """Input data is malformed (non-square, non-finite, off-domain, ...)."""


class PreconditionError(AmmError):
    """A mathematical precondition (accretivity, Hermitianity) fails."""


class NumericFailureError(AmmError):
    """An iteration or cross-check did not reach its accuracy contract."""


class SingularMatrixError(NumericFailureError):
    """Linear solve hit a negligible pivot.

    Carries the index of the failing pivot in ``pivot_index``.
    """

    def __init__(self, pivot_index: int, message: str | None = None):
        self.pivot_index = pivot_index
        super().__init__(message or f"singular matrix: pivot {pivot_index} is negligible")


def integer(value, name: str):
    """value, refused with ParameterError unless an integer: a float or a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return value
