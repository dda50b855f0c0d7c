"""Exception hierarchy shared across the package.

The command line front end maps these onto exit codes: validation
problems exit with 2, I/O problems with 3, numerical failures with 4.
"""

__all__ = [
    "DephasimError",
    "ValidationError",
    "NumericalError",
    "QuadratureError",
    "FitError",
]


class DephasimError(Exception):
    """Base class for all package errors."""


class ValidationError(DephasimError, ValueError):
    """An input violates a domain invariant (range, positivity, shape)."""


class NumericalError(DephasimError, ArithmeticError):
    """A computation produced a non-finite or inconsistent result."""


class QuadratureError(NumericalError):
    """An integral's error estimate exceeds its tolerance."""

    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate


class FitError(DephasimError, ValueError):
    """Not enough usable points for a least-squares fit."""
