"""Exception hierarchy shared across the package.

The command line front end maps these onto exit codes: validation
problems exit with 2, I/O problems with 3, numerical failures with 4.

Every scalar argument is checked by one of two functions here: _real,
for a finite real number within bounds, and _integer, for an integral
one.  Both raise ValidationError naming the argument.
"""

import math
import numbers

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


def _real(x, name, low=-math.inf, high=math.inf, what="finite"):
    """float(x), if x is a real number, finite and in [low, high]; else ValidationError.

    An int too large for a float is out of range.  low = math.ulp(0.0)
    asks for x > 0.
    """
    # float first: it is most x, and the numbers.Real check alone takes ~0.4 us
    if not isinstance(x, (float, numbers.Real)):
        raise ValidationError("%s must be a real number, got %r" % (name, x))
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not (low <= value <= high and math.isfinite(value)):
        raise ValidationError("%s must be %s, got %r" % (name, what, x))
    return value


def _integer(x, name):
    """x as an int, if it is integral (3.0 and numpy integers are); else ValidationError."""
    if not isinstance(x, numbers.Integral) and not (
        isinstance(x, numbers.Real) and float(x).is_integer()
    ):
        raise ValidationError("%s must be an integer, got %r" % (name, x))
    return int(x)
