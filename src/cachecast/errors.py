"""Exception hierarchy shared across the package, and the two input checks
every module uses: integers in a range, and positive finite reals.

The CLI maps these onto process exit codes: parameter errors exit with 2,
numeric errors with 3, validation failures with 1.
"""

import math

import numpy as np


class CachecastError(Exception):
    """Base class for all package errors."""


class ParameterError(CachecastError, ValueError):
    """An argument violates a documented precondition or domain."""


class NumericsError(CachecastError, ArithmeticError):
    """A numerical routine exhausted its accuracy budget or produced
    a non-finite result. The message carries the achieved residual."""


class UnboundedDelayError(NumericsError):
    """A served user has zero instantaneous rate, so its delivery never
    completes under the fluid service model."""


def check_int(value, name, minimum=1, maximum=None) -> int:
    """value as an int; ParameterError unless it is a Python or numpy
    integer (not a float, even an integral one) in [minimum, maximum]."""
    if (not isinstance(value, (int, np.integer)) or value < minimum
            or (maximum is not None and value > maximum)):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ParameterError(f"{name} must be an integer {bound}, got {value}")
    return int(value)


def check_positive(value, name) -> float:
    """value as a float; ParameterError unless it is positive and finite
    (NaN fails both comparisons)."""
    if not 0 < value < math.inf:
        raise ParameterError(f"{name} must be positive and finite, got {value}")
    return float(value)
