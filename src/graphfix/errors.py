"""Exception types shared across the package, and the numeric parameter
checks that raise them."""

import math
import numbers


class InputError(ValueError):
    """Malformed or out-of-range input: unknown labels, bad files, invalid parameters."""


class DomainError(ValueError):
    """Operation applied outside its mathematical domain (empty sets, a rate >= 1, ...)."""


def check_real(value, name: str) -> float:
    """``value`` as a float; InputError unless it is a finite real number
    (not a bool, NaN or an infinity)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        raise InputError(f"{name} is too large for a float") from None
    if not math.isfinite(x):
        raise InputError(f"{name} must be a finite number, got {value!r}")
    return x


def check_nonnegative(value, name: str) -> float:
    """``value`` as a float; InputError unless it is a finite real >= 0."""
    x = check_real(value, name)
    if x < 0:
        raise InputError(f"{name} must be nonnegative")
    return x


def check_integer(value, name: str) -> int:
    """``value`` as an int; InputError unless it is an integral real number,
    so 40.0 is accepted as 40."""
    if not check_real(value, name).is_integer():
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)
