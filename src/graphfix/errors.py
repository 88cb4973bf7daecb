"""Exception types shared across the package, the numeric parameter
checks that raise them, and :func:`brief`, the repr of every input value
an error message echoes."""

import math
import numbers
import reprlib

# Containers show their first level only, and long strings and numbers are
# cut in the middle, so that no echoed value grows past about 110
# characters (a dict of two long entries) however large or deep it is.
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 1
_BRIEF.maxdict = 2
_BRIEF.maxlist = _BRIEF.maxtuple = _BRIEF.maxset = _BRIEF.maxfrozenset = 3
_BRIEF.maxdeque = _BRIEF.maxarray = 3
_BRIEF.maxstring = _BRIEF.maxlong = _BRIEF.maxother = 24


class InputError(ValueError):
    """Malformed or out-of-range input: unknown labels, bad files, invalid parameters."""


class DomainError(ValueError):
    """Operation applied outside its mathematical domain (empty sets, a rate >= 1, ...)."""


def brief(value) -> str:
    """The repr of an input value as an error message shows it: the
    builtin repr of short values, and an abbreviation of the others."""
    return _BRIEF.repr(value)


def check_labels(labels, name: str):
    """``labels`` as given; InputError for a bare string or bytes, which
    would otherwise be read as the collection of its characters."""
    if isinstance(labels, (str, bytes)):
        raise InputError(f"{name} takes labels, not the string {brief(labels)}")
    return labels


def check_real(value, name: str) -> float:
    """``value`` as a float; InputError unless it is a finite real number
    (not a bool, NaN or an infinity)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a number, got {brief(value)}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        raise InputError(f"{name} is too large for a float") from None
    if not math.isfinite(x):
        raise InputError(f"{name} must be a finite number, got {brief(value)}")
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
        raise InputError(f"{name} must be an integer, got {brief(value)}")
    return int(value)
