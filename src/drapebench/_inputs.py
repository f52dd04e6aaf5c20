"""The one rule for a number, an integer, a flag or an array that comes from outside.

A number is a numbers.Real other than a bool (JSON's true is a bool, which
is an int) and finite; its range is written so that a NaN fails, and it is
bounded by the largest float, which Python compares with an int exactly. An
integer is a Python int other than a bool; a flag is True or False. A check
names the field and the value and converts nothing, so a config hashes as
written. An array holds integers or floats, has the expected shape and is
finite; it is the one check that converts, to float64.
"""

import numbers
import sys

import numpy as np

_LARGEST = sys.float_info.max


def positive(name: str, value) -> None:
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value <= _LARGEST):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def non_negative(name: str, value) -> None:
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 <= value <= _LARGEST):
        raise ValueError(f"{name} must be non-negative and finite, got {value!r}")


def integer(name: str, value, minimum: int | None = None) -> None:
    """Refuse anything but an integer, or one below `minimum` if given."""
    if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")


def integers(name: str, values) -> None:
    """Refuse a sequence that holds anything but integers, naming each intruder."""
    intruders = [repr(v) for v in values if isinstance(v, bool) or not isinstance(v, int)]
    if intruders:
        raise ValueError(f"{name} must be integers, got {', '.join(intruders)}")


def flag(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def array(name: str, value, shape: tuple) -> np.ndarray:
    """value as a float64 array of `shape`, where None is a free length.

    A bool, string or object array, a ragged list, another shape or an entry
    that is not finite is refused; the conversion is np.asarray's with
    dtype=float, so an array that is already float64 comes back as itself.
    """
    try:
        a = np.asarray(value)
    except ValueError:
        raise ValueError(f"{name} must hold numbers, got a ragged list") from None
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers, got {a.dtype} entries")
    a = np.asarray(a, dtype=float)
    if a.shape != shape and (a.ndim != len(shape) or any(w not in (None, g) for g, w in zip(a.shape, shape))):
        raise ValueError(f"{name} has shape {a.shape}, expected {str(shape).replace('None', 'any')}")
    if not np.isfinite(a).all():
        bad = tuple(np.argwhere(~np.isfinite(a))[0].tolist())
        raise ValueError(f"{name} must be finite; entry {list(bad)} is {a[bad]}")
    return a
