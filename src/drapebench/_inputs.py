"""The one rule for a number, an integer or a flag that comes from outside.

A number is a numbers.Real other than a bool (JSON's true is a bool, which
is an int) and finite; its range is written so that a NaN fails. An integer
is a Python int other than a bool; a flag is True or False. A check names
the field and the value and converts nothing, so a config hashes as written.
"""

import math
import numbers


def positive(name: str, value) -> None:
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def non_negative(name: str, value) -> None:
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
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
