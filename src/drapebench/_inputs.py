"""The one rule for a number, an integer, a flag or an array that comes from outside.

A number is a numbers.Real other than a bool (JSON's true is a bool, which
is an int) and finite; its range is written so that a NaN fails, and it is
bounded by the largest float, which Python compares with an int exactly. An
integer is a Python int other than a bool; a flag is True or False. A check
names the field and the value and converts nothing, so a config hashes as
written.

An array is numbers (finite, read as float64), indices (whole numbers in
[0, bound), read as int64) or a mask (booleans), of its shape. A nested list,
or an ndarray of another dtype, is scanned before it is converted, so a bool
among numbers, a number among booleans, a string or a None is refused by its
index, and a ragged list by the first entry whose length differs; an ndarray
of the wanted dtype, as the engine builds them, is not scanned.
"""

import numbers
import sys

import numpy as np

_LARGEST = sys.float_info.max
_NESTED = (list, tuple, np.ndarray)
_FLAGS = (bool, np.bool_)


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


def array(name: str, value, shape: tuple | None) -> np.ndarray:
    """value as a float64 array of `shape` (None: any); an entry that is not a finite number is refused.

    The conversion is np.asarray's with dtype=float, so an array that is
    already float64 comes back as itself.
    """
    a = np.asarray(_entries(name, value, "numbers", shape), dtype=float)
    if not np.isfinite(a).all():
        bad = tuple(np.argwhere(~np.isfinite(a))[0].tolist())
        raise ValueError(f"{name} must be finite; entry {list(bad)} is {a[bad]}")
    return a


def indices(name: str, value, bound: int, shape: tuple) -> np.ndarray:
    """value as an int64 array of `shape` of whole numbers in [0, bound); a cast alone would read 1.7 as 1."""
    a = _entries(name, value, "integers", shape)
    bad = (a < 0) | (a >= bound) | ((a != np.trunc(a)) if a.dtype.kind == "f" else False)
    if bad.any():
        at = tuple(np.argwhere(bad)[0].tolist())
        raise ValueError(f"{name} must hold integers in [0, {bound}); entry {list(at)} is {a[at]}")
    return np.asarray(a, dtype=np.int64)


def mask(name: str, value, shape: tuple | None = None) -> np.ndarray:
    """value as a bool array, of `shape` if one is given; 0, 1 and 0.5 are not booleans."""
    return _entries(name, value, "booleans", shape)


def _entries(name: str, value, what: str, shape: tuple | None) -> np.ndarray:
    """value as an array of `shape` (None: any) of booleans if `what` says so, else of numbers.

    A value that is not an ndarray of such a dtype is first scanned as an
    object array, one type at a time: an entry is a bool (Python's or
    numpy's) exactly when booleans are wanted, and otherwise a numbers.Real."""
    flags = what == "booleans"
    kinds = "b" if flags else "iuf"
    if not (isinstance(value, np.ndarray) and value.dtype.kind in kinds):
        try:
            cells = np.array(value, dtype=object)
            types = set(map(type, cells.flat))
        except ValueError:  # entries whose shapes numpy cannot stack even as objects
            types = {list}
        if any(issubclass(t, _NESTED) for t in types):
            raise ValueError(f"{name} must hold {what}, got a ragged list{_uneven(value)}")
        wrong = {t for t in types if issubclass(t, _FLAGS) != flags or not issubclass(t, (numbers.Real, *_FLAGS))}
        if wrong:
            at = next(i for i, c in enumerate(cells.flat) if type(c) in wrong)
            where = f"; entry {[int(i) for i in np.unravel_index(at, cells.shape)]} is" if cells.ndim else ", got"
            raise ValueError(f"{name} must hold {what}{where} {cells.flat[at]!r}")
    a = np.asarray(value)
    if a.dtype.kind not in kinds:
        raise ValueError(f"{name} must hold {what}, got {a.dtype} entries")
    if shape is not None and a.shape != shape and (
        a.ndim != len(shape) or any(w not in (None, g) for g, w in zip(a.shape, shape))
    ):
        raise ValueError(f"{name} has shape {a.shape}, expected {str(shape).replace('None', 'any')}")
    return a


def _uneven(value) -> str:
    """Where a ragged list goes wrong: level by level, the first entry whose
    length is not that of the level's first entry."""
    level = [((), value)]
    while True:
        lengths = [f"length {len(v)}" if isinstance(v, (list, tuple)) or getattr(v, "ndim", 0) else "no length"
                   for _, v in level]
        for (at, _), n in zip(level, lengths):
            if n != lengths[0]:
                return f"; entry {list(at)} has {n} where entry {list(level[0][0])} has {lengths[0]}"
        if lengths[0] == "no length":
            return ""
        level = [(at + (i,), entry) for at, v in level for i, entry in enumerate(v)]
