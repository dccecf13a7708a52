"""The library's input rules, one function each, in one leaf module.

Seeds, counts, real numbers and typed arguments (enum choices, random
streams, batches, specs, networks, gradients) enter the library by one rule
each: ``_check_seed``, ``_count`` with its whole-number test ``_is_whole``,
``_real`` and ``_member``.  Ids enter as int64 by ``_as_int64`` and
``_as_pairs``, are checked in int64 and kept on the grid by
``_check_on_grid``; ``data.Rows`` then holds them as int32, after its own
int32 check, and every key formed from them is widened first; a batch's
parallel columns are shaped by ``_check_columns``, its labels by
``_check_labels`` and its probabilities by ``_check_unit_interval``.  Every
rule raises a ``ValueError`` that names the argument, or the row of the
first bad entry.

Every module imports its rules from here and from nowhere else, so no
module imports another only to reach a rule; this module imports only
``numbers`` and numpy.  A rule that serves one module stays in that module.
"""

from __future__ import annotations

import numbers

import numpy as np


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry of ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _check_seed(seed) -> int:
    """The one seed rule: ``seed`` as an int in [0, 2**64); a bool, float or string fails."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def _is_whole(v) -> bool:
    """The one whole-number test: a real number within int64 with no fractional part."""
    return isinstance(v, numbers.Real) and -2**63 <= v < 2**63 and v % 1 == 0


def _count(value, name: str, low: int = 1) -> int:
    """The one count rule: ``value`` as an int if it is a whole number >= ``low``; 64.0 passes."""
    if isinstance(value, bool) or not _is_whole(value):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def _real(value, name: str, low=-np.inf, high=np.inf, low_closed=False) -> float:
    """The one real-number rule: ``value`` as a float if it is a finite real in (low, high),
    or in [low, high) with ``low_closed``; a bool, a string and NaN fail.  The float is
    what is checked, so an int beyond the float range fails here, naming ``name``."""
    try:
        real = (float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool)
                else np.nan)
    except OverflowError:
        real = np.nan
    if not (low <= real if low_closed else low < real) or not -np.inf < real < high:
        interval = f"{'[' if low_closed else '('}{low:g}, {high:g})"
        raise ValueError(f"{name} must be a finite real in {interval}, got {value!r}")
    return real


def _member(value, name: str, *kinds: type):
    """The one choice rule: ``value`` if it is an instance of one of ``kinds``, enums or any
    other classes such as ``RngStream``; no string is coerced, no look-alike passes, and the
    message says each class name once (numpy 2 names ``np.bool_`` "bool", as ``bool`` is)."""
    if not isinstance(value, kinds):
        names = dict.fromkeys(k.__name__ for k in kinds)
        raise ValueError(f"{name} must be a {' or '.join(names)}, got {value!r}")
    return value


def _as_int64(values, what: str) -> np.ndarray:
    """``values`` as int64, naming the row of the first entry that is not a whole number
    within int64.  Input of a dtype that casts safely to int64 pays only that test."""
    arr = np.asarray(values)
    if not np.can_cast(arr.dtype, np.int64):
        # As objects, a mixed list keeps its entries rather than numpy's common type.
        for k, v in enumerate(np.asarray(values, dtype=object).reshape(-1).tolist()):
            if not _is_whole(v):
                raise ValueError(f"row {k // arr.shape[1] if arr.ndim == 2 else k}: "
                                 f"{what} {v!r} is not an integer within int64")
    return arr.astype(np.int64, copy=False)


def _as_pairs(pairs) -> np.ndarray:
    """(user, item) pairs as an int64 array shaped (n, 2); ``[]`` is n = 0."""
    arr = np.asarray(pairs)
    if arr.shape == (0,):
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"pairs must have shape (n, 2), got {arr.shape}")
    return _as_int64(arr, "pair id")


def _check_on_grid(users: np.ndarray, items: np.ndarray, n_users: int, n_items: int) -> None:
    """The one grid rule for the library's (user, item) ids; names the first row off it."""
    if (k := _first((users < 0) | (users >= n_users)
                    | (items < 0) | (items >= n_items))) is not None:
        raise ValueError(f"row {k}: id out of range: user={users[k]}, item={items[k]} "
                         f"in a {n_users} x {n_items} grid")


def _check_columns(owner: str, **columns) -> None:
    """The one rule for a batch's parallel columns: each 1-D, each as long as the first."""
    shapes = {name: np.shape(column) for name, column in columns.items()}
    lead = next(iter(shapes))
    for name, shape in shapes.items():
        if len(shape) != 1:
            raise ValueError(f"{owner}: {name} has shape {shape}, not 1-D")
        if shape != shapes[lead]:
            raise ValueError(f"{owner}: {shape[0]} {name} for {shapes[lead][0]} {lead}")


def _check_labels(labels: np.ndarray) -> None:
    """Names the first label that is not 0 or 1; NaN is neither."""
    if (k := _first((labels != 0) & (labels != 1))) is not None:
        raise ValueError(f"label at index {k} is {labels[k]}, not 0 or 1")


def _check_unit_interval(values: np.ndarray, noun: str) -> None:
    """Names the first of ``values``, each a ``noun``, outside [0, 1]; NaN is outside."""
    if (k := _first(~((values >= 0.0) & (values <= 1.0)))) is not None:
        raise ValueError(f"{noun} at index {k} is {values[k]}, outside [0, 1]")
