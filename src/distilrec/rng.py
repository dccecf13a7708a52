"""Seeded, splittable random streams.

Every stochastic component in the package owns an ``RngStream``.  Streams
are backed by the counter-based Philox generator, so a given seed plus a
given call sequence always reproduces the same draws, on any platform.
Child streams are derived by *labeled* splits: the label is hashed into
the spawn key, which makes siblings statistically independent and keeps
the derivation order-free (splitting "teacher" then "student" gives the
same streams as the reverse order).
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

__all__ = ["RngStream"]


def _label_key(label: str) -> int:
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little")


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


class RngStream:
    """Deterministic random stream with labeled child splits."""

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = _check_seed(seed)
        self._spawn_key = _spawn_key
        seq = np.random.SeedSequence(self.seed, spawn_key=_spawn_key)
        self.generator = np.random.Generator(np.random.Philox(seq))

    def split(self, label: str) -> "RngStream":
        """Derive an independent child stream identified by ``label``."""
        return RngStream(self.seed, self._spawn_key + (_label_key(label),))

    # perfbench's tracer patches ``random`` to time mask draws, and ``choice`` serves its
    # per-round user draw; every other draw goes through ``generator``.

    def random(self, size=None):
        return self.generator.random(size=size)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        """``size`` draws from ``range(n)``; ``n`` >= 1 and ``size`` >= 0 are counts."""
        return self.generator.choice(_count(n, "n"), size=_count(size, "size", 0),
                                     replace=replace)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self._spawn_key})"
