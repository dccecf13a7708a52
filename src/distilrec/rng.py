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

import numpy as np

__all__ = ["RngStream"]


def _label_key(label: str) -> int:
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little")


class RngStream:
    """Deterministic random stream with labeled child splits."""

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        if not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self.seed = int(seed)
        self._spawn_key = _spawn_key
        seq = np.random.SeedSequence(self.seed, spawn_key=_spawn_key)
        self.generator = np.random.Generator(np.random.Philox(seq))

    def split(self, label: str) -> "RngStream":
        """Derive an independent child stream identified by ``label``."""
        return RngStream(self.seed, self._spawn_key + (_label_key(label),))

    # Methods a tracer can patch; every other draw goes through ``generator``.

    def random(self, size=None):
        return self.generator.random(size=size)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        return self.generator.choice(n, size=size, replace=replace)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self._spawn_key})"
