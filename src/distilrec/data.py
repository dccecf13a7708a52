"""Dataset ingestion, binarization, splitting, and pair sampling.

Logged feedback arrives from two logging policies: a small slice where
items were shown uniformly at random (an unbiased sample of preference)
and a large slice logged by a deployed recommender (exposure-biased).
Ratings on a 1-5 scale are binarized: only a 5 counts as a positive.
Rows are checked in one place, when they enter a ``Dataset``: ratings,
labels, sources, id ranges and duplicates, each error naming the row.

The module also builds synthetic ground-truth worlds with a known
preference matrix; these serve as oracles for debiasing experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .rng import RngStream

__all__ = [
    "Source",
    "Interaction",
    "Dataset",
    "DataFormatError",
    "SplitSpec",
    "UnobservedSampler",
    "SyntheticWorld",
    "load_yahoo",
    "load_coat",
    "split_uniform",
    "partition_batches",
    "generate_synthetic",
    "pack",
]


class Source(Enum):
    UNIFORM = "uniform"
    BIASED = "biased"


class DataFormatError(ValueError):
    """Malformed dataset file; message carries path and line number."""


class Interaction(NamedTuple):
    """One logged (user, item, rating) record plus its logging policy.

    Building a row checks nothing: ``Dataset`` checks every row it holds,
    and every library path that uses rows receives them from a ``Dataset``.
    """

    user: int
    item: int
    rating: int
    label: int
    source: Source


def _rows(users, items, ratings, source: Source) -> list[Interaction]:
    """The one place rows are built: one ``Interaction`` per column entry."""
    labels = (ratings == 5).astype(np.int64)
    return list(map(Interaction, users.tolist(), items.tolist(), ratings.tolist(),
                    labels.tolist(), repeat(source)))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys`` in ascending order: sort, keep each run's first."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry of ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _column(interactions: Sequence[Interaction], name: str, dtype=np.int64) -> np.ndarray:
    return np.fromiter(map(attrgetter(name), interactions), dtype=dtype, count=len(interactions))


def _as_pairs(pairs) -> np.ndarray:
    """(user, item) pairs as an int64 array shaped (n, 2); ``[]`` is n = 0."""
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.shape == (0,):
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"pairs must have shape (n, 2), got {arr.shape}")
    return arr


@dataclass
class Dataset:
    interactions: list[Interaction]
    n_users: int
    n_items: int

    def __post_init__(self):
        ratings = _column(self.interactions, "rating")
        if (k := _first((ratings < 1) | (ratings > 5))) is not None:
            raise ValueError(f"row {k}: rating {ratings[k]} outside 1-5")
        labels = _column(self.interactions, "label")
        if (k := _first(labels != (ratings == 5))) is not None:
            raise ValueError(f"row {k}: label {labels[k]} inconsistent with rating {ratings[k]}")
        sources = _column(self.interactions, "source", object)
        uniform = sources == Source.UNIFORM
        if (k := _first(~uniform & (sources != Source.BIASED))) is not None:
            raise ValueError(f"row {k}: source {sources[k]!r} is not a Source")
        users = _column(self.interactions, "user")
        items = _column(self.interactions, "item")
        if (k := _first((users < 0) | (users >= self.n_users)
                        | (items < 0) | (items >= self.n_items))) is not None:
            raise ValueError(f"row {k}: id out of range: user={users[k]}, item={items[k]} "
                             f"in a {self.n_users} x {self.n_items} grid")
        keys = (users * self.n_items + items) * 2 + uniform
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        if (k := _first(first[group] != np.arange(keys.size))) is not None:
            raise ValueError(f"row {k}: duplicate of row {first[group[k]]}: user={users[k]}, "
                             f"item={items[k]}, source={sources[k].value}")

    def by_source(self, source: Source) -> list[Interaction]:
        return [inter for inter in self.interactions if inter.source is source]

    def observed_pairs(self) -> np.ndarray:
        """Distinct (user, item) pairs over both sources, shape (n, 2), in key order."""
        keys = _distinct(_column(self.interactions, "user") * self.n_items
                         + _column(self.interactions, "item"))
        return np.column_stack(np.divmod(keys, self.n_items))


def pack(interactions: Sequence[Interaction]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users, items, labels) arrays for vectorized scoring/training."""
    return (_column(interactions, "user"), _column(interactions, "item"),
            _column(interactions, "label", np.float64))


# ---------------------------------------------------------------------------
# Native loaders
# ---------------------------------------------------------------------------


def _parse_triples(path: Path) -> list[tuple[int, int, int]]:
    triples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                user, item, rating = (int(p) for p in parts)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-integer field") from exc
            if not 1 <= rating <= 5:
                raise DataFormatError(f"{path}:{lineno}: rating {rating} outside 1-5")
            triples.append((user, item, rating))
    return triples


def load_yahoo(biased_path, uniform_path) -> Dataset:
    """Tab-separated 1-indexed (user, song, rating) triple files.

    The first file holds interactions logged during regular service
    (biased exposure), the second ratings of randomly selected songs.
    Ids are remapped to contiguous 0-based indices over both files.
    """
    biased = _parse_triples(Path(biased_path))
    triples = np.array(biased + _parse_triples(Path(uniform_path)), dtype=np.int64).reshape(-1, 3)
    user_ids, users = np.unique(triples[:, 0], return_inverse=True)
    item_ids, items = np.unique(triples[:, 1], return_inverse=True)
    ratings = triples[:, 2]
    nb = len(biased)
    interactions = (_rows(users[:nb], items[:nb], ratings[:nb], Source.BIASED)
                    + _rows(users[nb:], items[nb:], ratings[nb:], Source.UNIFORM))
    return Dataset(interactions, n_users=user_ids.size, n_items=item_ids.size)


def _parse_matrix(path: Path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = [int(v) for v in line.split()]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-integer cell") from exc
            bad = [v for v in row if not 0 <= v <= 5]
            if bad:
                raise DataFormatError(f"{path}:{lineno}: rating {bad[0]} outside 0-5")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataFormatError(f"{path}:{lineno}: ragged row ({len(row)} != {width})")
            rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: empty matrix")
    return np.array(rows, dtype=np.int64)


def load_coat(train_matrix_path, test_matrix_path) -> Dataset:
    """Space-separated rating matrices, 0 = unobserved.

    The training matrix holds self-selected ratings (biased source), the
    test matrix ratings of randomly assigned items (uniform source).
    """
    biased_m = _parse_matrix(Path(train_matrix_path))
    uniform_m = _parse_matrix(Path(test_matrix_path))
    if biased_m.shape != uniform_m.shape:
        raise DataFormatError(
            f"matrix shapes differ: {biased_m.shape} vs {uniform_m.shape}"
        )
    n_users, n_items = biased_m.shape
    interactions = []
    for matrix, src in ((biased_m, Source.BIASED), (uniform_m, Source.UNIFORM)):
        us, its = np.nonzero(matrix)
        interactions += _rows(us, its, matrix[us, its], src)
    return Dataset(interactions, n_users=n_users, n_items=n_items)


# ---------------------------------------------------------------------------
# Splits and batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """Uniform-slice split: train fraction, remainder halved into val/test."""

    uniform_train_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.uniform_train_fraction < 1.0:
            raise ValueError("uniform_train_fraction must lie in (0, 1)")


def split_uniform(
    uniform_data: Sequence[Interaction], spec: SplitSpec
) -> tuple[list[Interaction], list[Interaction], list[Interaction]]:
    """Seeded shuffle, then partition into (train, validation, test).

    Sizes are floor(f*n) for train, then the remainder split as evenly
    as possible (validation gets the odd element).  The three parts are
    disjoint and exhaustive.
    """
    n = len(uniform_data)
    if n < 3:
        raise ValueError(f"need at least 3 uniform interactions, got {n}")
    order = RngStream(spec.seed).split("uniform-split").generator.permutation(n)
    shuffled = [uniform_data[k] for k in order]
    n_train = int(np.floor(spec.uniform_train_fraction * n))
    n_val = int(np.ceil((n - n_train) / 2))
    return shuffled[:n_train], shuffled[n_train:n_train + n_val], shuffled[n_train + n_val:]


def partition_batches(
    data: Sequence[Interaction], m: int, rng: RngStream
) -> list[list[Interaction]]:
    """Seeded shuffle into m batches; the first n%m batches get one extra."""
    n = len(data)
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > n:
        raise ValueError(f"cannot split {n} records into {m} batches")
    parts = np.array_split(rng.generator.permutation(n), m)
    return [[data[k] for k in part.tolist()] for part in parts]


# ---------------------------------------------------------------------------
# Unobserved-pair sampling
# ---------------------------------------------------------------------------


class UnobservedSampler:
    """Uniform with-replacement sampler over never-logged (user, item) pairs.

    Each draw is a rank among the free cells, mapped exactly to its key.
    """

    def __init__(self, n_users: int, n_items: int, observed_pairs: np.ndarray, rng: RngStream):
        self.n_users = n_users
        self.n_items = n_items
        pairs = _as_pairs(observed_pairs)
        users, items = pairs[:, 0], pairs[:, 1]
        if (k := _first((users < 0) | (users >= n_users)
                        | (items < 0) | (items >= n_items))) is not None:
            raise ValueError(f"observed pair at row {k} {tuple(pairs[k].tolist())} "
                             f"outside the {n_users} x {n_items} grid")
        self._observed_keys = _distinct(users * n_items + items)
        self._rng = rng
        self._n_free = n_users * n_items - self._observed_keys.size
        if self._n_free == 0:
            raise ValueError("every (user, item) pair is observed; no complement to sample")
        self._free_before = self._observed_keys - np.arange(self._observed_keys.size)

    @classmethod
    def from_dataset(cls, dataset: Dataset, rng: RngStream) -> "UnobservedSampler":
        return cls(dataset.n_users, dataset.n_items, dataset.observed_pairs(), rng)

    def sample(self, n: int) -> np.ndarray:
        """n pairs uniform over the unobserved complement, shape (n, 2)."""
        ranks = self._rng.generator.integers(0, self._n_free, size=n)
        # Rank r's cell lies past each observed key with at most r free cells before it.
        keys = ranks + np.searchsorted(self._free_before, ranks, side="right")
        return np.column_stack(np.divmod(keys, self.n_items))


# ---------------------------------------------------------------------------
# Synthetic ground-truth world
# ---------------------------------------------------------------------------


@dataclass
class SyntheticWorld:
    """Ground truth of a generated world: the matrix both logs were drawn from."""

    prob: np.ndarray          # P[u, i] = p(label=1 | u, i), entries in (0, 1)


LOGIT_SCALE = 3.0


def _weighted_cells_without_replacement(
    prob: np.ndarray, skew: float, n: int, rng: RngStream
) -> np.ndarray:
    # Gumbel top-k: exact weighted sampling without replacement.  The n cells
    # of largest skew * prob + Gumbel noise are those of smallest
    # log(-log u) - skew * prob, built in place so that one full-grid buffer
    # sits beside prob.  The copy lets the full-grid index array go.
    keys = rng.random(prob.size)
    np.log(keys, out=keys)
    np.negative(keys, out=keys)
    np.log(keys, out=keys)
    keys -= skew * prob.reshape(-1)
    return np.argpartition(keys, n - 1)[:n].copy()


def generate_synthetic(
    n_users: int,
    n_items: int,
    latent_dim: int,
    exposure_skew: float,
    n_biased: int,
    n_uniform: int,
    seed: int,
    bias: float = -2.0,
) -> tuple[SyntheticWorld, Dataset]:
    """Seeded world with latent-factor preferences and a skewed logger.

    P = sigmoid(LOGIT_SCALE * <u_vec, i_vec> + bias) from standard-normal
    latent factors.  The biased log draws cells with probability
    proportional to exp(exposure_skew * P) (self-selection toward liked
    items); the uniform log draws cells uniformly.  Labels are Bernoulli
    draws from P, ratings 5 for positives and uniform 1-4 otherwise.
    """
    if min(n_users, n_items, latent_dim, n_biased, n_uniform) < 1:
        raise ValueError("all sizes must be positive")
    if n_biased > n_users * n_items or n_uniform > n_users * n_items:
        raise ValueError("log size exceeds the number of distinct cells")
    for name, value in (("exposure_skew", exposure_skew), ("bias", bias)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    root = RngStream(seed)
    fr = root.split("factors").generator
    u_f = fr.normal(size=(n_users, latent_dim)) / np.sqrt(latent_dim)
    i_f = fr.normal(size=(n_items, latent_dim))
    prob = 1.0 / (1.0 + np.exp(-(LOGIT_SCALE * (u_f @ i_f.T) + bias)))
    world = SyntheticWorld(prob=prob)

    biased_cells = _weighted_cells_without_replacement(
        prob, exposure_skew, n_biased, root.split("biased-cells"))
    # With equal weights the Gumbel top-k reduces to the n largest uniform keys.
    uniform_cells = np.argpartition(-root.split("uniform-cells").random(n_users * n_items),
                                    n_uniform - 1)[:n_uniform].copy()

    label_rng = root.split("labels").generator
    interactions = []
    for cells, src in ((biased_cells, Source.BIASED), (uniform_cells, Source.UNIFORM)):
        us, its = np.divmod(cells, n_items)
        labels = label_rng.random(cells.size) < prob[us, its]
        ratings = np.where(labels, 5, label_rng.integers(1, 5, size=cells.size))
        interactions += _rows(us, its, ratings, src)
    return world, Dataset(interactions, n_users=n_users, n_items=n_items)
