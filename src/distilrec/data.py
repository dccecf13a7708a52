"""Dataset ingestion, binarization, splitting, and pair sampling.

Logged feedback arrives from two logging policies: a small slice where
items were shown uniformly at random (an unbiased sample of preference)
and a large slice logged by a deployed recommender (exposure-biased).
Ratings on a 1-5 scale are binarized: only a 5 counts as a positive.

The module also builds synthetic ground-truth worlds with a known
preference matrix; these serve as oracles for debiasing experiments and
as generators for pristine-format dataset files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

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
    "binarize",
    "load_yahoo",
    "load_coat",
    "read_canonical_tsv",
    "write_canonical_tsv",
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


def binarize(rating: int) -> int:
    """1 for a rating of 5, 0 for ratings 1-4; anything else is invalid."""
    if not 1 <= rating <= 5:
        raise ValueError(f"rating {rating} outside 1-5")
    return 1 if rating == 5 else 0


@dataclass(frozen=True, slots=True)
class Interaction:
    """One logged (user, item, rating) record plus its logging policy."""

    user: int
    item: int
    rating: int
    label: int
    source: Source

    def __post_init__(self):
        if self.label != binarize(self.rating):
            raise ValueError(f"label {self.label} inconsistent with rating {self.rating}")


def interaction(user: int, item: int, rating: int, source: Source) -> Interaction:
    return Interaction(user, item, rating, binarize(rating), source)


@dataclass
class Dataset:
    interactions: list[Interaction]
    n_users: int
    n_items: int

    def __post_init__(self):
        seen = set()
        for inter in self.interactions:
            if not (0 <= inter.user < self.n_users and 0 <= inter.item < self.n_items):
                raise ValueError(f"id out of range: user={inter.user}, item={inter.item}")
            key = (inter.user, inter.item, inter.source)
            if key in seen:
                raise ValueError(f"duplicate interaction {key}")
            seen.add(key)

    def by_source(self, source: Source) -> list[Interaction]:
        return [inter for inter in self.interactions if inter.source is source]

    def positive_ratio(self, source: Source | None = None) -> float:
        subset = self.interactions if source is None else self.by_source(source)
        if not subset:
            return float("nan")
        return sum(inter.label for inter in subset) / len(subset)

    def observed_pairs(self) -> np.ndarray:
        """Distinct (user, item) pairs over both sources, shape (n, 2)."""
        if not self.interactions:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.array([(i.user, i.item) for i in self.interactions], dtype=np.int64)
        return np.unique(arr, axis=0)


def pack(interactions: Sequence[Interaction]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users, items, labels) arrays for vectorized scoring/training."""
    users = np.fromiter((i.user for i in interactions), dtype=np.int64, count=len(interactions))
    items = np.fromiter((i.item for i in interactions), dtype=np.int64, count=len(interactions))
    labels = np.fromiter((i.label for i in interactions), dtype=np.float64, count=len(interactions))
    return users, items, labels


# ---------------------------------------------------------------------------
# Native loaders
# ---------------------------------------------------------------------------


def _parse_triples(path: Path, source: Source) -> list[tuple[int, int, int]]:
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
    biased = _parse_triples(Path(biased_path), Source.BIASED)
    uniform = _parse_triples(Path(uniform_path), Source.UNIFORM)
    users = sorted({u for u, _, _ in biased} | {u for u, _, _ in uniform})
    items = sorted({i for _, i, _ in biased} | {i for _, i, _ in uniform})
    umap = {u: k for k, u in enumerate(users)}
    imap = {i: k for k, i in enumerate(items)}
    interactions = [
        interaction(umap[u], imap[i], r, src)
        for triples, src in ((biased, Source.BIASED), (uniform, Source.UNIFORM))
        for u, i, r in triples
    ]
    return Dataset(interactions, n_users=len(users), n_items=len(items))


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
        for u, i in zip(us.tolist(), its.tolist()):
            interactions.append(interaction(u, i, int(matrix[u, i]), src))
    return Dataset(interactions, n_users=n_users, n_items=n_items)


# ---------------------------------------------------------------------------
# Canonical interchange format
# ---------------------------------------------------------------------------


def write_canonical_tsv(dataset: Dataset, path) -> None:
    """0-based ``user<TAB>item<TAB>rating<TAB>source`` lines, UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for inter in dataset.interactions:
            fh.write(f"{inter.user}\t{inter.item}\t{inter.rating}\t{inter.source.value}\n")


def read_canonical_tsv(path, n_users: int | None = None, n_items: int | None = None) -> Dataset:
    interactions = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 tab-separated fields")
            try:
                user, item, rating = int(parts[0]), int(parts[1]), int(parts[2])
                source = Source(parts[3])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad field") from exc
            if not 1 <= rating <= 5:
                raise DataFormatError(f"{path}:{lineno}: rating {rating} outside 1-5")
            interactions.append(interaction(user, item, rating, source))
    if n_users is None:
        n_users = 1 + max((i.user for i in interactions), default=-1)
    if n_items is None:
        n_items = 1 + max((i.item for i in interactions), default=-1)
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
    order = RngStream(spec.seed).split("uniform-split").permutation(n)
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
    return [[data[k] for k in part.tolist()] for part in np.array_split(rng.permutation(n), m)]


# ---------------------------------------------------------------------------
# Unobserved-pair sampling
# ---------------------------------------------------------------------------


class UnobservedSampler:
    """Uniform with-replacement sampler over never-logged (user, item) pairs.

    Membership against the observed set is exact (sorted-key lookup);
    sampling is rejection from the full grid, which stays cheap as long
    as the observed set is sparse.
    """

    def __init__(self, n_users: int, n_items: int, observed_pairs: np.ndarray, rng: RngStream):
        self.n_users = n_users
        self.n_items = n_items
        pairs = np.asarray(observed_pairs, dtype=np.int64).reshape(-1, 2)
        self._observed_keys = np.unique(pairs[:, 0] * n_items + pairs[:, 1])
        self._rng = rng
        self._n_cells = n_users * n_items
        if self._observed_keys.size >= self._n_cells:
            raise ValueError("every (user, item) pair is observed; no complement to sample")

    @classmethod
    def from_dataset(cls, dataset: Dataset, rng: RngStream) -> "UnobservedSampler":
        return cls(dataset.n_users, dataset.n_items, dataset.observed_pairs(), rng)

    def _is_observed(self, keys: np.ndarray) -> np.ndarray:
        if self._observed_keys.size == 0:
            return np.zeros(keys.shape, dtype=bool)
        pos = np.searchsorted(self._observed_keys, keys)
        pos = np.minimum(pos, self._observed_keys.size - 1)
        return self._observed_keys[pos] == keys

    def sample(self, n: int) -> np.ndarray:
        """n pairs uniform over the unobserved complement, shape (n, 2)."""
        out = np.empty(n, dtype=np.int64)
        filled = 0
        density = self._observed_keys.size / self._n_cells
        while filled < n:
            want = n - filled
            draw = int(np.ceil(want / max(1e-9, 1.0 - density))) + 16
            keys = self._rng.integers(0, self._n_cells, size=draw)
            keys = keys[~self._is_observed(keys)]
            take = min(want, keys.size)
            out[filled:filled + take] = keys[:take]
            filled += take
        return np.column_stack([out // self.n_items, out % self.n_items])


# ---------------------------------------------------------------------------
# Synthetic ground-truth world
# ---------------------------------------------------------------------------


@dataclass
class SyntheticWorld:
    """Known preference matrix plus the two logging policies over it."""

    prob: np.ndarray          # P[u, i] = p(label=1 | u, i), entries in (0, 1)
    exposure_skew: float
    seed: int

    def exposure_weights(self) -> np.ndarray:
        """Cell weights of the biased policy, proportional to exp(skew * P)."""
        w = np.exp(self.exposure_skew * self.prob)
        return w / w.sum()


def _weighted_cells_without_replacement(
    log_w: np.ndarray, n: int, rng: RngStream
) -> np.ndarray:
    # Gumbel top-k: exact weighted sampling without replacement.
    gumbel = -np.log(-np.log(rng.random(log_w.size)))
    return np.argpartition(-(log_w + gumbel), n - 1)[:n]


def generate_synthetic(
    n_users: int,
    n_items: int,
    latent_dim: int,
    exposure_skew: float,
    n_biased: int,
    n_uniform: int,
    seed: int,
    bias: float = -2.0,
    scale: float = 3.0,
) -> tuple[SyntheticWorld, Dataset]:
    """Seeded world with latent-factor preferences and a skewed logger.

    P = sigmoid(scale * <u_vec, i_vec> + bias) from standard-normal
    latent factors.  The biased log draws cells with probability
    proportional to exp(exposure_skew * P) (self-selection toward liked
    items); the uniform log draws cells uniformly.  Labels are Bernoulli
    draws from P, ratings 5 for positives and uniform 1-4 otherwise.
    """
    if min(n_users, n_items, latent_dim, n_biased, n_uniform) < 1:
        raise ValueError("all sizes must be positive")
    if n_biased > n_users * n_items or n_uniform > n_users * n_items:
        raise ValueError("log size exceeds the number of distinct cells")
    root = RngStream(seed)
    fr = root.split("factors").generator
    u_f = fr.normal(size=(n_users, latent_dim)) / np.sqrt(latent_dim)
    i_f = fr.normal(size=(n_items, latent_dim))
    logits = scale * (u_f @ i_f.T) + bias
    prob = 1.0 / (1.0 + np.exp(-logits))
    world = SyntheticWorld(prob=prob, exposure_skew=exposure_skew, seed=seed)

    log_w = exposure_skew * prob.reshape(-1)
    biased_cells = _weighted_cells_without_replacement(log_w, n_biased, root.split("biased-cells"))
    # With equal weights the Gumbel top-k reduces to the n largest uniform keys.
    uniform_keys = root.split("uniform-cells").random(n_users * n_items)
    uniform_cells = np.argpartition(-uniform_keys, n_uniform - 1)[:n_uniform]

    label_rng = root.split("labels").generator
    interactions = []
    for cells, src in ((biased_cells, Source.BIASED), (uniform_cells, Source.UNIFORM)):
        us, its = np.divmod(cells, n_items)
        labels = (label_rng.random(cells.size) < prob[us, its]).astype(np.int64)
        low_ratings = label_rng.integers(1, 5, size=cells.size)
        for u, i, y, r in zip(us.tolist(), its.tolist(), labels.tolist(), low_ratings.tolist()):
            interactions.append(interaction(int(u), int(i), 5 if y else int(r), src))
    return world, Dataset(interactions, n_users=n_users, n_items=n_items)
