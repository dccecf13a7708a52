"""Dataset ingestion, binarization, splitting, and pair sampling.

Logged feedback arrives from two logging policies: a small slice where
items were shown uniformly at random (an unbiased sample of preference)
and a large slice logged by a deployed recommender (exposure-biased).
Ratings on a 1-5 scale are binarized: only a 5 counts as a positive.
Rows are checked once, on columns, whichever way they reach a ``Dataset``:
whole-number ids and ratings, rating and id ranges, labels, sources and
duplicates, each error naming the row.  ``Dataset(rows, ...)`` reads the
columns out of rows a caller built; the generator and the loaders pass
their columns, which are checked before any row is built.  Rows are built
in one place, with the cyclic garbage collector paused: each row is a new
tracked tuple, so hundreds of thousands of them set off repeated
collections that walk the rows built so far, none of which can be garbage.
Rows with the same user (or item) id share one ``int`` object for it, so a
row costs its tuple and list slot, not two fresh ints besides.

The native loaders parse each file with one ``np.loadtxt``.  Only a file
it rejects, or one whose values fail a range check, is read again line by
line, to name the first bad line as ``path:line``.

The module also builds synthetic ground-truth worlds with a known
preference matrix; these serve as oracles for debiasing experiments.
"""

from __future__ import annotations

import gc
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from ._rules import (_as_int64, _as_pairs, _check_on_grid, _check_seed, _count, _first, _member,
                     _real)
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

    Building a row checks nothing.  Rows are checked when they enter a
    ``Dataset``; ``pack``, ``split_uniform``, ``partition_batches`` and
    ``metrics.evaluate`` trust the rows they are given.
    """

    user: int
    item: int
    rating: int
    label: int
    source: Source


@contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector for the body; its prior state is
    restored on exit, also when the body raises."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _shared_ids(ids: np.ndarray) -> list[int]:
    """``ids.tolist()`` with every equal id the same ``int`` object: each entry
    is read from a table of one object per id in ``[0, max id]``, where
    ``tolist`` makes a fresh 32-byte int per entry.  The table lives only for
    the call, and every producer holds arrays at least its size already."""
    return np.arange(int(ids.max()) + 1 if ids.size else 0).astype(object)[ids].tolist()


def _rows(users, items, ratings, labels, sources) -> list[Interaction]:
    """The one place rows are built: one ``Interaction`` per column entry.

    They are built with the cyclic collector paused, since none of them can
    be garbage while the list holds them (see the module docstring).
    ``tuple.__new__`` builds each row from its fields, skipping the
    Python-level ``__new__`` that ``Interaction(...)`` runs per row; the rows
    are equal.  Rows with the same user (or item) id share its ``int``
    (``_shared_ids``), since a ``Dataset`` stays alive for a whole run: a row
    then costs its 80-byte tuple and its list slot, 97 bytes traced rather
    than 151, and 366k Yahoo!-shaped rows trace 34.0 MiB rather than 52.8.
    Ratings and labels are small ints, of which CPython keeps one object
    each already.
    """
    with _collector_paused():
        return list(map(tuple.__new__, repeat(Interaction),
                        zip(_shared_ids(users), _shared_ids(items), ratings.tolist(),
                            labels.tolist(), sources.tolist())))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys`` in ascending order: sort, keep each run's first.

    This is ``np.unique(keys)``, but not its cost: at numpy 2.4.6, bare
    ``np.unique`` on 366,000 random int64 keys takes its hash path, 187 ms
    against 4.6 ms here, for equal output.
    """
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _column(interactions: Sequence[Interaction], name: str, dtype=np.int64) -> np.ndarray:
    return np.fromiter(map(attrgetter(name), interactions), dtype=dtype, count=len(interactions))


_INT_FIELDS = ("user", "item", "rating", "label")


def _checked_columns(n_users: int, n_items: int, int_columns, sources: np.ndarray):
    """The grid as ints and the (user, item, rating, label) columns ``int_columns``
    yields, as int64, once they and the object column ``sources`` pass the row check."""
    n_users, n_items = _count(n_users, "n_users", 0), _count(n_items, "n_items", 0)
    users, items, ratings, labels = (_as_int64(column, name)
                                     for column, name in zip(int_columns, _INT_FIELDS))
    if (k := _first((ratings < 1) | (ratings > 5))) is not None:
        raise ValueError(f"row {k}: rating {ratings[k]} outside 1-5")
    if (k := _first(labels != (ratings == 5))) is not None:
        raise ValueError(f"row {k}: label {labels[k]} inconsistent with rating {ratings[k]}")
    uniform = sources == Source.UNIFORM
    if (k := _first(~uniform & (sources != Source.BIASED))) is not None:
        raise ValueError(f"row {k}: source {sources[k]!r} is not a Source")
    _check_on_grid(users, items, n_users, n_items)
    keys = (users * n_items + items) * 2 + uniform
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    if (k := _first(first[group] != np.arange(keys.size))) is not None:
        raise ValueError(f"row {k}: duplicate of row {first[group[k]]}: user={users[k]}, "
                         f"item={items[k]}, source={sources[k].value}")
    return n_users, n_items, users, items, ratings, labels


@dataclass
class Dataset:
    """Logged rows on an ``n_users`` x ``n_items`` grid, checked once, on columns.

    ``Dataset(rows, ...)`` reads the columns out of rows a caller built; the
    producers' ``_from_columns`` checks their columns before it builds a row.
    """

    interactions: list[Interaction]
    n_users: int
    n_items: int

    def __post_init__(self):
        rows = self.interactions
        self.n_users, self.n_items, *_ = _checked_columns(
            self.n_users, self.n_items, (list(map(attrgetter(name), rows)) for name in _INT_FIELDS),
            _column(rows, "source", object))

    @classmethod
    def _from_columns(cls, n_users: int, n_items: int, groups) -> "Dataset":
        """The ``Dataset`` of ``groups`` of (users, items, ratings, source), rows
        in group order; labels follow the rating rule."""
        users, items, ratings = (np.concatenate(column)
                                 for column in zip(*(group[:3] for group in groups)))
        sources = np.repeat(np.array([group[3] for group in groups], dtype=object),
                            [len(group[0]) for group in groups])
        n_users, n_items, *columns = _checked_columns(
            n_users, n_items, (users, items, ratings, ratings == 5), sources)
        dataset = cls.__new__(cls)
        dataset.interactions = _rows(*columns, sources)
        dataset.n_users, dataset.n_items = n_users, n_items
        return dataset

    def by_source(self, source: Source) -> list[Interaction]:
        _member(source, "source", Source)
        return [inter for inter in self.interactions if inter.source is source]


# Bound once, here: the producers build through, and ``UnobservedSampler.from_dataset``
# tests against, the class defined above, whatever the module's ``Dataset`` name is later
# made to refer to.
_Dataset = Dataset


def pack(interactions: Sequence[Interaction]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users, items, labels) arrays for vectorized scoring/training."""
    return (_column(interactions, "user"), _column(interactions, "item"),
            _column(interactions, "label", np.float64))


# ---------------------------------------------------------------------------
# Native loaders
# ---------------------------------------------------------------------------


def _table(path: Path, sep: str | None) -> np.ndarray | None:
    """Every non-blank line of ``path`` as a row of int64 fields, by one
    ``np.loadtxt``; None if it rejects the file.  A file of blank lines gives
    shape (0, 1), and ``comments=None`` keeps a ``#`` line a fault.

    The file is read as Latin-1, so no character beyond it reaches numpy's
    integer parser, which misreads some of them as digits and may crash on
    others; a non-ASCII character of a UTF-8 file fails its field.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, dtype=np.int64, delimiter=sep, comments=None, ndmin=2,
                              encoding="latin-1")
    except ValueError:
        return None


def _fault(path: Path, sep: str | None, line_fault) -> DataFormatError:
    """The error naming the first bad line of a file that failed its parse or range check.

    Only such a file is read line by line, as Latin-1.  Blank lines are
    skipped as by ``np.loadtxt``; ``line_fault(n, values, width)`` gives the
    message for a line of ``n`` fields split at ``sep``, or None: ``values``
    are the fields as ints, or None unless each is a signed or unsigned run
    of ASCII digits within whitespace, and ``width`` is the first line's count.
    """
    width = None
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(sep)
            if fields in ([], [""]):
                continue
            width = width or len(fields)
            digits = [field.strip() for field in fields]
            values = ([int(d) for d in digits]
                      if all(re.fullmatch(r"[+-]?[0-9]+", d) for d in digits) else None)
            if message := line_fault(len(fields), values, width):
                return DataFormatError(f"{path}:{lineno}: {message}")
    return DataFormatError(f"{path}: np.loadtxt rejected the file, but no line is at fault")


def _triple_fault(n: int, values: list[int] | None, width: int) -> str | None:
    if n != 3:
        return "expected 3 tab-separated fields"
    if values is None:
        return "non-integer field"
    user, item, rating = values
    if not 1 <= rating <= 5:
        return f"rating {rating} outside 1-5"
    for name, value in (("user", user), ("item", item)):
        if not -2**63 <= value < 2**63:
            return f"{name} id {value} outside int64"
    return None


def _read_triples(path: Path) -> np.ndarray:
    """(user, item, rating) rows of a triple file, shaped (n, 3)."""
    table = _table(path, "\t")
    if table is not None and (len(table) == 0 or (
            table.shape[1] == 3 and np.all((table[:, 2] >= 1) & (table[:, 2] <= 5)))):
        return table.reshape(-1, 3)
    raise _fault(path, "\t", _triple_fault)


def load_yahoo(biased_path, uniform_path) -> Dataset:
    """Tab-separated 1-indexed (user, song, rating) triple files.

    The first file holds interactions logged during regular service
    (biased exposure), the second ratings of randomly selected songs.
    Ids are remapped to contiguous 0-based indices over both files.

    Each file is parsed by one ``np.loadtxt``, which takes CRLF endings,
    blank lines, signs and spaces around fields, but no non-ASCII text.
    Only if it rejects the file, or a line lacks 3 fields or holds a rating
    outside 1-5, are the lines read one by one, to name the bad one as
    ``path:line`` in a ``DataFormatError``.
    """
    biased = _read_triples(Path(biased_path))
    triples = np.concatenate([biased, _read_triples(Path(uniform_path))])
    user_ids, users = np.unique(triples[:, 0], return_inverse=True)
    item_ids, items = np.unique(triples[:, 1], return_inverse=True)
    ratings = triples[:, 2]
    nb = len(biased)
    return _Dataset._from_columns(user_ids.size, item_ids.size,
                               [(users[:nb], items[:nb], ratings[:nb], Source.BIASED),
                                (users[nb:], items[nb:], ratings[nb:], Source.UNIFORM)])


def _row_fault(n: int, values: list[int] | None, width: int) -> str | None:
    if values is None:
        return "non-integer cell"
    if bad := [v for v in values if not 0 <= v <= 5]:
        return f"rating {bad[0]} outside 0-5"
    if n != width:
        return f"ragged row ({n} != {width})"
    return None


def _read_matrix(path: Path) -> np.ndarray:
    """The rating matrix of a matrix file."""
    matrix = _table(path, None)
    if matrix is None or not np.all((matrix >= 0) & (matrix <= 5)):
        raise _fault(path, None, _row_fault)
    if matrix.size == 0:
        raise DataFormatError(f"{path}: empty matrix")
    return matrix


def load_coat(train_matrix_path, test_matrix_path) -> Dataset:
    """Space-separated rating matrices, 0 = unobserved.

    The training matrix holds self-selected ratings (biased source), the
    test matrix ratings of randomly assigned items (uniform source).

    Each file is parsed by one ``np.loadtxt``, which takes CRLF endings,
    blank lines, signs and runs of whitespace, but no non-ASCII text.  Only
    if it rejects the file or a cell lies outside 0-5 are the lines read
    one by one, to name the bad one as ``path:line`` in a
    ``DataFormatError``.
    """
    biased_m = _read_matrix(Path(train_matrix_path))
    uniform_m = _read_matrix(Path(test_matrix_path))
    if biased_m.shape != uniform_m.shape:
        raise DataFormatError(
            f"matrix shapes differ: {biased_m.shape} vs {uniform_m.shape}"
        )
    n_users, n_items = biased_m.shape
    groups = []
    for matrix, src in ((biased_m, Source.BIASED), (uniform_m, Source.UNIFORM)):
        us, its = np.nonzero(matrix)
        groups.append((us, its, matrix[us, its], src))
    return _Dataset._from_columns(n_users, n_items, groups)


# ---------------------------------------------------------------------------
# Splits and batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """Uniform-slice split: train fraction, remainder halved into val/test."""

    uniform_train_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "uniform_train_fraction",
                           _real(self.uniform_train_fraction, "uniform_train_fraction", 0.0, 1.0))
        object.__setattr__(self, "seed", _check_seed(self.seed))


def split_uniform(
    uniform_data: Sequence[Interaction], spec: SplitSpec
) -> tuple[list[Interaction], list[Interaction], list[Interaction]]:
    """Seeded shuffle, then partition into (train, validation, test).

    Sizes are floor(f*n) for train, then the remainder split as evenly
    as possible (validation gets the odd element).  The three parts are
    disjoint and exhaustive, and each must be nonempty.
    """
    n, spec = len(uniform_data), _member(spec, "spec", SplitSpec)
    n_train = int(np.floor(spec.uniform_train_fraction * n))
    n_val = int(np.ceil((n - n_train) / 2))
    if 0 in (sizes := (n_train, n_val, n - n_train - n_val)):
        raise ValueError(f"uniform_train_fraction {spec.uniform_train_fraction} of {n} uniform "
                         f"rows leaves an empty part: sizes {sizes}")
    order = RngStream(spec.seed).split("uniform-split").generator.permutation(n)
    shuffled = [uniform_data[k] for k in order]
    return shuffled[:n_train], shuffled[n_train:n_train + n_val], shuffled[n_train + n_val:]


def partition_batches(
    data: Sequence[Interaction], m: int, rng: RngStream
) -> list[list[Interaction]]:
    """Seeded shuffle into m batches; the first n%m batches get one extra."""
    n, m, rng = len(data), _count(m, "m"), _member(rng, "rng", RngStream)
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
        n_users, n_items = _count(n_users, "n_users", 0), _count(n_items, "n_items", 0)
        self.n_users, self.n_items = n_users, n_items
        self._rng = _member(rng, "rng", RngStream)
        pairs = _as_pairs(observed_pairs)
        users, items = pairs[:, 0], pairs[:, 1]
        _check_on_grid(users, items, n_users, n_items)
        self._observed_keys = _distinct(users * n_items + items)
        self._n_free = n_users * n_items - self._observed_keys.size
        if self._n_free == 0:
            raise ValueError("every (user, item) pair is observed; no complement to sample")
        self._free_before = self._observed_keys - np.arange(self._observed_keys.size)

    @classmethod
    def from_dataset(cls, dataset: Dataset, rng: RngStream) -> "UnobservedSampler":
        rows = _member(dataset, "dataset", _Dataset).interactions
        pairs = np.column_stack([_column(rows, name) for name in ("user", "item")])
        return cls(dataset.n_users, dataset.n_items, pairs, rng)

    def sample(self, n: int) -> np.ndarray:
        """n pairs uniform over the unobserved complement, shape (n, 2)."""
        ranks = self._rng.generator.integers(0, self._n_free, size=_count(n, "n", 0))
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
GRID_CHUNK = 1 << 16  # cells whose selection keys are drawn and held at once


def _smallest_cells(n: int, n_cells: int, keys_of) -> np.ndarray:
    """The ``n`` cells of smallest key, in ascending cell order.

    ``keys_of(start, stop)`` returns the keys of cells ``start..stop-1``;
    it is called on consecutive chunks of ``GRID_CHUNK`` cells, so a stream
    behind it is read exactly as by one full-grid draw.  A cell is kept as
    a candidate only if its key is at most the n-th smallest kept so far,
    and the candidates are cut back to the n smallest whenever they reach
    2n, so no key or index array spans the grid.
    """
    parts, held, bound = [], 0, np.inf
    for start in range(0, n_cells, GRID_CHUNK):
        stop = min(start + GRID_CHUNK, n_cells)
        chunk = keys_of(start, stop)
        hit = np.flatnonzero(chunk <= bound)
        parts.append((hit + start, chunk[hit]))
        held += hit.size
        if held >= 2 * n or stop == n_cells:
            cells, keys = (np.concatenate(column) for column in zip(*parts))
            keep = np.argpartition(keys, n - 1)[:n]
            parts, held, bound = [(cells[keep], keys[keep])], n, keys[keep].max()
    return np.sort(parts[0][0])


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

    Both logs are exact top-n selections over per-cell keys (Gumbel top-k
    for the biased log, the n largest uniform draws for the uniform one),
    drawn ``GRID_CHUNK`` cells at a time, so ``prob`` is the only array
    over the whole grid.  Each log's rows come in ascending cell order
    (user, then item), and its labels are drawn in that order.
    """
    n_users, n_items, latent_dim, n_biased, n_uniform = map(
        _count, (n_users, n_items, latent_dim, n_biased, n_uniform),
        ("n_users", "n_items", "latent_dim", "n_biased", "n_uniform"))
    if n_biased > n_users * n_items or n_uniform > n_users * n_items:
        raise ValueError("log size exceeds the number of distinct cells")
    exposure_skew, bias = _real(exposure_skew, "exposure_skew"), _real(bias, "bias")
    root = RngStream(seed)
    fr = root.split("factors").generator
    u_f = fr.normal(size=(n_users, latent_dim)) / np.sqrt(latent_dim)
    i_f = fr.normal(size=(n_items, latent_dim))
    # sigmoid(LOGIT_SCALE * (u_f @ i_f.T) + bias), in place.
    prob = u_f @ i_f.T
    prob *= LOGIT_SCALE
    prob += bias
    np.negative(prob, out=prob)
    np.exp(prob, out=prob)
    prob += 1.0
    np.divide(1.0, prob, out=prob)
    world = SyntheticWorld(prob=prob)
    flat_prob = prob.reshape(-1)

    # Gumbel top-k, exact weighted sampling without replacement: the n
    # cells of largest skew * prob + Gumbel noise are those of smallest
    # log(-log u) - skew * prob.
    biased_rng = root.split("biased-cells")

    def gumbel_keys(start, stop):
        keys = biased_rng.random(stop - start)
        np.log(keys, out=keys)
        np.negative(keys, out=keys)
        np.log(keys, out=keys)
        keys -= exposure_skew * flat_prob[start:stop]
        return keys

    # With equal weights the Gumbel top-k reduces to the n largest uniform keys.
    uniform_rng = root.split("uniform-cells")

    def negated_uniform_keys(start, stop):
        return np.negative(uniform_rng.random(stop - start))

    biased_cells = _smallest_cells(n_biased, prob.size, gumbel_keys)
    uniform_cells = _smallest_cells(n_uniform, prob.size, negated_uniform_keys)

    label_rng = root.split("labels").generator
    groups = []
    for cells, src in ((biased_cells, Source.BIASED), (uniform_cells, Source.UNIFORM)):
        us, its = np.divmod(cells, n_items)
        labels = label_rng.random(cells.size) < prob[us, its]
        ratings = np.where(labels, 5, label_rng.integers(1, 5, size=cells.size))
        groups.append((us, its, ratings, src))
    return world, _Dataset._from_columns(n_users, n_items, groups)
