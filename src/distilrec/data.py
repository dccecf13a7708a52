"""Dataset ingestion, binarization, splitting, and pair sampling.

Logged feedback arrives from two logging policies: a small slice where
items were shown uniformly at random (an unbiased sample of preference)
and a large slice logged by a deployed recommender (exposure-biased).
Ratings on a 1-5 scale are binarized: only a 5 counts as a positive.
A log is held as columns, not one Python object per rating: ``Rows`` holds
int32 ``users`` and ``items``, int8 ``ratings`` and a bool ``is_uniform``, 10
bytes a row, and makes an ``Interaction`` only when a caller reads a row.
``Rows`` checks its columns on construction, on the int64 input before it is
narrowed, naming the first bad row, so every log is checked once, where its
columns are made: by the generator, a loader, a slice, a sum or a caller.
Every key formed from ids (``Dataset``'s duplicate check, the sampler's cells)
is widened to int64 before any product, and ``pack`` gives int64 ids.  The
generator and the loaders log each source as one run, so ``by_source`` on
their logs is a slice whose columns are views of the log's.  A list or tuple
of rows is read into columns once, by ``_as_rows``, which takes nothing else
as a log and adds the list's own checks: each row an ``Interaction``, its
label and its source.  ``Dataset`` then checks only the log: its grid and
the first row off it or duplicated.

The native loaders parse each file with one ``np.loadtxt``.  Only a file
it rejects, or one whose values fail a range check, is read again line by
line, to name the first bad line as ``path:line``.

The module also builds synthetic ground-truth worlds with a known
preference matrix; these serve as oracles for debiasing experiments.  No
array spans the grid: the matrix is held as its float64 latent factors and
computed on read, in float32, by one fixed-order formula.  The biased log's
selection keys read a float64 BLAS block of whole user rows at a time, and
every reader, the generator's labels among them, reads the float32
fixed-order truth.
"""

from __future__ import annotations

import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import eq
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from ._rules import (_as_int64, _check_columns, _check_on_grid, _check_seed, _count, _first,
                     _member, _real)
from .rng import RngStream

__all__ = [
    "Source",
    "Interaction",
    "Rows",
    "Dataset",
    "DataFormatError",
    "SplitSpec",
    "UnobservedSampler",
    "SyntheticWorld",
    "TruthMatrix",
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

    Building a row checks nothing.  A list of rows is checked when it is read
    into ``Rows``, by ``Dataset`` or by any function that takes rows.
    """

    user: int
    item: int
    rating: int
    label: int
    source: Source


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


_SOURCES = (Source.BIASED, Source.UNIFORM)  # indexed by ``Rows.is_uniform``
ROW_BLOCK = 1 << 12  # rows made at once when ``Rows`` is iterated
_DTYPES = (np.dtype(np.int32), np.dtype(np.int32), np.dtype(np.int8))  # users, items, ratings


class Rows:
    """Logged rows as parallel columns, 10 bytes a row: int32 ``users`` and ``items``,
    int8 ``ratings`` and bool ``is_uniform``; the rating rule gives the labels.  An int
    index makes an ``Interaction``, iteration makes them ``ROW_BLOCK`` at a time, and a
    slice, bool mask or index array gives ``Rows``, whose columns are views of these for
    a slice; ``+`` appends ``Rows`` or a list of ``Interaction``s.  The columns are checked on
    construction, on the int64 input before it is narrowed: whole int64 ids and ratings,
    ids within int32 and ratings in 1-5, each naming its first bad row, a bool
    ``is_uniform``, and all four 1-D and of one length; columns already int32 and int8
    are held as they are.  The arrays are then made read-only, so no view changes a
    checked ``Dataset``, and the four attributes are read-only too, so no column is
    replaced.
    """

    __slots__ = ("_columns",)
    users, items, ratings, is_uniform = (property(lambda self, k=k: self._columns[k])
                                         for k in range(4))

    def __init__(self, users, items, ratings, is_uniform):
        users, items, ratings = (
            column if column.dtype == dtype else _as_int64(column, name)
            for column, dtype, name in zip(map(np.asarray, (users, items, ratings)), _DTYPES,
                                           ("user", "item", "rating")))
        _check_columns("Rows", users=users, items=items, ratings=ratings, is_uniform=is_uniform)
        narrow = [column.astype(dtype, copy=False)
                  for column, dtype in zip((users, items, ratings), _DTYPES)]
        for ids, wide, name in zip(narrow, (users, items), ("user", "item")):
            # An id the cast changes lies outside int32; an int32 column is not cast.
            if ids is not wide and (k := _first(ids != wide)) is not None:
                raise ValueError(f"row {k}: {name} id {wide[k]} outside int32")
        if (k := _first((ratings < 1) | (ratings > 5))) is not None:
            raise ValueError(f"row {k}: rating {ratings[k]} outside 1-5")
        if (is_uniform := np.asarray(is_uniform)).dtype != bool:
            raise ValueError(f"Rows: is_uniform has dtype {is_uniform.dtype}, not bool")
        self._columns = (*narrow, is_uniform)
        for column in self._columns:
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.users.size

    def _block(self, start: int, stop: int) -> list[Interaction]:
        """Rows ``start..stop-1``, each made by ``tuple.__new__``, not ``Interaction.__new__``."""
        users, items, ratings, is_uniform = (column[start:stop] for column in self._columns)
        labels = (ratings == 5).astype(np.int64)
        return list(map(tuple.__new__, repeat(Interaction), zip(
            users.tolist(), items.tolist(), ratings.tolist(), labels.tolist(),
            map(_SOURCES.__getitem__, is_uniform.tolist()))))

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self[[key]]._block(0, 1)[0]
        return Rows(*(column[key] for column in self._columns))

    def __iter__(self):
        for start in range(0, len(self), ROW_BLOCK):
            yield from self._block(start, start + ROW_BLOCK)

    def __add__(self, other) -> "Rows":
        other = _as_rows(other, "other")
        return Rows(*map(np.concatenate, zip(self._columns, other._columns)))

    def __eq__(self, other) -> bool:
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return isinstance(other, Rows) and all(map(np.array_equal, self._columns, other._columns))


def _as_rows(rows: Rows | Sequence[Interaction], name: str) -> Rows:
    """The one conversion: ``rows``, the argument ``name``, as ``Rows``; a list or tuple
    is read once and checked.

    Anything else fails, naming ``name``.  A list's first fault wins in the order: a row
    not an ``Interaction``, a value not a whole int64 (user, item, rating, then label), a
    rating outside 1-5, a label against its rating, a source.
    """
    if isinstance(_member(rows, name, Rows, list, tuple), Rows):
        return rows
    if (k := _first([not isinstance(row, Interaction) for row in rows])) is not None:
        raise ValueError(f"row {k}: {rows[k]!r} is not an Interaction")
    fields = list(zip(*rows)) or [()] * len(Interaction._fields)
    users, items, ratings, labels = (_as_int64(column, field) for column, field in zip(
        fields, ("user", "item", "rating", "label")))
    sources = np.fromiter(fields[4], dtype=object, count=len(rows))
    checked = Rows(users, items, ratings, sources == Source.UNIFORM)
    if (k := _first(labels != (ratings == 5))) is not None:
        raise ValueError(f"row {k}: label {labels[k]} inconsistent with rating {ratings[k]}")
    if (k := _first(~checked.is_uniform & (sources != Source.BIASED))) is not None:
        raise ValueError(f"row {k}: source {sources[k]!r} is not a Source")
    return checked


def _cell_keys(rows: Rows, n_items: int) -> np.ndarray:
    """One int64 key per row, ``user * n_items + item``, built in one array widened from
    the int32 ids before any product, so no key wraps at 2**31."""
    keys = rows.users.astype(np.int64)
    keys *= n_items
    keys += rows.items
    return keys


def _log_keys(rows: Rows, n_items: int) -> np.ndarray:
    """One int64 key per row, equal only for rows of one cell and one source, built in
    one array."""
    keys = _cell_keys(rows, n_items)
    keys *= 2
    keys += rows.is_uniform
    return keys


@dataclass(frozen=True)
class Dataset:
    """Logged rows on an ``n_users`` x ``n_items`` grid of at most 2**62 cells, so every
    row's key fits int64; ``interactions`` is given as ``Rows`` or a list of ``Interaction``s
    and held as ``Rows``, whose rows are checked.  The log itself is checked here: every
    row on the grid, none a duplicate.  The fields are frozen once checked."""

    interactions: Rows
    n_users: int
    n_items: int

    def __post_init__(self):
        n_users, n_items = _count(self.n_users, "n_users", 0), _count(self.n_items, "n_items", 0)
        if n_users * n_items > 2**62:
            raise ValueError(f"grid n_users={n_users} x n_items={n_items} exceeds 2**62 cells")
        rows = _as_rows(self.interactions, "interactions")
        _check_on_grid(rows.users, rows.items, n_users, n_items)
        keys = _log_keys(rows, n_items)
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            # Only a log with a duplicate pays for the inverse that names its first one.
            _, first, group = np.unique(_log_keys(rows, n_items), return_index=True,
                                        return_inverse=True)
            k = _first(first[group] != np.arange(keys.size))
            raise ValueError(f"row {k}: duplicate of row {first[group[k]]}: user={rows.users[k]}, "
                             f"item={rows.items[k]}, source={rows[k].source.value}")
        for name, value in (("interactions", rows), ("n_users", n_users), ("n_items", n_items)):
            object.__setattr__(self, name, value)

    def by_source(self, source: Source) -> Rows:
        """The ``Rows`` that ``source`` logged, in log order.

        When they form one run, as in every log the loaders and the generator make, this
        is a slice: its columns are views of the log's, and keep all of them alive while
        it is held.  Otherwise it is a copy, selected by a bool mask.
        """
        rows = self.interactions
        mine = rows.is_uniform == (_member(source, "source", Source) is Source.UNIFORM)
        start = _first(mine) or 0
        run = slice(start, start + np.count_nonzero(mine))
        return rows[run] if mine[run].all() else rows[mine]


# Bound once, here: the producers build through, and ``UnobservedSampler`` tests against,
# the class defined above, whatever the module's ``Dataset`` name is later made to refer to.
_Dataset = Dataset


def pack(interactions: Rows | Sequence[Interaction]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (users, items, labels) columns for vectorized scoring/training: int64 copies of
    the ids and float64 labels, new arrays that share nothing with the rows."""
    rows = _as_rows(interactions, "interactions")
    return (rows.users.astype(np.int64), rows.items.astype(np.int64),
            (rows.ratings == 5).astype(np.float64))


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
    is_uniform = np.repeat([False, True], [len(biased), len(triples) - len(biased)])
    return _Dataset(Rows(users, items, triples[:, 2], is_uniform),
                    user_ids.size, item_ids.size)


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
    # Nonzero cells in C order: the biased log, then the uniform one, each by user, then item.
    logs = np.stack([biased_m, uniform_m])
    sources, users, items = np.nonzero(logs)
    return _Dataset(Rows(users, items, logs[sources, users, items], sources == 1),
                    *biased_m.shape)


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
    uniform_data: Rows | Sequence[Interaction], spec: SplitSpec
) -> tuple[Rows, Rows, Rows]:
    """Seeded shuffle of uniformly logged rows, then partition into (train, validation,
    test) ``Rows``; a biased row is rejected, naming it.

    Sizes are floor(f*n) for train, then the remainder split as evenly
    as possible (validation gets the odd element).  The three parts are
    disjoint and exhaustive, and each must be nonempty.
    """
    rows, spec = _as_rows(uniform_data, "uniform_data"), _member(spec, "spec", SplitSpec)
    if (k := _first(~rows.is_uniform)) is not None:
        raise ValueError(f"row {k}: source biased; split_uniform takes uniform rows only")
    n = len(rows)
    n_train = int(np.floor(spec.uniform_train_fraction * n))
    n_val = int(np.ceil((n - n_train) / 2))
    if 0 in (sizes := (n_train, n_val, n - n_train - n_val)):
        raise ValueError(f"uniform_train_fraction {spec.uniform_train_fraction} of {n} uniform "
                         f"rows leaves an empty part: sizes {sizes}")
    order = RngStream(spec.seed).split("uniform-split").generator.permutation(n)
    shuffled = rows[order]
    return shuffled[:n_train], shuffled[n_train:n_train + n_val], shuffled[n_train + n_val:]


def partition_batches(
    data: Rows | Sequence[Interaction], m: int, rng: RngStream
) -> list[Rows]:
    """Seeded shuffle into m ``Rows`` batches; the first n%m batches get one extra."""
    rows = _as_rows(data, "data")
    n, m, rng = len(rows), _count(m, "m"), _member(rng, "rng", RngStream)
    if m > n:
        raise ValueError(f"cannot split {n} records into {m} batches")
    parts = np.array_split(rng.generator.permutation(n), m)
    return [rows[part] for part in parts]


# ---------------------------------------------------------------------------
# Unobserved-pair sampling
# ---------------------------------------------------------------------------


class UnobservedSampler:
    """Uniform with-replacement sampler over the (user, item) pairs a ``Dataset`` never logged.

    It reads the checked ``Dataset``'s grid and id columns as they are; ``n_users`` and
    ``n_items`` are read-only.  Each draw is a rank among the free cells, mapped exactly to
    its key.  It holds one int64 array, the free cells before each observed key in
    ascending order; the observed keys themselves are derived from it on read.
    """

    n_users, n_items = property(lambda self: self._n_users), property(lambda self: self._n_items)

    def __init__(self, dataset: Dataset, rng: RngStream):
        rows = _member(dataset, "dataset", _Dataset).interactions
        self._n_users, self._n_items = dataset.n_users, dataset.n_items
        self._rng = _member(rng, "rng", RngStream)
        keys = _distinct(_cell_keys(rows, self.n_items))
        self._n_free = self.n_users * self.n_items - keys.size
        if self._n_free == 0:
            raise ValueError("every (user, item) pair is observed; no complement to sample")
        keys -= np.arange(keys.size)
        self._free_before = keys

    @property
    def _observed_keys(self) -> np.ndarray:
        """The observed cells' keys, ``user * n_items + item``, ascending."""
        return self._free_before + np.arange(self._free_before.size)

    @classmethod
    def from_dataset(cls, dataset: Dataset, rng: RngStream) -> "UnobservedSampler":
        return cls(dataset, rng)

    def sample(self, n: int) -> np.ndarray:
        """n pairs uniform over the unobserved complement, shape (n, 2)."""
        ranks = self._rng.generator.integers(0, self._n_free, size=_count(n, "n", 0))
        # Rank r's cell lies past each observed key with at most r free cells before it.
        keys = ranks + np.searchsorted(self._free_before, ranks, side="right")
        return np.column_stack(np.divmod(keys, self.n_items))


# ---------------------------------------------------------------------------
# Synthetic ground-truth world
# ---------------------------------------------------------------------------


LOGIT_SCALE = 3.0
# Cells whose selection keys are drawn and held at once, and cells of float64 truth a read
# computes at once; the float64 truth behind a chunk's biased keys is computed over the
# whole user rows that cover it.
GRID_CHUNK = 1 << 16
_TRUTH_READS = "prob[rows] or prob[users, items] with integer ids, or np.asarray(prob)"


def _sigmoid(logits: np.ndarray, bias: float) -> np.ndarray:
    """sigmoid(LOGIT_SCALE * logits + bias), in place on the float64 ``logits``."""
    logits *= LOGIT_SCALE
    logits += bias
    np.negative(logits, out=logits)
    with np.errstate(over="ignore"):  # exp(-logit) = inf gives the limit 0.0
        np.exp(logits, out=logits)
    logits += 1.0
    return np.divide(1.0, logits, out=logits)


class TruthMatrix:
    """A world's true preference matrix, P[u, i] = p(label=1 | u, i), computed on read.

    It holds read-only float64 copies of the user and item factors, and ``bias``; no
    array spans the grid.  Every cell is read as the float32 rounding of
    ``_sigmoid(sum_d u[d] * i[d], bias)``, the sum taken in the order d = 0 ... L-1,
    so a cell has one value however it is read.  It serves ``shape``, ``dtype`` and:

    - ``prob[rows]``: the whole rows of integer user ids, as outer products of factor
      columns;
    - ``prob[users, items]``: integer ids broadcast together as by numpy's integer
      indexing, so ``prob[np.ix_(users, items)]`` and ``prob[users[:, None], items]``
      work;
    - ``np.asarray(prob)``: the whole grid, made at that call.

    A read computes about ``GRID_CHUNK`` cells of float64 at a time.  An id out of
    range raises IndexError; any other key raises TypeError, and an assignment
    ValueError, each naming the accepted reads.
    """

    __slots__ = ("_factors", "_bias")
    user_factors, item_factors = (property(lambda self, k=k: self._factors[k]) for k in range(2))
    bias = property(lambda self: self._bias)
    shape = property(lambda self: (len(self.user_factors), len(self.item_factors)))
    dtype = np.dtype(np.float32)

    def __init__(self, user_factors, item_factors, bias: float):
        factors = tuple(np.array(f, dtype=np.float64) for f in (user_factors, item_factors))
        if any(f.ndim != 2 for f in factors) or not factors[0].shape[1] == factors[1].shape[1] > 0:
            raise ValueError(f"factors of shapes {factors[0].shape} and {factors[1].shape} "
                             "are not two 2-D arrays of one nonzero width")
        for f in factors:
            f.flags.writeable = False
        self._factors, self._bias = factors, _real(bias, "bias")

    @staticmethod
    def _ids(key) -> np.ndarray:
        ids = np.asarray(key)
        if ids.dtype.kind not in "iu":
            what = type(key).__name__ if ids.dtype == object else f"{ids.dtype} ids"
            raise TypeError(f"a truth matrix takes no {what} as a key; it reads {_TRUTH_READS}")
        return ids

    def __getitem__(self, key) -> np.ndarray:
        if not isinstance(key, tuple):
            return self._cells(self._ids(key)[..., None], np.arange(self.shape[1]))
        if len(key) != 2:
            raise TypeError(f"a truth matrix takes no {len(key)}-part key; it reads {_TRUTH_READS}")
        return self._cells(*map(self._ids, key))

    def __setitem__(self, key, value):
        raise ValueError(f"a truth matrix is read-only; it reads {_TRUTH_READS}")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a truth matrix is computed on read, so no copy can be avoided")
        grid = self[np.arange(self.shape[0])]
        return grid if dtype is None else grid.astype(dtype, copy=False)

    def _cells(self, users: np.ndarray, items: np.ndarray):
        """The cells at ``users`` and ``items`` broadcast together, a block of whole
        leading-axis slices at a time."""
        ndim = max(users.ndim, items.ndim)
        users, items = np.atleast_1d(users, items)
        out = np.empty(np.broadcast_shapes(users.shape, items.shape), dtype=self.dtype)
        step = max(1, GRID_CHUNK // max(1, math.prod(out.shape[1:])))
        for start in range(0, len(out), step):
            part = slice(start, start + step)
            # An id array spans the leading axis or is broadcast along it.
            u, i = (ids[part] if ids.ndim == out.ndim and len(ids) > 1 else ids
                    for ids in (users, items))
            columns = zip(self.user_factors.T, self.item_factors.T)
            u_col, i_col = next(columns)
            logits = u_col[u] * i_col[i]
            term = np.empty_like(logits)
            for u_col, i_col in columns:
                logits += np.multiply(u_col[u], i_col[i], out=term)
            out[part] = _sigmoid(logits, self.bias)
        return out if ndim else out[0]


@dataclass(frozen=True)
class SyntheticWorld:
    """Ground truth of a generated world: the matrix both logs were drawn from.

    ``prob`` is a ``TruthMatrix``: the float32 truth, computed on read from the world's
    factors.  The biased log's keys read float64 BLAS blocks of the same factors; both
    logs' labels read ``prob``.
    """

    prob: TruthMatrix         # P[u, i] = p(label=1 | u, i), float32, entries in [0, 1]


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
        keys = chunk[hit]
        hit += start
        parts.append((hit, keys))
        held += hit.size
        if held >= 2 * n or stop == n_cells:
            # One piece is cut as it is: a copy would add to the peak of both logs at once.
            cells, keys = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
            keep = np.argpartition(keys, n - 1)[:n]
            keys = keys[keep]
            parts, held, bound = [(cells[keep], keys)], n, keys.max()
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
    drawn ``GRID_CHUNK`` cells at a time, so no array spans the grid.  The
    world's ``prob`` is a ``TruthMatrix`` over the factors.  Each log's rows
    come in ascending cell order (user, then item), and its labels are drawn
    in that order, against the float32 fixed-order truth that ``prob`` reads.

    For each chunk, the biased log's key function computes the float64 logits
    ``u_f[r0:r1] @ i_f.T`` of the whole user rows that cover it (of its own
    items alone when it lies inside one row), applies the sigmoid to the
    chunk's cells in place and draws the chunk's keys from those float64
    values.  A BLAS may round such a block in the last bit unlike the
    fixed-order sum that ``prob`` reads; the float32 rounding hides such a
    difference unless it crosses a float32 rounding boundary.

    The uniform log's keys never read the truth, so on a grid of at least
    ``2 * GRID_CHUNK`` cells a ``ThreadPoolExecutor``'s one worker selects
    that log meanwhile; it is joined on every exit, and its exception reaches
    the caller.  Each log reads its own Philox stream (``"biased-cells"``,
    ``"uniform-cells"``) from its start, so the world is bit for bit the same
    on one thread or two.
    """
    n_users, n_items, latent_dim, n_biased, n_uniform = map(
        _count, (n_users, n_items, latent_dim, n_biased, n_uniform),
        ("n_users", "n_items", "latent_dim", "n_biased", "n_uniform"))
    n_cells = n_users * n_items
    if n_biased > n_cells or n_uniform > n_cells:
        raise ValueError("log size exceeds the number of distinct cells")
    exposure_skew, bias = _real(exposure_skew, "exposure_skew"), _real(bias, "bias")
    root = RngStream(seed)
    fr = root.split("factors").generator
    world = SyntheticWorld(TruthMatrix(fr.normal(size=(n_users, latent_dim)) / np.sqrt(latent_dim),
                                       fr.normal(size=(n_items, latent_dim)), bias))
    u_f, i_f = world.prob.user_factors, world.prob.item_factors
    # Made here, so the second thread allocates only its candidates.
    draws, uniform_draws = np.empty((2, min(GRID_CHUNK, n_cells)))

    # Gumbel top-k, exact weighted sampling without replacement: the n
    # cells of largest skew * prob + Gumbel noise are those of smallest
    # log(-log u) - skew * prob.
    biased_rng = root.split("biased-cells").generator

    def gumbel_keys(start, stop):
        # The float64 logits of cells start..stop-1, from the whole rows that cover them;
        # a chunk inside one row takes only its own items, as a row may be wider than a chunk.
        r0, offset = divmod(start, n_items)
        r1 = -(-stop // n_items)
        if r1 - r0 == 1:
            block = (u_f[r0:r1] @ i_f[offset:offset + stop - start].T).reshape(-1)
        else:
            block = (u_f[r0:r1] @ i_f.T).reshape(-1)[offset:offset + stop - start]
        _sigmoid(block, bias)
        keys = biased_rng.random(out=draws[:stop - start])
        np.log(keys, out=keys)
        np.negative(keys, out=keys)
        np.log(keys, out=keys)
        keys -= np.multiply(exposure_skew, block, out=block)
        return keys

    # With equal weights the Gumbel top-k reduces to the n largest uniform keys.
    uniform_rng = root.split("uniform-cells").generator

    def negated_uniform_keys(start, stop):
        keys = uniform_rng.random(out=uniform_draws[:stop - start])
        return np.negative(keys, out=keys)

    if n_cells >= 2 * GRID_CHUNK:
        with ThreadPoolExecutor(1, thread_name_prefix="generate_synthetic-uniform-log") as worker:
            uniform = worker.submit(_smallest_cells, n_uniform, n_cells, negated_uniform_keys)
            biased_cells = _smallest_cells(n_biased, n_cells, gumbel_keys)
        uniform_cells = uniform.result()
    else:
        biased_cells = _smallest_cells(n_biased, n_cells, gumbel_keys)
        uniform_cells = _smallest_cells(n_uniform, n_cells, negated_uniform_keys)

    # Per log: the labels' draws, then the low ratings' draws.
    users, items = np.divmod(np.concatenate([biased_cells, uniform_cells]), n_items)
    label_rng = root.split("labels").generator
    ratings = np.concatenate([
        np.where(label_rng.random(truth.size) < truth, 5,
                 label_rng.integers(1, 5, size=truth.size))
        for truth in np.split(world.prob[users, items], [n_biased])])
    is_uniform = np.repeat([False, True], [n_biased, n_uniform])
    return world, _Dataset(Rows(users, items, ratings, is_uniform), n_users, n_items)
