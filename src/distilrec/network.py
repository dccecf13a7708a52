"""Minimal feedforward scorer for user-item pairs.

The model embeds the user id and the item id, concatenates the two
embeddings, pushes them through a small stack of ReLU layers and squashes
the final pre-activation with a sigmoid, yielding ``p(label=1 | user,
item)``.  Dropout (inverted convention) is applied after each hidden
activation; drawing fresh masks at inference time turns the scorer into
an approximate posterior sampler.

Everything is plain numpy with hand-written reverse-mode gradients for
this fixed architecture; there is no general autodiff.  ``Network`` is the
one parameter container, and the optimizer keeps Adam's moments as
``Network``s of the same config.  ``backprop`` returns a ``Gradient``: each
embedding table's touched rows with their values and the L2 coefficient
that the update folds into every row, and the dense layers' arrays in
full.  Every construction, checkpoint loads included, checks each array's
shape against the config and requires one dtype, float32 or float64,
across all arrays.  ``init_network`` makes float32; a float64 network, as
the finite-difference oracles build through ``Network.from_arrays``, runs
the same code in float64.  Every array the size of a table or of a batch's
activations follows the parameters' dtype: the activations, logits and
probabilities of both forwards, and every array of the gradient.

A training step runs ``forward_cached`` once over all its rows, observed
and unobserved concatenated, and ``backprop`` once over the per-row logit
gradients.  No array of an embedding table's shape is made: the forward
keeps each table's touched rows, found with one entry per table row (a
presence mask and a slot), and ``backprop`` scatters the rows' gradients
into a block of those rows alone.  The rest of the tape
``forward_cached`` keeps is its activations: ``backprop`` recovers the
ReLU gates and the dropout masks from them, since a unit is live exactly
when its activation is positive, and every live unit was scaled by
1/(1-dropout_rate).

Both forwards share the factored first layer, ``_first_layer``,
``[e_u; e_i] @ W0 = (user_emb @ W0[:d])[u] + (item_emb @ W0[d:])[i]``,
projecting once per call only the table rows the ids touch, and one layer
stack, ``_layer_stack``; no concatenated input is built.  So the network
that is sampled is the network that is trained, bit for bit.  Scoring
keeps no tape: ``forward_batch`` walks the pairs in blocks of
``SCORE_BLOCK`` rows through the stack, drawing each block's dropout masks
layer by layer.  Only the probabilities outlive a block.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from ._rules import (_as_int64, _as_pairs, _check_columns, _check_on_grid, _count, _member,
                     _real)
from .rng import RngStream

__all__ = [
    "ForwardMode",
    "NetworkConfig",
    "Network",
    "Gradient",
    "init_network",
    "forward_batch",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 2
SCORE_BLOCK = 4096  # rows per forward_batch block; bounds its temporaries to a few MiB


class ForwardMode(Enum):
    """How dropout behaves during a forward pass."""

    DETERMINISTIC = "deterministic"
    TRAIN_DROPOUT = "train_dropout"
    STOCHASTIC_INFERENCE = "stochastic_inference"


@dataclass(frozen=True)
class NetworkConfig:
    n_users: int
    n_items: int
    embedding_dim: int
    hidden_sizes: tuple[int, ...]
    dropout_rate: float = 0.0

    def __post_init__(self):
        for name in ("n_users", "n_items", "embedding_dim"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        object.__setattr__(self, "hidden_sizes", tuple(
            _count(h, f"hidden_sizes[{k}]")
            for k, h in enumerate(_member(self.hidden_sizes, "hidden_sizes", tuple, list))))
        if not 1 <= len(self.hidden_sizes) <= 3:
            raise ValueError("hidden_sizes must contain 1 to 3 layers")
        object.__setattr__(self, "dropout_rate",
                           _real(self.dropout_rate, "dropout_rate", 0.0, 1.0, low_closed=True))

    def layer_widths(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) of every dense layer, output layer included."""
        widths = [2 * self.embedding_dim, *self.hidden_sizes, 1]
        return list(zip(widths[:-1], widths[1:]))

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Name and shape of every trainable array, in ``param_arrays`` order."""
        shapes = [("user_emb", (self.n_users, self.embedding_dim)),
                  ("item_emb", (self.n_items, self.embedding_dim))]
        for k, (fan_in, fan_out) in enumerate(self.layer_widths()):
            shapes += [(f"weights[{k}]", (fan_in, fan_out)), (f"biases[{k}]", (fan_out,))]
        return shapes


@dataclass(frozen=True)
class Network:
    """Parameter container, frozen once checked; the optimizer mutates its arrays in place.

    Adam's moments are Networks too, of the same config, so every array is
    shaped by the config and checked against it on construction.  Every
    array has one dtype, float32 or float64, which is the network's ``dtype``.
    """

    config: NetworkConfig
    user_emb: np.ndarray
    item_emb: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        _member(self.config, "config", NetworkConfig)
        _check_arrays(self.config, self.weights, self.biases, self.config.param_shapes(),
                      self.param_arrays)

    @property
    def dtype(self) -> np.dtype:
        """The one dtype of every array, ``user_emb``'s."""
        return self.user_emb.dtype

    @classmethod
    def from_arrays(cls, config: NetworkConfig, arrays: list[np.ndarray]) -> "Network":
        """Network from arrays in ``param_arrays`` order."""
        return cls(config, arrays[0], arrays[1], arrays[2::2], arrays[3::2])

    def param_arrays(self) -> list[np.ndarray]:
        """All trainable arrays, in fixed declaration order."""
        out = [self.user_emb, self.item_emb]
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def l2_arrays(self) -> list[np.ndarray]:
        """The arrays under the L2 penalty: embeddings and weights, not biases."""
        return [self.user_emb, self.item_emb, *self.weights]

    def all_finite(self) -> bool:
        """Whether every entry is finite, read from each array's extremes, to which a NaN
        propagates, so no mask the size of a table is made."""
        return all(np.isfinite(a.min()) and np.isfinite(a.max()) for a in self.param_arrays())

    def zeros_like(self) -> "Network":
        """A zero Network of the same config, e.g. a fresh Adam moment."""
        return Network.from_arrays(self.config, [np.zeros_like(a) for a in self.param_arrays()])


@dataclass(frozen=True)
class Gradient:
    """The loss gradient of a ``Network`` of ``config``, frozen once checked.

    Each embedding table's gradient is ``2 * l2_coeff * table`` plus, on the
    rows the batch touched, their values: ``user_rows`` and ``item_rows`` are
    ascending distinct int64 row ids, and ``user_values`` and ``item_values``
    hold one row of the table's width per id.  The dense layers' arrays hold
    their whole gradient, L2 term included.  Every array has one dtype,
    float32 or float64, which is the gradient's ``dtype``.
    """

    config: NetworkConfig
    user_rows: np.ndarray
    user_values: np.ndarray
    item_rows: np.ndarray
    item_values: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    l2_coeff: float = 0.0

    def __post_init__(self):
        _member(self.config, "config", NetworkConfig)
        d = self.config.embedding_dim
        tables = (("user", self.user_rows, self.config.n_users),
                  ("item", self.item_rows, self.config.n_items))
        for name, rows, n in tables:
            _member(rows, f"{name}_rows", np.ndarray)
            if not (rows.dtype == np.int64 and rows.ndim == 1
                    and not np.any(rows[1:] <= rows[:-1])
                    and (not rows.size or 0 <= rows[0] and rows[-1] < n)):
                raise ValueError(f"{name}_rows must be ascending distinct int64 ids in [0, {n})")
        shapes = [(f"{name}_values", (len(rows), d)) for name, rows, _ in tables]
        _check_arrays(self.config, self.weights, self.biases,
                      shapes + self.config.param_shapes()[2:], self.arrays)
        object.__setattr__(self, "l2_coeff",
                           _real(self.l2_coeff, "l2_coeff", 0.0, low_closed=True))

    @property
    def dtype(self) -> np.dtype:
        """The one dtype of every array, ``user_values``'."""
        return self.user_values.dtype

    def arrays(self) -> list[np.ndarray]:
        """The two tables' row values, then the dense layers' arrays in ``param_arrays`` order."""
        out = [self.user_values, self.item_values]
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


def _check_arrays(config: NetworkConfig, weights, biases, shapes, arrays) -> None:
    """Checks ``config``'s count of weights and biases, then each of ``arrays()`` against its
    (name, shape) in ``shapes``, and one dtype across them, float32 or float64: the first's."""
    n_layers = len(config.layer_widths())
    _member(weights, "weights", list, tuple)
    _member(biases, "biases", list, tuple)
    if len(weights) != n_layers or len(biases) != n_layers:
        raise ValueError(f"{len(weights)} weights and {len(biases)} biases; "
                         f"config expects {n_layers} of each")
    arrays = arrays()
    for (name, shape), a in zip(shapes, arrays):
        if _member(a, name, np.ndarray).shape != shape:
            raise ValueError(f"{name} has shape {a.shape}; config expects {shape}")
    first, dtype = shapes[0][0], arrays[0].dtype
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"{first} has dtype {dtype}; float32 or float64 expected")
    for (name, _), a in zip(shapes, arrays):
        if a.dtype != dtype:
            raise ValueError(f"{name} has dtype {a.dtype}; {first}'s {dtype} expected")


def init_network(config: NetworkConfig, rng: RngStream) -> Network:
    """Fresh float32 network: fan-based uniform weights, zero biases.

    Each parameter matrix of shape (fan_in, fan_out) is drawn i.i.d.
    uniform on +-sqrt(6 / (fan_in + fan_out)) in float64 and then cast to
    float32, so the draws and the stream's position are those of a float64
    init; embedding tables count their entity dimension as fan_in.
    Deterministic given the stream.
    """
    _member(config, "config", NetworkConfig)
    r = _member(rng, "rng", RngStream).split("init")

    def fan_uniform(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return r.generator.uniform(-limit, limit, size=(fan_in, fan_out))

    arrays = [fan_uniform(*shape) if len(shape) == 2 else np.zeros(shape)
              for _, shape in config.param_shapes()]
    return Network.from_arrays(config, [a.astype(np.float32) for a in arrays])


@dataclass(frozen=True)
class ForwardCache:
    """What ``backprop`` reads: ids, each table's touched rows, activations and outputs; the
    first layer's input is gathered again from the tables."""

    users: np.ndarray
    items: np.ndarray
    user_rows: np.ndarray              # the user rows the ids touch, ascending, (k_u,)
    user_index: np.ndarray             # each pair's index into user_rows, (B,)
    item_rows: np.ndarray              # as user_rows, for the items, (k_i,)
    item_index: np.ndarray             # each pair's index into item_rows, (B,)
    acts: list[np.ndarray]             # post-ReLU, post-dropout, (B, w_k)
    scale: float                       # 1/(1-dropout_rate) if masks were drawn, else 1
    logits: np.ndarray                 # final pre-activation, (B,)
    probs: np.ndarray                  # sigmoid(logits), (B,)


def _mask_scale(net: Network, mode: ForwardMode, rng: RngStream | None) -> float | None:
    """1/(1-dropout_rate) if ``mode``, a ``ForwardMode``, draws dropout masks, else None;
    ``rng`` must be an ``RngStream`` if masks are drawn or if it is given."""
    draws = (_member(mode, "mode", ForwardMode) is not ForwardMode.DETERMINISTIC
             and net.config.dropout_rate != 0.0)
    if draws or rng is not None:
        _member(rng, "rng", RngStream)
    return 1.0 / (1.0 - net.config.dropout_rate) if draws else None


def _layer_stack(net: Network, z0: np.ndarray, scale: float | None, rng: RngStream | None):
    """(activations, logits, probs) from the first layer's product ``z0`` before its bias.

    ``z0`` is consumed in place.  With a ``scale``, a fresh Bernoulli mask
    is drawn for every element of every hidden layer, in layer order.
    """
    acts = []
    for k, b in enumerate(net.biases[:-1]):
        a = z0 if k == 0 else a @ net.weights[k]
        a += b
        np.maximum(a, 0.0, out=a)
        if scale is not None:
            a *= rng.random(a.shape) >= net.config.dropout_rate
            a *= scale
        acts.append(a)
    logits = (a @ net.weights[-1] + net.biases[-1]).reshape(-1)
    with np.errstate(over="ignore"):  # exp(-logit) = inf gives the limit 0.0
        probs = 1.0 / (1.0 + np.exp(-logits))
    return acts, logits, probs


def forward_cached(
    net: Network,
    users: np.ndarray,
    items: np.ndarray,
    mode: ForwardMode,
    rng: RngStream | None = None,
) -> ForwardCache:
    """Batched forward pass that keeps the tape needed by ``backprop``.

    In TRAIN_DROPOUT / STOCHASTIC_INFERENCE a fresh Bernoulli mask is
    drawn for every element and every hidden layer, scaled by
    1/(1-dropout_rate) so the expectation matches DETERMINISTIC output.
    Ids must be 1-D, of one length, and whole numbers on the config's grid; integer arrays
    pass with a dtype test.  ``rng``, needed only to draw masks, must be an ``RngStream``.
    """
    _member(net, "net", Network)
    users = _as_int64(users, "user id")
    items = _as_int64(items, "item id")
    _check_columns("forward_cached", users=users, items=items)
    _check_on_grid(users, items, net.config.n_users, net.config.n_items)
    scale = _mask_scale(net, mode, rng)
    first_layer, touched = _first_layer(net, users, items)
    acts, logits, probs = _layer_stack(net, first_layer(), scale, rng)
    return ForwardCache(users, items, *touched, acts, scale or 1.0, logits, probs)


def _row_sum_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b`` summed over blocks of 256 rows in row order, so its bits do not depend
    on the BLAS thread count; up to 256 rows it is the single product, bit for bit."""
    out = a[:256].T @ b[:256]
    for start in range(256, len(a), 256):
        out += a[start:start + 256].T @ b[start:start + 256]
    return out


def backprop(net: Network, cache: ForwardCache, dlogits: np.ndarray,
             l2_coeff: float = 0.0) -> Gradient:
    """Reverse-mode gradient given d(loss)/d(final pre-activation), and the L2 penalty's.

    Recovers the ReLU gates and dropout masks from the activations, so
    the gradient is taken of exactly the function the forward pass
    evaluated.  Weight gradients sum over the rows by ``_row_sum_product``,
    the first layer's as its user and item halves stacked.  Each table's
    gradient is scattered, pair by pair in row order, into a zero block of
    the rows the cache's ids touch, which is bit for bit the scatter into a
    whole zero table.  The L2 term ``2 * l2_coeff * W`` is added to the
    dense weights here and carried in the ``Gradient`` for the tables.
    ``dlogits`` must be 1-D, one per row of the cache, and ``l2_coeff`` a
    finite real >= 0.
    """
    _member(net, "net", Network)
    _check_columns("backprop", users=_member(cache, "cache", ForwardCache).users, dlogits=dlogits)
    cfg = net.config
    n_hidden = len(cfg.hidden_sizes)
    weights, biases = [None] * (n_hidden + 1), [None] * (n_hidden + 1)
    da = np.asarray(dlogits, dtype=net.dtype).reshape(-1, 1)   # (B, 1)
    scale = net.dtype.type(cache.scale)   # as the forward's ``a *= scale`` rounded it

    for k in range(n_hidden, -1, -1):
        dz = da if k == n_hidden else da * ((cache.acts[k] > 0.0) * scale)
        inputs = ([cache.acts[k - 1]] if k > 0   # the first layer's input, table by table
                  else [net.user_emb[cache.users], net.item_emb[cache.items]])
        weights[k] = np.vstack([_row_sum_product(a, dz) for a in inputs])
        biases[k] = dz.sum(axis=0)
        da = dz @ net.weights[k].T

    d = cfg.embedding_dim
    user_values = np.zeros((len(cache.user_rows), d), dtype=net.dtype)
    item_values = np.zeros((len(cache.item_rows), d), dtype=net.dtype)
    np.add.at(user_values, cache.user_index, da[:, :d])
    np.add.at(item_values, cache.item_index, da[:, d:])
    grads = Gradient(cfg, cache.user_rows, user_values, cache.item_rows, item_values,
                     weights, biases, l2_coeff)
    if grads.l2_coeff != 0.0:
        for g, w in zip(grads.weights, net.weights):
            g += 2.0 * grads.l2_coeff * w
    return grads


def _projected(table: np.ndarray, ids: np.ndarray,
               w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``table @ w`` over the rows ``ids`` touch, those rows, ascending, and each id's index
    into them.

    A presence mask over the table finds the rows, and a slot per table row, written only
    at those rows, gives each id its index.
    """
    present = np.zeros(len(table), dtype=bool)
    present[ids] = True
    rows = np.flatnonzero(present)
    slot = np.empty(len(table), dtype=np.intp)
    slot[rows] = np.arange(len(rows))
    return table[rows] @ w, rows, slot[ids]


def _first_layer(net: Network, users: np.ndarray, items: np.ndarray):
    """``rows -> ([e_u; e_i] @ W0)[rows]`` over the pairs, as ``(user_emb @ W0[:d])[u] +
    (item_emb @ W0[d:])[i]``, and ``(user_rows, user_index, item_rows, item_index)``, each
    table's touched rows and each pair's index into them; only those rows are projected,
    once."""
    d = net.config.embedding_dim
    proj_u, user_rows, users = _projected(net.user_emb, users, net.weights[0][:d])
    proj_i, item_rows, items = _projected(net.item_emb, items, net.weights[0][d:])
    return ((lambda rows=slice(None): proj_u[users[rows]] + proj_i[items[rows]]),
            (user_rows, users, item_rows, items))


def forward_batch(
    net: Network,
    pairs,
    mode: ForwardMode = ForwardMode.DETERMINISTIC,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Probabilities, in the network's dtype, for (user, item) pairs shaped (n, 2); ``[]`` is n = 0.

    Tape-free: the rows of each embedding table that the pairs touch,
    found with a presence mask over the table, are projected once through
    its half of the first layer.  Then the pairs run in blocks of
    ``SCORE_BLOCK`` rows and only their probabilities are kept.  Masks are drawn as in
    ``forward_cached``, one per element, block by block and within a block
    layer by layer.  Values equal ``forward_cached(...).probs``: deterministic ones at
    any n, sampled ones within one block, under a same-seeded stream.
    """
    _member(net, "net", Network)
    arr = _as_pairs(pairs)
    users, items = arr[:, 0], arr[:, 1]
    _check_on_grid(users, items, net.config.n_users, net.config.n_items)
    scale = _mask_scale(net, mode, rng)
    first_layer = _first_layer(net, users, items)[0]
    probs = np.empty(len(arr), dtype=net.dtype)
    for start in range(0, len(arr), SCORE_BLOCK):
        rows = slice(start, start + SCORE_BLOCK)
        probs[rows] = _layer_stack(net, first_layer(rows), scale, rng)[2]
    return probs


def save_checkpoint(net: Network, path) -> None:
    """Serialize the network, its config and parameters; round-trips bit-exactly.

    Written to a temporary file, then moved onto ``path``: a failed save changes no file."""
    _member(net, "net", Network)
    header = {"format_version": CHECKPOINT_FORMAT_VERSION, "config": asdict(net.config)}
    raw = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    arrays = {f"param_{k:02d}": a for k, a in enumerate(net.param_arrays())}
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    except OSError as exc:  # it names its random file, not ``path``
        raise type(exc)(f"{path}: cannot create a file beside it: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, header=raw, **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_checkpoint(path) -> Network:
    """The network as saved; every fault of the file is a ValueError starting with ``path``."""
    try:
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise ValueError("not a checkpoint (truncated or not a zip file)")
            fh.seek(0)
            with np.load(fh) as data:
                def entry(name):
                    if name not in data.files:
                        raise ValueError(f"not a checkpoint (no {name} entry)")
                    return data[name]

                raw = bytes(entry("header"))
                try:
                    header = json.loads(raw.decode())
                    version, config = header["format_version"], header["config"]
                except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise ValueError(f"corrupt checkpoint header ({exc!r})") from exc
                if version != CHECKPOINT_FORMAT_VERSION:
                    raise ValueError(f"unsupported checkpoint version {version}")
                cfg = NetworkConfig(**config)
                net = Network.from_arrays(cfg, [entry(f"param_{k:02d}")
                                                for k in range(len(cfg.param_shapes()))])
        if not net.all_finite():
            raise ValueError("non-finite parameter")
    except (TypeError, ValueError) as exc:  # a malformed config raises either
        raise ValueError(f"{path}: {exc}") from exc
    return net
