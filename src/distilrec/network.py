"""Minimal feedforward scorer for user-item pairs.

The model embeds the user id and the item id, concatenates the two
embeddings, pushes them through a small stack of ReLU layers and squashes
the final pre-activation with a sigmoid, yielding ``p(label=1 | user,
item)``.  Dropout (inverted convention) is applied after each hidden
activation; drawing fresh masks at inference time turns the scorer into
an approximate posterior sampler.

Everything is plain float64 numpy with hand-written reverse-mode
gradients for this fixed architecture; there is no general autodiff.
``Network`` is the one parameter container: ``backprop`` returns the
gradient as a ``Network`` of the same config, and every construction,
checkpoint loads included, checks each array's shape against the config.
A training step runs ``forward_cached`` once over all its rows, observed
and unobserved concatenated, and ``backprop`` once over the per-row
logit gradients; ``backprop`` is the step's only gradient allocation and
its only scatter into the embedding tables.  The tape ``forward_cached``
keeps is its activations: ``backprop`` recovers the ReLU gates and the
dropout masks from them, since a unit is live exactly when its activation
is positive, and every live unit was scaled by 1/(1-dropout_rate).
"""

from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .data import _as_pairs
from .rng import RngStream

__all__ = [
    "ForwardMode",
    "NetworkConfig",
    "Network",
    "init_network",
    "forward_batch",
    "param_count",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 1


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
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.n_users < 1 or self.n_items < 1:
            raise ValueError("n_users and n_items must be >= 1")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if not 1 <= len(self.hidden_sizes) <= 3:
            raise ValueError("hidden_sizes must contain 1 to 3 layers")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("every hidden size must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")

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


@dataclass
class Network:
    """Parameter container; mutated in place by the optimizer.

    A gradient is a Network too, of the same config, so every array is
    shaped by the config and checked against it on construction.
    """

    config: NetworkConfig
    user_emb: np.ndarray
    item_emb: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        n_layers = len(self.config.layer_widths())
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ValueError(f"{len(self.weights)} weights and {len(self.biases)} biases; "
                             f"config expects {n_layers} of each")
        for (name, shape), a in zip(self.config.param_shapes(), self.param_arrays()):
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}; config expects {shape}")

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
        return all(np.all(np.isfinite(a)) for a in self.param_arrays())

    def zeros_like(self) -> "Network":
        """A zero Network of the same config, e.g. to accumulate a gradient."""
        return Network.from_arrays(self.config, [np.zeros_like(a) for a in self.param_arrays()])


def init_network(config: NetworkConfig, rng: RngStream) -> Network:
    """Fresh network: fan-based uniform weights, zero biases.

    Each parameter matrix of shape (fan_in, fan_out) is drawn i.i.d.
    uniform on +-sqrt(6 / (fan_in + fan_out)); embedding tables count
    their entity dimension as fan_in.  Deterministic given the stream.
    """
    r = rng.split("init")

    def fan_uniform(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return r.generator.uniform(-limit, limit, size=(fan_in, fan_out))

    arrays = [fan_uniform(*shape) if len(shape) == 2 else np.zeros(shape)
              for _, shape in config.param_shapes()]
    return Network.from_arrays(config, arrays)


def param_count(net_or_config: Network | NetworkConfig) -> int:
    """Exact number of trainable scalar parameters."""
    cfg = net_or_config.config if isinstance(net_or_config, Network) else net_or_config
    return sum(math.prod(shape) for _, shape in cfg.param_shapes())


def _check_ids(net: Network, users: np.ndarray, items: np.ndarray) -> None:
    cfg = net.config
    if users.size and (users.min() < 0 or users.max() >= cfg.n_users):
        bad = users[(users < 0) | (users >= cfg.n_users)][0]
        raise ValueError(f"user id {bad} out of range [0, {cfg.n_users})")
    if items.size and (items.min() < 0 or items.max() >= cfg.n_items):
        bad = items[(items < 0) | (items >= cfg.n_items)][0]
        raise ValueError(f"item id {bad} out of range [0, {cfg.n_items})")


@dataclass
class ForwardCache:
    """What ``backprop`` reads: inputs, activations and outputs."""

    users: np.ndarray
    items: np.ndarray
    x: np.ndarray                      # concatenated embeddings, (B, 2d)
    acts: list[np.ndarray]             # post-ReLU, post-dropout, (B, w_k)
    scale: float                       # 1/(1-dropout_rate) if masks were drawn, else 1
    logits: np.ndarray                 # final pre-activation, (B,)
    probs: np.ndarray                  # sigmoid(logits), (B,)


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
    No rows draw no masks, so an empty batch needs no stream.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    _check_ids(net, users, items)
    cfg = net.config
    use_dropout = (users.size > 0 and mode is not ForwardMode.DETERMINISTIC
                   and cfg.dropout_rate > 0.0)
    if use_dropout and rng is None:
        raise ValueError(f"mode {mode} requires an rng stream")

    scale = 1.0 / (1.0 - cfg.dropout_rate) if use_dropout else 1.0
    x = np.concatenate([net.user_emb[users], net.item_emb[items]], axis=1)
    acts = []
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = a @ w
        a += b
        np.maximum(a, 0.0, out=a)
        if use_dropout:
            a *= rng.random(a.shape) >= cfg.dropout_rate
            a *= scale
        acts.append(a)
    logits = (a @ net.weights[-1] + net.biases[-1]).reshape(-1)
    with np.errstate(over="ignore"):  # exp(-logit) = inf gives the limit 0.0
        probs = 1.0 / (1.0 + np.exp(-logits))
    return ForwardCache(users, items, x, acts, scale, logits, probs)


def backprop(net: Network, cache: ForwardCache, dlogits: np.ndarray) -> Network:
    """Reverse-mode gradients given d(loss)/d(final pre-activation).

    Recovers the ReLU gates and dropout masks from the activations, so
    the gradient is taken of exactly the function the forward pass
    evaluated.  Dense gradients are the GEMM outputs themselves; only
    the two embedding tables are zero-filled, to scatter the rows'
    gradients into.
    """
    cfg = net.config
    n_hidden = len(cfg.hidden_sizes)
    weights, biases = [None] * (n_hidden + 1), [None] * (n_hidden + 1)
    g = np.asarray(dlogits, dtype=np.float64).reshape(-1, 1)   # (B, 1)

    weights[-1] = cache.acts[-1].T @ g
    biases[-1] = g.sum(axis=0)
    da = g @ net.weights[-1].T

    for k in range(n_hidden - 1, -1, -1):
        dz = da * ((cache.acts[k] > 0.0) * cache.scale)
        a_prev = cache.acts[k - 1] if k > 0 else cache.x
        weights[k] = a_prev.T @ dz
        biases[k] = dz.sum(axis=0)
        da = dz @ net.weights[k].T

    d = cfg.embedding_dim
    user_emb = np.zeros_like(net.user_emb)
    item_emb = np.zeros_like(net.item_emb)
    np.add.at(user_emb, cache.users, da[:, :d])
    np.add.at(item_emb, cache.items, da[:, d:])
    return Network(cfg, user_emb, item_emb, weights, biases)


def forward_batch(
    net: Network,
    pairs,
    mode: ForwardMode = ForwardMode.DETERMINISTIC,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Probabilities for (user, item) pairs shaped (n, 2); ``[]`` is n = 0."""
    arr = _as_pairs(pairs)
    return forward_cached(net, arr[:, 0], arr[:, 1], mode, rng).probs


def save_checkpoint(net: Network, path, seed: int | None = None) -> None:
    """Serialize (config, parameters, seed); round-trips bit-exactly."""
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "seed": seed,
        "config": asdict(net.config),
    }
    arrays = {f"param_{k:02d}": a for k, a in enumerate(net.param_arrays())}
    buf = io.BytesIO()
    np.savez(buf, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> tuple[Network, int | None]:
    with open(path, "rb") as fh:
        if not zipfile.is_zipfile(fh):
            raise ValueError(f"{path}: not a checkpoint (truncated or not a zip file)")
        fh.seek(0)
        with np.load(fh) as data:
            header = json.loads(bytes(data["header"]).decode())
            if header["format_version"] != CHECKPOINT_FORMAT_VERSION:
                raise ValueError(f"unsupported checkpoint version {header['format_version']}")
            cfg = NetworkConfig(**header["config"])
            arrays = [data[f"param_{k:02d}"] for k in range(len(cfg.param_shapes()))]
    return Network.from_arrays(cfg, arrays), header["seed"]
