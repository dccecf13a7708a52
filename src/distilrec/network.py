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
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .rng import RngStream

__all__ = [
    "ForwardMode",
    "NetworkConfig",
    "Network",
    "init_network",
    "forward",
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
        return r.uniform(-limit, limit, size=(fan_in, fan_out))

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
    """Intermediate activations retained for the backward pass."""

    users: np.ndarray
    items: np.ndarray
    x: np.ndarray                      # concatenated embeddings, (B, 2d)
    pre_acts: list[np.ndarray]         # z_k per hidden layer, (B, w_k)
    acts: list[np.ndarray]             # post-ReLU, post-dropout, (B, w_k)
    masks: list[np.ndarray | None]     # inverted-dropout masks, or None
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
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    _check_ids(net, users, items)
    cfg = net.config
    use_dropout = mode is not ForwardMode.DETERMINISTIC and cfg.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError(f"mode {mode} requires an rng stream")

    x = np.concatenate([net.user_emb[users], net.item_emb[items]], axis=1)
    a = x
    pre_acts, acts, masks = [], [], []
    n_hidden = len(cfg.hidden_sizes)
    for k in range(n_hidden):
        z = a @ net.weights[k] + net.biases[k]
        h = np.maximum(z, 0.0)
        if use_dropout:
            keep = rng.random(h.shape) >= cfg.dropout_rate
            mask = keep / (1.0 - cfg.dropout_rate)
            h = h * mask
        else:
            mask = None
        pre_acts.append(z)
        acts.append(h)
        masks.append(mask)
        a = h
    logits = (a @ net.weights[-1] + net.biases[-1]).reshape(-1)
    probs = expit(logits)
    return ForwardCache(users, items, x, pre_acts, acts, masks, logits, probs)


def backprop(net: Network, cache: ForwardCache, dlogits: np.ndarray) -> Network:
    """Reverse-mode gradients given d(loss)/d(final pre-activation).

    Reuses the dropout masks stored in the cache, so the gradient is
    taken of exactly the function the forward pass evaluated.
    """
    grads = net.zeros_like()
    cfg = net.config
    n_hidden = len(cfg.hidden_sizes)
    g = np.asarray(dlogits, dtype=np.float64).reshape(-1, 1)   # (B, 1)

    a_prev = cache.acts[-1] if n_hidden else cache.x
    grads.weights[-1][...] = a_prev.T @ g
    grads.biases[-1][...] = g.sum(axis=0)
    da = g @ net.weights[-1].T

    for k in range(n_hidden - 1, -1, -1):
        if cache.masks[k] is not None:
            da = da * cache.masks[k]
        dz = da * (cache.pre_acts[k] > 0.0)
        a_prev = cache.acts[k - 1] if k > 0 else cache.x
        grads.weights[k][...] = a_prev.T @ dz
        grads.biases[k][...] = dz.sum(axis=0)
        da = dz @ net.weights[k].T

    d = cfg.embedding_dim
    np.add.at(grads.user_emb, cache.users, da[:, :d])
    np.add.at(grads.item_emb, cache.items, da[:, d:])
    return grads


def forward_batch(
    net: Network,
    pairs,
    mode: ForwardMode = ForwardMode.DETERMINISTIC,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Probabilities for a batch of (user, item) pairs."""
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return np.empty(0, dtype=np.float64)
    arr = arr.reshape(-1, 2)
    return forward_cached(net, arr[:, 0], arr[:, 1], mode, rng).probs


def forward(
    net: Network,
    user: int,
    item: int,
    mode: ForwardMode = ForwardMode.DETERMINISTIC,
    rng: RngStream | None = None,
) -> float:
    """Probability for a single (user, item) pair."""
    return float(forward_batch(net, [(user, item)], mode, rng)[0])


def save_checkpoint(net: Network, path, seed: int | None = None) -> None:
    """Serialize (config, parameters, seed); round-trips bit-exactly."""
    cfg = net.config
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "seed": seed,
        "config": {
            "n_users": cfg.n_users,
            "n_items": cfg.n_items,
            "embedding_dim": cfg.embedding_dim,
            "hidden_sizes": list(cfg.hidden_sizes),
            "dropout_rate": cfg.dropout_rate,
        },
    }
    arrays = {f"param_{k:02d}": a for k, a in enumerate(net.param_arrays())}
    buf = io.BytesIO()
    np.savez(buf, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> tuple[Network, int | None]:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['format_version']}")
        cfg_d = header["config"]
        cfg = NetworkConfig(
            n_users=cfg_d["n_users"],
            n_items=cfg_d["n_items"],
            embedding_dim=cfg_d["embedding_dim"],
            hidden_sizes=tuple(cfg_d["hidden_sizes"]),
            dropout_rate=cfg_d["dropout_rate"],
        )
        arrays = [data[f"param_{k:02d}"] for k in range(len(cfg.param_shapes()))]
    return Network.from_arrays(cfg, arrays), header["seed"]
