"""First-order optimizers operating in place on a Network.

The gradient, a ``network.Gradient`` from ``losses.loss_and_grads``,
holds each embedding table's touched rows and L2 coefficient and the dense
layers' arrays; Adam's two moments, ``OptimizerState.moments`` (None for
SGD), are each a ``Network``.  All are of the parameters' config, so one
config comparison checks each.  They are of the parameters' dtype too, as
is every array an update makes: the learning rate and Adam's constants are
Python floats, which promote no array.

Each embedding table is updated ``ROW_BLOCK`` rows at a time.  The block's
whole gradient is built in scratch: zeros, the touched rows' values written
in, then ``2 * l2_coeff * θ`` added, the order in which a whole-table
gradient sums them.  The block then steps through two more scratch arrays,
and each dense layer through two of its own shape.  Every step runs in the
operation order of the out-of-place expressions, so the bits are theirs,
and no array the size of an embedding table is made.

The state is checked once, when made, and frozen; ``apply_update`` alone
advances its ``step``.  A new learning rate is ``dataclasses.replace(opt,
learning_rate=...)``, which runs the same check and keeps moments and step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rules import _count, _member, _real
from .network import Gradient, Network

__all__ = ["OptimizerState", "make_optimizer", "apply_update"]

# Adam's moment decay rates and denominator guard.
BETA1, BETA2, EPSILON_HAT = 0.9, 0.999, 1e-8
ROW_BLOCK = 1024  # embedding rows per update block; its scratch holds 3 blocks


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Frozen once checked; ``apply_update`` alone advances ``step``; equal only to itself."""

    learning_rate: float                            # a finite real > 0, stored as a float
    step: int = 0                                   # updates applied, a whole number >= 0
    moments: tuple[Network, Network] | None = None  # Adam's first and second; None for SGD

    def __post_init__(self):
        object.__setattr__(self, "learning_rate", _real(self.learning_rate, "learning_rate", 0.0))
        object.__setattr__(self, "step", _count(self.step, "step", 0))
        if self.moments is not None:
            for k, m in enumerate(_member(self.moments, "moments", tuple)):
                _member(m, f"moments[{k}]", Network)
            if len(self.moments) != 2:
                raise ValueError(f"moments must hold 2 Networks, got {len(self.moments)}")


def make_optimizer(net: Network, kind: str = "adam", learning_rate: float = 1e-3) -> OptimizerState:
    _member(net, "net", Network)
    if kind not in ("sgd", "adam"):
        raise ValueError(f"kind must be 'sgd' or 'adam', got {kind!r}")
    moments = (net.zeros_like(), net.zeros_like()) if kind == "adam" else None
    return OptimizerState(learning_rate, moments=moments)


def _finite_gradient(net: Network, grads: Gradient) -> bool:
    """Whether every entry of the whole gradient is finite; no array the size of a table
    is made.

    A table's L2 term ``c * θ`` rounds monotonically in θ, so it is finite everywhere
    exactly when it is finite at θ's extremes, to which a NaN in θ propagates.  The touched
    rows' sums are formed as the update forms them.
    """
    c = 2.0 * grads.l2_coeff
    tables = ((net.user_emb, grads.user_rows, grads.user_values),
              (net.item_emb, grads.item_rows, grads.item_values))
    with np.errstate(over="ignore", invalid="ignore"):
        for table, rows, values in tables:
            if c != 0.0:
                if not np.all(np.isfinite(np.multiply(c, [table.min(), table.max()]))):
                    return False
                values = values + np.multiply(c, table[rows])
            if not np.all(np.isfinite(values)):
                return False
    return all(np.all(np.isfinite(a)) for a in grads.arrays()[2:])


def _step(opt: OptimizerState, p: np.ndarray, g: np.ndarray, moments: tuple,
          a: np.ndarray, b: np.ndarray) -> None:
    """Steps ``p`` in place by its gradient ``g`` and, for Adam, its ``moments`` ``(m, v)``
    (``()`` for SGD), through scratch ``a`` and ``b`` of ``p``'s shape and dtype."""
    lr = opt.learning_rate
    if not moments:
        p -= np.multiply(lr, g, out=a)
        return
    m, v = moments
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=a)
    v *= BETA2
    v += np.multiply(1.0 - BETA2, np.square(g, out=a), out=a)
    # the operation order of out_of_place_adam (tests/oracles.py): same bits
    np.add(np.sqrt(np.divide(v, 1.0 - BETA2 ** opt.step, out=a), out=a), EPSILON_HAT, out=a)
    p -= np.divide(np.multiply(lr, np.divide(m, 1.0 - BETA1 ** opt.step, out=b), out=b), a,
                   out=b)


def apply_update(opt: OptimizerState, net: Network, grads: Gradient) -> None:
    """One in-place parameter update; the state's own fields are not re-checked.

    An argument of the wrong type, a gradient or moment of another config (dropout_rate
    included) or dtype, or a gradient with a non-finite entry, its L2 term included, is
    rejected before anything changes, so a caller may recover, e.g. by skipping the batch.
    An update that makes a parameter non-finite raises ``FloatingPointError`` after every
    block is applied: the parameters, the moments and ``opt.step`` keep their new values.
    """
    _member(opt, "opt", OptimizerState)
    _member(net, "net", Network)
    if _member(grads, "grads", Gradient).config != net.config:
        raise ValueError(f"gradient config {grads.config} differs from the network's "
                         f"{net.config}; shapes and dropout_rate must match")
    if grads.dtype != net.dtype:
        raise ValueError(f"gradient dtype {grads.dtype} differs from the network's {net.dtype}")
    if any(m.config != net.config or m.dtype != net.dtype for m in opt.moments or ()):
        raise ValueError("Adam moments do not match network parameters; "
                         "build the state with make_optimizer")
    if not _finite_gradient(net, grads):
        raise ValueError("non-finite gradient; network left unchanged")

    object.__setattr__(opt, "step", opt.step + 1)
    params = net.param_arrays()
    moments = (list(zip(*(m.param_arrays() for m in opt.moments))) if opt.moments is not None
               else [()] * len(params))
    finite = True
    cfg = net.config
    # Three arrays, not one of three blocks: at Coat shape each stays under glibc's 128 KiB
    # mmap threshold, where one 230 KiB array left coat-rounds' peak RSS 0.2-0.5 MB higher.
    scratch = [np.empty((min(ROW_BLOCK, max(cfg.n_users, cfg.n_items)), cfg.embedding_dim),
                        dtype=net.dtype) for _ in range(3)]
    tables = ((grads.user_rows, grads.user_values), (grads.item_rows, grads.item_values))
    for p, mv, (rows, values) in zip(params, moments, tables):
        for start in range(0, len(p), ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            g, a, b = (x[:len(p[block])] for x in scratch)
            lo, hi = np.searchsorted(rows, (start, start + ROW_BLOCK))
            g.fill(0.0)
            g[rows[lo:hi] - start] = values[lo:hi]
            if grads.l2_coeff != 0.0:
                g += np.multiply(2.0 * grads.l2_coeff, p[block], out=a)
            _step(opt, p[block], g, tuple(x[block] for x in mv), a, b)
            finite = finite and np.all(np.isfinite(p[block]))
    for p, mv, g in zip(params[2:], moments[2:], grads.arrays()[2:]):
        _step(opt, p, g, mv, np.empty_like(p), np.empty_like(p))
        finite = finite and np.all(np.isfinite(p))

    if not finite:
        raise FloatingPointError("parameters became non-finite after update")
