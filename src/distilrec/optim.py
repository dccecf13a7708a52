"""First-order optimizers operating in place on a Network.

The gradient, a ``network.Gradient`` from ``losses.loss_and_grads``,
holds the data term's gradient (each embedding table's touched rows, the
dense layers' arrays) and the L2 coefficient λ; Adam's two moments,
``OptimizerState.moments`` (None for SGD), are each a ``Network``.  All are
of the parameters' config, so one config comparison checks each.  They are
of the parameters' dtype too, as is every array an update makes: the
learning rate and Adam's constants are Python floats, which promote no
array.

``apply_update`` is where the L2 gradient ``2λθ`` enters.  One loop steps
every parameter array alike, ``ROW_BLOCK`` rows at a time: a table's held
rows are its touched rows, a dense array's are all its rows.  Each block's
gradient is built in scratch: zeros, the held rows' values written in,
then, on the arrays of ``Network.l2_arrays()``, ``2λθ`` added, the order in
which a whole-array gradient sums them.  The block then steps through two
more scratch arrays, in the operation order of the out-of-place
expressions, so the bits are theirs, and no array the size of an
embedding table is made.

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


def _held(net: Network, grads: Gradient) -> list:
    """``(θ, rows, values, c)`` for each of ``net.param_arrays()``: the gradient's held rows
    of θ, ascending (a table's touched rows, a dense array's every row), their data values,
    and the L2 factor ``c``, ``2 * l2_coeff`` on the arrays of ``net.l2_arrays()``, else 0."""
    rows = [grads.user_rows, grads.item_rows, *(np.arange(len(g)) for g in grads.arrays()[2:])]
    c, l2 = 2.0 * grads.l2_coeff, net.l2_arrays()
    return [(p, r, g, c if any(p is a for a in l2) else 0.0)
            for p, r, g in zip(net.param_arrays(), rows, grads.arrays())]


def _finite_gradient(held: list) -> bool:
    """Whether every entry of the whole gradient, given as ``_held``'s list, is finite; no
    array the size of a table is made.

    One rule serves every array.  An L2 term ``c * θ`` rounds monotonically in θ, so it is
    finite everywhere exactly when it is finite at θ's extremes, to which a NaN in θ
    propagates; the held rows' sums with it are formed as the update forms them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return all(np.all(np.isfinite(values)) if c == 0.0 else
                   np.isfinite(c * p.min()) and np.isfinite(c * p.max())
                   and np.all(np.isfinite(values + np.multiply(c, p[rows])))
                   for p, rows, values, c in held)


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
    """One in-place parameter update, the data gradient plus ``2λθ`` on each array of
    ``net.l2_arrays()``; the state's own fields are not re-checked.

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
    if not _finite_gradient(held := _held(net, grads)):
        raise ValueError("non-finite gradient; network left unchanged")

    object.__setattr__(opt, "step", opt.step + 1)
    # Three flat arrays for the largest block, shared by every parameter array.  At Coat shape
    # each stays under glibc's 128 KiB mmap threshold; one 230 KiB array of three blocks, or a
    # set per parameter array, left coat-rounds' peak RSS 0.2-1 MB higher.
    size = max(min(ROW_BLOCK, len(p)) * p[0].size for p, *_ in held)
    scratch = [np.empty(size, dtype=net.dtype) for _ in range(3)]
    for k, (p, rows, values, c) in enumerate(held):
        mv = [m.param_arrays()[k] for m in opt.moments or ()]
        for start in range(0, len(p), ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            g, a, b = (x[:p[block].size].reshape(p[block].shape) for x in scratch)
            lo, hi = np.searchsorted(rows, (start, start + ROW_BLOCK))
            g.fill(0.0)
            g[rows[lo:hi] - start] = values[lo:hi]
            if c != 0.0:
                g += np.multiply(c, p[block], out=a)
            _step(opt, p[block], g, tuple(x[block] for x in mv), a, b)
    if not net.all_finite():
        raise FloatingPointError("parameters became non-finite after update")
