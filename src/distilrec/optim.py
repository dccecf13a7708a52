"""First-order optimizers operating in place on a Network.

The gradient (from ``losses.loss_and_grads``) and Adam's two moments,
``OptimizerState.moments`` (None for SGD), are each a ``Network`` of the
parameters' config, so one config comparison checks each, and their
``param_arrays`` pair up with the parameters'.  They are of the
parameters' dtype too, as is every array an update makes: the learning
rate and Adam's constants are Python floats, which promote no array.

Adam updates each array in place through two scratch arrays of its shape
and dtype, made per call and freed with it, in the operation order of the
out-of-place expressions, so the bits are theirs; no temporary the size of
an embedding table is made per operation.

The state is checked once, when made, and frozen; ``apply_update`` alone
advances its ``step``.  A new learning rate is ``dataclasses.replace(opt,
learning_rate=...)``, which runs the same check and keeps moments and step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rules import _count, _member, _real
from .network import Network

__all__ = ["OptimizerState", "make_optimizer", "apply_update"]

# Adam's moment decay rates and denominator guard.
BETA1, BETA2, EPSILON_HAT = 0.9, 0.999, 1e-8


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


def apply_update(opt: OptimizerState, net: Network, grads: Network) -> None:
    """One in-place parameter update; the state's own fields are not re-checked.

    An argument of the wrong type, a gradient or moment of another config (dropout_rate
    included) or dtype, or a non-finite gradient is rejected before anything changes, so
    a caller may recover, e.g. by skipping the batch.  An update that makes a parameter
    non-finite raises ``FloatingPointError`` after it is applied: the parameters, the
    moments and ``opt.step`` keep their new values.
    """
    _member(opt, "opt", OptimizerState)
    _member(net, "net", Network)
    if _member(grads, "grads", Network).config != net.config:
        raise ValueError(f"gradient config {grads.config} differs from the network's "
                         f"{net.config}; shapes and dropout_rate must match")
    if grads.dtype != net.dtype:
        raise ValueError(f"gradient dtype {grads.dtype} differs from the network's {net.dtype}")
    if any(m.config != net.config or m.dtype != net.dtype for m in opt.moments or ()):
        raise ValueError("Adam moments do not match network parameters; "
                         "build the state with make_optimizer")
    if not grads.all_finite():
        raise ValueError("non-finite gradient; network left unchanged")

    object.__setattr__(opt, "step", opt.step + 1)
    lr = opt.learning_rate
    params, garrs = net.param_arrays(), grads.param_arrays()
    if opt.moments is None:
        for p, g in zip(params, garrs):
            p -= lr * g
    else:
        bias1 = 1.0 - BETA1 ** opt.step
        bias2 = 1.0 - BETA2 ** opt.step
        first, second = opt.moments
        for p, g, m, v in zip(params, garrs, first.param_arrays(), second.param_arrays()):
            a, b = np.empty_like(p), np.empty_like(p)
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=a)
            v *= BETA2
            v += np.multiply(1.0 - BETA2, np.square(g, out=a), out=a)
            # the operation order of out_of_place_adam (tests/test_gradients.py): same bits
            np.add(np.sqrt(np.divide(v, bias2, out=a), out=a), EPSILON_HAT, out=a)
            p -= np.divide(np.multiply(lr, np.divide(m, bias1, out=b), out=b), a, out=b)

    if not net.all_finite():
        raise FloatingPointError("parameters became non-finite after update")
