"""First-order optimizers operating in place on a Network.

The gradient is itself a ``Network`` of the same config, as returned by
``losses.loss_and_grads``; its arrays pair up with the parameters'
through ``param_arrays``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import Network

__all__ = ["OptimizerState", "make_optimizer", "apply_update"]

# Adam's moment decay rates and denominator guard.
BETA1, BETA2, EPSILON_HAT = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    kind: str                    # "sgd" | "adam"
    learning_rate: float
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


def make_optimizer(net: Network, kind: str = "adam", learning_rate: float = 1e-3) -> OptimizerState:
    opt = OptimizerState(kind=kind, learning_rate=learning_rate)
    if kind == "adam":
        opt.m = [np.zeros_like(a) for a in net.param_arrays()]
        opt.v = [np.zeros_like(a) for a in net.param_arrays()]
    return opt


def _shapes_match(arrays: list[np.ndarray], params: list[np.ndarray]) -> bool:
    return len(arrays) == len(params) and all(a.shape == p.shape for a, p in zip(arrays, params))


def apply_update(opt: OptimizerState, net: Network, grads: Network) -> None:
    """One in-place parameter update; rejects non-finite gradients.

    The network is left untouched when the gradients are rejected, so a
    caller may recover (e.g. skip the batch) without corrupting state.
    """
    params = net.param_arrays()
    garrs = grads.param_arrays()
    if not _shapes_match(garrs, params):
        raise ValueError("gradient shapes do not match network parameters")
    if opt.kind == "adam" and not (_shapes_match(opt.m, params) and _shapes_match(opt.v, params)):
        raise ValueError("Adam moments m/v do not match network parameters; "
                         "build the state with make_optimizer")
    if not grads.all_finite():
        raise ValueError("non-finite gradient; network left unchanged")

    opt.step += 1
    lr = opt.learning_rate
    if opt.kind == "sgd":
        for p, g in zip(params, garrs):
            p -= lr * g
    else:
        bias1 = 1.0 - BETA1 ** opt.step
        bias2 = 1.0 - BETA2 ** opt.step
        for p, g, m, v in zip(params, garrs, opt.m, opt.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + EPSILON_HAT)

    if not net.all_finite():
        raise FloatingPointError("parameters became non-finite after update")
