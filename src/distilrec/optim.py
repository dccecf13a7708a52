"""First-order optimizers operating in place on a Network.

The gradient is itself a ``Network`` of the same config, as returned by
``losses.loss_and_grads``; its arrays pair up with the parameters'
through ``param_arrays``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Network

__all__ = ["OptimizerState", "make_optimizer", "apply_update"]


@dataclass
class OptimizerState:
    kind: str                    # "sgd" | "adam"
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon_hat: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


def make_optimizer(net: Network, kind: str = "adam", learning_rate: float = 1e-3) -> OptimizerState:
    opt = OptimizerState(kind=kind, learning_rate=learning_rate)
    if kind == "adam":
        opt.m = [np.zeros_like(a) for a in net.param_arrays()]
        opt.v = [np.zeros_like(a) for a in net.param_arrays()]
    return opt


def apply_update(opt: OptimizerState, net: Network, grads: Network) -> None:
    """One in-place parameter update; rejects non-finite gradients.

    The network is left untouched when the gradients are rejected, so a
    caller may recover (e.g. skip the batch) without corrupting state.
    """
    params = net.param_arrays()
    garrs = grads.param_arrays()
    if len(params) != len(garrs) or any(p.shape != g.shape for p, g in zip(params, garrs)):
        raise ValueError("gradient shapes do not match network parameters")
    if not grads.all_finite():
        raise ValueError("non-finite gradient; network left unchanged")

    opt.step += 1
    lr = opt.learning_rate
    if opt.kind == "sgd":
        for p, g in zip(params, garrs):
            p -= lr * g
    else:
        b1, b2, eps = opt.beta1, opt.beta2, opt.epsilon_hat
        bias1 = 1.0 - b1 ** opt.step
        bias2 = 1.0 - b2 ** opt.step
        for p, g, m, v in zip(params, garrs, opt.m, opt.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)

    if not net.all_finite():
        raise FloatingPointError("parameters became non-finite after update")
