"""First-order optimizers operating in place on a Network.

The gradient (from ``losses.loss_and_grads``) and Adam's two moments are
each a ``Network`` of the parameters' config, so one config comparison
checks each, and their ``param_arrays`` pair up with the parameters'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    m: Network | None = None     # Adam's first and second moments; None for SGD
    v: Network | None = None

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


def make_optimizer(net: Network, kind: str = "adam", learning_rate: float = 1e-3) -> OptimizerState:
    opt = OptimizerState(kind=kind, learning_rate=learning_rate)
    if kind == "adam":
        opt.m, opt.v = net.zeros_like(), net.zeros_like()
    return opt


def apply_update(opt: OptimizerState, net: Network, grads: Network) -> None:
    """One in-place parameter update.

    A gradient or moment of another config (dropout_rate included) or a
    non-finite gradient is rejected before anything changes, so a caller
    may recover, e.g. by skipping the batch.  An update that makes a
    parameter non-finite raises ``FloatingPointError`` after it is applied:
    the parameters, the moments and ``opt.step`` keep their new values.
    """
    if grads.config != net.config:
        raise ValueError(f"gradient config {grads.config} differs from the network's "
                         f"{net.config}; shapes and dropout_rate must match")
    if opt.kind == "adam" and any(getattr(moment, "config", None) != net.config
                                  for moment in (opt.m, opt.v)):
        raise ValueError("Adam moments m/v do not match network parameters; "
                         "build the state with make_optimizer")
    if not grads.all_finite():
        raise ValueError("non-finite gradient; network left unchanged")

    opt.step += 1
    lr = opt.learning_rate
    params, garrs = net.param_arrays(), grads.param_arrays()
    if opt.kind == "sgd":
        for p, g in zip(params, garrs):
            p -= lr * g
    else:
        bias1 = 1.0 - BETA1 ** opt.step
        bias2 = 1.0 - BETA2 ** opt.step
        for p, g, m, v in zip(params, garrs, opt.m.param_arrays(), opt.v.param_arrays()):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + EPSILON_HAT)

    if not net.all_finite():
        raise FloatingPointError("parameters became non-finite after update")
