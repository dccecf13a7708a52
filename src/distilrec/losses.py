"""Scalar losses: BCE, L2 penalty, distillation discrepancies, composites.

``loss_and_grads`` is the one training objective, value and analytic
gradient in one pass, sharing dropout masks between the two.  It is a
binary-cross-entropy data term over an ``ObservedBatch``, plus an L2
penalty on weights and embeddings, plus (for the student) a
teacher-alignment term over an ``UnobservedBatch``, measured by one of
four discrepancies between the two predicted probabilities (MAE, MSE,
KL with the teacher as reference distribution, or the symmetric
Jeffreys divergence).  The teacher's objective is the same call without
the unobserved batch; the caller feeds it uniform-source data only.
Teacher predictions enter only as constant targets, so no gradient ever
reaches the teacher.  ``bce`` and ``reg_loss`` score a single pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .network import ForwardMode, Network, backprop, forward_cached
from .rng import RngStream

__all__ = [
    "ClampPolicy",
    "RegLossKind",
    "LossBreakdown",
    "NonFiniteLossError",
    "bce",
    "weighted_empirical_risk",
    "l2_reg",
    "reg_loss",
    "ObservedBatch",
    "UnobservedBatch",
    "loss_and_grads",
]


@dataclass(frozen=True)
class ClampPolicy:
    """Clamp probabilities into [eps, 1-eps] before any logarithm."""

    eps: float = 1e-7

    def apply(self, p):
        return np.clip(p, self.eps, 1.0 - self.eps)


DEFAULT_CLAMP = ClampPolicy()


class NonFiniteLossError(ArithmeticError):
    """A loss term evaluated to NaN/Inf; carries the offending term."""

    def __init__(self, term: str, value: float):
        self.term = term
        self.value = value
        super().__init__(f"{term} is non-finite ({value})")


class RegLossKind(Enum):
    MAE = "mae"
    MSE = "mse"
    KL = "kl"
    JEFFREYS = "jeffreys"


def _bce_terms(p_hat: np.ndarray, y: np.ndarray, clamp: ClampPolicy) -> np.ndarray:
    p = clamp.apply(np.asarray(p_hat, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def bce(p_hat: float, y: int, clamp: ClampPolicy = DEFAULT_CLAMP) -> float:
    """Binary cross-entropy of one prediction against one binary label."""
    return float(_bce_terms(np.array([p_hat]), np.array([y]), clamp)[0])


def weighted_empirical_risk(losses: Sequence[float], weights: Sequence[float]) -> float:
    """sum_i w_i * l_i; with weights 1/n this is the plain mean."""
    l = np.asarray(losses, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if l.shape != w.shape:
        raise ValueError(f"length mismatch: {l.shape} losses vs {w.shape} weights")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return float(np.dot(w, l))


def l2_reg(net: Network) -> float:
    """Sum of squared entries over ``net.l2_arrays()``; biases excluded."""
    total = 0.0
    for a in net.l2_arrays():
        total += float(np.sum(np.square(a)))
    return total


def _reg_terms(kind: RegLossKind, t: np.ndarray, s: np.ndarray, clamp: ClampPolicy) -> np.ndarray:
    t = clamp.apply(np.asarray(t, dtype=np.float64))
    s = clamp.apply(np.asarray(s, dtype=np.float64))
    if kind is RegLossKind.MAE:
        return np.abs(t - s)
    if kind is RegLossKind.MSE:
        return np.square(t - s)
    kl_ts = t * (np.log(t) - np.log(s)) + (1.0 - t) * (np.log1p(-t) - np.log1p(-s))
    if kind is RegLossKind.KL:
        return kl_ts
    kl_st = s * (np.log(s) - np.log(t)) + (1.0 - s) * (np.log1p(-s) - np.log1p(-t))
    return kl_ts + kl_st


def _reg_grad_wrt_student(
    kind: RegLossKind, t: np.ndarray, s: np.ndarray, clamp: ClampPolicy
) -> np.ndarray:
    """d reg / d s, evaluated on clamped values; zero where s is clamped."""
    inside = (s > clamp.eps) & (s < 1.0 - clamp.eps)
    t = clamp.apply(np.asarray(t, dtype=np.float64))
    s = clamp.apply(np.asarray(s, dtype=np.float64))
    if kind is RegLossKind.MAE:
        g = np.sign(s - t)
    elif kind is RegLossKind.MSE:
        g = 2.0 * (s - t)
    elif kind is RegLossKind.KL:
        g = (s - t) / (s * (1.0 - s))
    else:
        g = (s - t) / (s * (1.0 - s)) + np.log(s) - np.log(t) - np.log1p(-s) + np.log1p(-t)
    return np.where(inside, g, 0.0)


def reg_loss(
    kind: RegLossKind,
    p_teacher: float,
    p_student: float,
    clamp: ClampPolicy = DEFAULT_CLAMP,
) -> float:
    """Discrepancy between teacher and student predicted probabilities.

    KL uses the teacher as the reference distribution; Jeffreys is the
    symmetrized sum of both directions.  Always finite after clamping,
    nonnegative, and zero exactly when the clamped inputs coincide.
    """
    return float(_reg_terms(kind, np.array([p_teacher]), np.array([p_student]), clamp)[0])


@dataclass(frozen=True)
class LossBreakdown:
    """Objective decomposition; total re-applies the two coefficients."""

    data_term: float
    distill_term: float
    reg_term: float
    total: float

    @staticmethod
    def compose(data_term: float, distill_term: float, reg_term: float,
                gamma_reg: float, lam: float) -> "LossBreakdown":
        total = data_term + gamma_reg * distill_term + lam * reg_term
        for name, value in (("data_term", data_term), ("distill_term", distill_term),
                            ("reg_term", reg_term), ("total", total)):
            if not np.isfinite(value):
                raise NonFiniteLossError(name, value)
        return LossBreakdown(data_term, distill_term, reg_term, total)


def _check_lengths(batch, *fields: str) -> None:
    n = len(batch.users)
    for name in fields:
        m = len(getattr(batch, name))
        if m != n:
            raise ValueError(f"{type(batch).__name__}: {m} {name} for {n} users")


@dataclass
class ObservedBatch:
    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        _check_lengths(self, "items", "labels")


@dataclass
class UnobservedBatch:
    users: np.ndarray
    items: np.ndarray
    teacher_targets: np.ndarray   # constants: the teacher is detached

    def __post_init__(self):
        _check_lengths(self, "items", "teacher_targets")


def loss_and_grads(
    net: Network,
    observed: ObservedBatch | None,
    unobserved: UnobservedBatch | None = None,
    gamma_reg: float = 0.0,
    reg_kind: RegLossKind = RegLossKind.KL,
    l2_coeff: float = 0.0,
    mode: ForwardMode = ForwardMode.DETERMINISTIC,
    rng: RngStream | None = None,
    clamp: ClampPolicy = DEFAULT_CLAMP,
) -> tuple[LossBreakdown, Network]:
    """Composite objective value and its gradient w.r.t. ``net``.

    Dropout masks (in TRAIN_DROPOUT mode) are sampled once per batch and
    shared between the forward value and the backward pass.  Raises
    NonFiniteLossError if any term degenerates.
    """
    if observed is None and unobserved is None and l2_coeff == 0.0:
        raise ValueError("loss requires a batch or a nonzero l2 coefficient")
    grads = net.zeros_like()

    data_term = 0.0
    if observed is not None:
        if observed.users.size == 0:
            raise ValueError("observed batch must be nonempty")
        cache = forward_cached(net, observed.users, observed.items, mode, rng)
        labels = np.asarray(observed.labels, dtype=np.float64)
        data_term = float(np.mean(_bce_terms(cache.probs, labels, clamp)))
        dlogits = (cache.probs - labels) / labels.size
        part = backprop(net, cache, dlogits)
        for g, p in zip(grads.param_arrays(), part.param_arrays()):
            g += p

    distill_term = 0.0
    if unobserved is not None and unobserved.users.size:
        cache = forward_cached(net, unobserved.users, unobserved.items, mode, rng)
        t = np.asarray(unobserved.teacher_targets, dtype=np.float64)
        distill_term = float(np.mean(_reg_terms(reg_kind, t, cache.probs, clamp)))
        if gamma_reg != 0.0:
            dreg_ds = _reg_grad_wrt_student(reg_kind, t, cache.probs, clamp)
            dlogits = gamma_reg * dreg_ds * cache.probs * (1.0 - cache.probs) / t.size
            part = backprop(net, cache, dlogits)
            for g, p in zip(grads.param_arrays(), part.param_arrays()):
                g += p

    reg_term = l2_reg(net)
    if l2_coeff != 0.0:
        for g, p in zip(grads.l2_arrays(), net.l2_arrays()):
            g += 2.0 * l2_coeff * p

    breakdown = LossBreakdown.compose(data_term, distill_term, reg_term, gamma_reg, l2_coeff)
    return breakdown, grads
