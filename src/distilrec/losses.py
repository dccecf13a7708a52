"""Losses: BCE, L2 penalty, distillation discrepancies, composites.

``loss_and_grads`` is the one training objective, value and analytic
gradient together.  It is a binary-cross-entropy data term over an
``ObservedBatch``, plus an L2 penalty on weights and embeddings, plus
(for the student) a teacher-alignment term over an ``UnobservedBatch``,
measured by one of four discrepancies between the two predicted
probabilities (MAE, MSE, KL with the teacher as reference distribution,
or the symmetric Jeffreys divergence).  Both batches are scored by one
forward pass over their concatenated rows, so dropout masks are drawn
once and shared by value and gradient; each slice then gets its own
logit gradient and one backward pass yields the whole gradient.  The
teacher's objective is the same call without the unobserved batch; the
caller feeds it uniform-source data only.  Teacher predictions enter
only as constant targets, so no gradient ever reaches the teacher.
Probabilities are clamped into [CLAMP_EPS, 1 - CLAMP_EPS] before any
logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .network import ForwardMode, Network, backprop, forward_cached
from .rng import RngStream

__all__ = [
    "RegLossKind",
    "LossBreakdown",
    "NonFiniteLossError",
    "l2_reg",
    "ObservedBatch",
    "UnobservedBatch",
    "loss_and_grads",
]


CLAMP_EPS = 1e-7


def _clamp(p) -> np.ndarray:
    return np.clip(np.asarray(p, dtype=np.float64), CLAMP_EPS, 1.0 - CLAMP_EPS)


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


def _bce_terms(p_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    p = _clamp(p_hat)
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def l2_reg(net: Network) -> float:
    """Sum of squared entries over ``net.l2_arrays()``; biases excluded."""
    total = 0.0
    for a in net.l2_arrays():
        total += float(np.sum(np.square(a)))
    return total


def _reg_terms(kind: RegLossKind, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-pair discrepancy between teacher ``t`` and student ``s`` probabilities.

    KL uses the teacher as the reference distribution; Jeffreys is the
    symmetrized sum of both directions.  Always finite after clamping,
    nonnegative, and zero exactly when the clamped inputs coincide.
    """
    t = _clamp(t)
    s = _clamp(s)
    if kind is RegLossKind.MAE:
        return np.abs(t - s)
    if kind is RegLossKind.MSE:
        return np.square(t - s)
    kl_ts = t * (np.log(t) - np.log(s)) + (1.0 - t) * (np.log1p(-t) - np.log1p(-s))
    if kind is RegLossKind.KL:
        return kl_ts
    kl_st = s * (np.log(s) - np.log(t)) + (1.0 - s) * (np.log1p(-s) - np.log1p(-t))
    return kl_ts + kl_st


def _reg_grad_wrt_student(kind: RegLossKind, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d reg / d s, evaluated on clamped values; zero where s is clamped."""
    inside = (s > CLAMP_EPS) & (s < 1.0 - CLAMP_EPS)
    t = _clamp(t)
    s = _clamp(s)
    if kind is RegLossKind.MAE:
        g = np.sign(s - t)
    elif kind is RegLossKind.MSE:
        g = 2.0 * (s - t)
    elif kind is RegLossKind.KL:
        g = (s - t) / (s * (1.0 - s))
    else:
        g = (s - t) / (s * (1.0 - s)) + np.log(s) - np.log(t) - np.log1p(-s) + np.log1p(-t)
    return np.where(inside, g, 0.0)


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
) -> tuple[LossBreakdown, Network]:
    """Composite objective value and its gradient w.r.t. ``net``.

    One forward pass scores the observed rows followed by the unobserved
    ones; a missing batch contributes no rows and a zero term.  Dropout
    masks (in TRAIN_DROPOUT mode) are drawn once for all rows and shared
    between the value and the single backward pass.  Raises
    NonFiniteLossError if any term degenerates.
    """
    if observed is None and unobserved is None and l2_coeff == 0.0:
        raise ValueError("loss requires a batch or a nonzero l2 coefficient")
    if observed is not None and observed.users.size == 0:
        raise ValueError("observed batch must be nonempty")
    no_rows = np.empty(0, dtype=np.int64)
    obs = observed if observed is not None else ObservedBatch(no_rows, no_rows, no_rows)
    unobs = unobserved if unobserved is not None else UnobservedBatch(no_rows, no_rows, no_rows)
    n, m = obs.users.size, unobs.users.size

    cache = forward_cached(net, np.concatenate([obs.users, unobs.users]),
                           np.concatenate([obs.items, unobs.items]), mode, rng)
    p, s = cache.probs[:n], cache.probs[n:]
    y = np.asarray(obs.labels, dtype=np.float64)
    t = np.asarray(unobs.teacher_targets, dtype=np.float64)
    # sum / max(count, 1) is np.mean bit for bit, and 0 for a missing batch.
    data_term = float(np.sum(_bce_terms(p, y)) / max(n, 1))
    distill_term = float(np.sum(_reg_terms(reg_kind, t, s)) / max(m, 1))
    dreg_ds = _reg_grad_wrt_student(reg_kind, t, s)
    dlogits = np.concatenate([(p - y) / max(n, 1),
                              gamma_reg * dreg_ds * s * (1.0 - s) / max(m, 1)])
    grads = backprop(net, cache, dlogits)

    reg_term = l2_reg(net)
    if l2_coeff != 0.0:
        for g, a in zip(grads.l2_arrays(), net.l2_arrays()):
            g += 2.0 * l2_coeff * a

    breakdown = LossBreakdown.compose(data_term, distill_term, reg_term, gamma_reg, l2_coeff)
    return breakdown, grads
