"""Losses: BCE, L2 penalty, distillation discrepancies, composites.

``loss_and_grads`` is the one training objective, value and analytic
gradient together: a binary-cross-entropy data term over the required
``ObservedBatch``, an L2 penalty on weights and embeddings and, for the
student, a teacher-alignment term over an ``UnobservedBatch``.  That
term is one of two discrepancies between the two predicted
probabilities, each written once in ``_reg_terms`` with its derivative in
the student's logit.  On the coat-rounds grid (perfbench's recipe with 8
dropout-TS rounds, gamma in {0.25, 0.5, 1, 2}, seeds 1-10, truth AUC):

- KL, perfbench's at gamma = 1: +0.111 over gamma = 0 before the rounds, +0.023 after;
- MSE at gamma = 2: +0.039 over KL at gamma = 1 after the rounds, at 10 of 10 seeds.

The distillation term takes unobserved rows exactly when ``gamma_reg > 0``:
the teacher calls ``loss_and_grads`` at gamma = 0 with no unobserved batch
(or an empty one), on uniform-source data only, and the student at
gamma > 0 with a nonempty one, whose targets are the teacher's predictions,
held constant.  Any other pairing is a ``ValueError``.  One forward pass
scores both batches, so dropout masks are shared by value and gradient,
and one backward pass yields both terms' gradient.

Read as a missing-data method, the distillation term imputes the labels of
the unobserved cells.  With one constant target it fills them with a fixed
value (Steck, KDD 2010); with the teacher's targets it is a learned
imputation model (Wang et al., "Doubly Robust Joint Learning for
Recommendation on Data Missing Not at Random", ICML 2019).  This reading
is an interpretation: the term is fitted as a discrepancy between two
predictions, and nothing here estimates or corrects an imputation error.

Loss terms are float64 whatever the network's dtype: probabilities enter
each per-row term through ``_clamp``, which casts them to float64, and
``l2_reg`` sums its squares in float64.  Only the gradient follows the
network: ``backprop`` casts the float64 logit gradients to the network's
dtype on entry.  The L2 gradient ``2 * l2_coeff * θ`` is not formed here:
the ``Gradient`` carries ``l2_coeff``, and ``optim.apply_update`` is where
it enters, in that dtype, on each array of ``Network.l2_arrays()``, row
block by row block, so no step makes an array the size of a table for it.

One clamp rule serves both terms and both dtypes: probabilities are clamped
into [CLAMP_EPS, 1 - CLAMP_EPS] in float64 before any logarithm, and the
clamp drops no gradient.  BCE's logit gradient ``p - y`` pulls an observed
row back from the clamp, and the distillation gradient, taken at the
clamped student, pulls an unobserved one back toward the teacher.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._rules import _check_columns, _check_labels, _check_unit_interval, _member, _real
from .network import ForwardMode, Gradient, Network, backprop, forward_cached
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
L2_BLOCK = 8 * 8192  # entries per l2_reg block: eight of numpy's reduction buffers


def _clamp(p) -> np.ndarray:
    return np.clip(np.asarray(p, dtype=np.float64), CLAMP_EPS, 1.0 - CLAMP_EPS)


class NonFiniteLossError(ArithmeticError):
    """A loss term evaluated to NaN/Inf; carries the offending term."""

    def __init__(self, term: str, value: float):
        self.term = term
        self.value = value
        super().__init__(f"{term} is non-finite ({value})")


class RegLossKind(Enum):
    """The distillation discrepancy; truth AUC on the coat-rounds gamma grid, seeds 1-10."""

    MSE = "mse"   # at gamma = 2: +0.039 over KL at 1 after 8 rounds, ahead of KL at every gamma
    KL = "kl"     # perfbench's, at gamma = 1: +0.111 over gamma = 0 before the rounds, +0.023 after


def _bce_terms(p_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    p = _clamp(p_hat)
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def l2_reg(net: Network) -> float:
    """Sum of squared entries over ``net.l2_arrays()``, summed in float64; biases excluded.

    Each array is squared ``L2_BLOCK`` entries at a time, so no temporary the size of a
    table is made, and each block's sum starts from the running total.  The blocks are a
    whole number of numpy's 8,192-entry reduction buffers, so a float32 array's sum keeps
    ``np.sum(np.square(a), dtype=np.float64)``'s bits; a float64 one's is within a few
    units in the last place of it.
    """
    def sum_of_squares(a):
        flat, total = a.reshape(-1), 0.0
        for start in range(0, flat.size, L2_BLOCK):
            total = np.sum(np.square(flat[start:start + L2_BLOCK]), dtype=np.float64,
                           initial=total)
        return total

    return float(sum(sum_of_squares(a) for a in net.l2_arrays()))


def _reg_terms(kind: RegLossKind, t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair discrepancy of student ``s`` from teacher ``t`` and its logit gradient.

    Both are taken at the clamped ``t`` and ``s``: the gradient is the
    derivative in the student's logit there, nonzero wherever the clamped
    inputs differ, so a student clamped at either end is still pulled
    toward the teacher, as BCE's ``p - y`` pulls an observed row.
    MSE: ``(t - s)**2``, whose logit gradient has no kink where ``s`` meets ``t``.
    KL, the teacher as reference distribution: logit gradient ``s - t``, as BCE's.
    Always finite, nonnegative, and zero exactly when the clamped inputs
    coincide.
    """
    t, s = _clamp(t), _clamp(s)
    if kind is RegLossKind.MSE:
        ds = s * (1.0 - s)   # d s / d logit
        value, dlogit = np.square(t - s), 2.0 * (s - t) * ds
    else:
        lt, ls, l1t, l1s = np.log(t), np.log(s), np.log1p(-t), np.log1p(-s)
        value, dlogit = t * (lt - ls) + (1.0 - t) * (l1t - l1s), s - t
    return value, dlogit


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


def _hold_read_only(batch) -> None:
    """Replaces each of ``batch``'s columns, once checked, by a read-only view of it, so
    neither a field nor an entry can change after the check; the caller's array stays
    writeable."""
    for name, column in vars(batch).items():
        view = np.asarray(column).view()
        view.flags.writeable = False
        object.__setattr__(batch, name, view)


@dataclass(frozen=True)
class ObservedBatch:
    """A checked training batch; its columns are read-only views."""

    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        _check_columns(type(self).__name__, **vars(self))
        _check_labels(np.asarray(self.labels))
        _hold_read_only(self)


@dataclass(frozen=True)
class UnobservedBatch:
    """Checked unobserved pairs and the teacher's targets; its columns are read-only views."""

    users: np.ndarray
    items: np.ndarray
    teacher_targets: np.ndarray   # constants: the teacher is detached

    def __post_init__(self):
        _check_columns(type(self).__name__, **vars(self))
        _check_unit_interval(np.asarray(self.teacher_targets), "teacher target")
        _hold_read_only(self)


def loss_and_grads(
    net: Network,
    observed: ObservedBatch,
    unobserved: UnobservedBatch | None = None,
    gamma_reg: float = 0.0,
    reg_kind: RegLossKind = RegLossKind.KL,
    l2_coeff: float = 0.0,
    mode: ForwardMode = ForwardMode.DETERMINISTIC,
    rng: RngStream | None = None,
) -> tuple[LossBreakdown, Gradient]:
    """Composite objective value and its gradient w.r.t. ``net``.

    The observed batch is required and nonempty.  The unobserved batch has
    rows exactly when ``gamma_reg > 0``, the student's call; at
    ``gamma_reg = 0``, the teacher's call, it is None or empty and the
    distillation term is 0.  Any other pairing raises a ``ValueError`` naming
    ``gamma_reg``, before the forward.  ``gamma_reg`` and ``l2_coeff`` must be
    finite reals >= 0 and ``reg_kind`` a ``RegLossKind``; ``forward_cached``
    checks ``net``, ``mode`` and ``rng``.  One forward pass scores all rows, observed first (so an
    id error's row counts them first), and draws TRAIN_DROPOUT masks once;
    one backward pass takes the logit gradients ``p - y`` of the BCE slice
    and ``_reg_terms``' of the distillation slice.  Raises NonFiniteLossError
    if any term degenerates.  ``reg_kind`` stays a parameter, defaulting to
    KL, because its callers pass it, on the teacher's call too: perfbench and
    the library loop, ``train.fit``.
    """
    if observed is None or len(_member(observed, "observed", ObservedBatch).users) == 0:
        raise ValueError("loss_and_grads requires a nonempty observed batch")
    gamma_reg = _real(gamma_reg, "gamma_reg", 0.0, low_closed=True)
    l2_coeff = _real(l2_coeff, "l2_coeff", 0.0, low_closed=True)
    _member(reg_kind, "reg_kind", RegLossKind)
    if unobserved is None:
        unobserved = UnobservedBatch(*[np.empty(0, dtype=np.int64)] * 3)
    n, m = len(observed.users), len(_member(unobserved, "unobserved", UnobservedBatch).users)
    if (m > 0) != (gamma_reg > 0.0):
        raise ValueError(f"gamma_reg must be > 0 exactly when the unobserved batch has rows, "
                         f"got gamma_reg={gamma_reg} with {m} unobserved rows")
    cache = forward_cached(net, np.concatenate([observed.users, unobserved.users]),
                           np.concatenate([observed.items, unobserved.items]), mode, rng)
    p, s = cache.probs[:n], cache.probs[n:]
    y = np.asarray(observed.labels, dtype=np.float64)
    values, dlogit = _reg_terms(reg_kind, unobserved.teacher_targets, s)
    # sum / max(m, 1) is np.mean bit for bit, and 0 without unobserved rows.
    data_term = float(np.sum(_bce_terms(p, y)) / n)
    distill_term = float(np.sum(values) / max(m, 1))
    grads = backprop(net, cache, np.concatenate([(p - y) / n, gamma_reg * dlogit / max(m, 1)]),
                     l2_coeff)
    return LossBreakdown.compose(data_term, distill_term, l2_reg(net), gamma_reg, l2_coeff), grads
