"""Offline evaluation on the held-out uniform slice: AUC and mean BCE."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .losses import _bce_terms
from .network import ForwardMode, Network, forward_batch
from .data import Interaction, pack

__all__ = ["MetricsResult", "UndefinedMetricError", "auc", "bce_eval", "evaluate"]


class UndefinedMetricError(ValueError):
    """Raised when a metric has no defined value for the given input."""


@dataclass(frozen=True)
class MetricsResult:
    auc: float
    bce: float
    n_pos: int
    n_neg: int


def _checked(scores: Sequence[float], labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Equal-length 1-D float scores and 0/1 labels; names the first bad entry."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError(f"scores and labels must be equal-length 1-D sequences, "
                         f"got shapes {s.shape} and {y.shape}")
    nan = np.flatnonzero(np.isnan(s))
    if nan.size:
        raise ValueError(f"score at index {nan[0]} is NaN")
    bad = np.flatnonzero((y != 0) & (y != 1))
    if bad.size:
        raise ValueError(f"label at index {bad[0]} is {y[bad[0]]}, not 0 or 1")
    return s, y


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability that a random positive outscores a random negative.

    Pairwise definition with half credit for ties, computed via average
    ranks (Mann-Whitney) in O(n log n).  Requires both classes present.
    """
    s, y = _checked(scores, labels)
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC undefined: {n_pos} positives, {n_neg} negatives"
        )
    _, tie_group, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[tie_group]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def bce_eval(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mean clamped binary cross-entropy of probabilities in [0, 1]."""
    s, y = _checked(scores, labels)
    if s.size == 0:
        raise ValueError("bce_eval requires a nonempty input")
    bad = np.flatnonzero((s < 0.0) | (s > 1.0))
    if bad.size:
        raise ValueError(f"score at index {bad[0]} is {s[bad[0]]}, outside [0, 1]")
    return float(np.mean(_bce_terms(s, y)))


def evaluate(net: Network, testset: Sequence[Interaction]) -> MetricsResult:
    """Score every test interaction deterministically, then AUC + BCE.

    Dropout never participates in measurement; stochastic scoring is a
    data-collection device, not an evaluation one.
    """
    if len(testset) == 0:
        raise ValueError("empty test set")
    users, items, labels = pack(testset)
    scores = forward_batch(net, np.column_stack([users, items]), ForwardMode.DETERMINISTIC)
    n_pos = int(labels.sum())
    return MetricsResult(
        auc=auc(scores, labels.astype(np.int64)),
        bce=bce_eval(scores, labels),
        n_pos=n_pos,
        n_neg=int(labels.size) - n_pos,
    )
