"""Offline evaluation on the held-out uniform slice: AUC and mean BCE."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rules import _check_columns, _check_labels, _check_unit_interval, _first, _member
from .data import Interaction, Rows, pack
from .losses import _bce_terms
from .network import ForwardMode, Network, forward_batch

__all__ = ["MetricsResult", "UndefinedMetricError", "auc", "bce_eval", "evaluate"]


class UndefinedMetricError(ValueError):
    """Raised when a metric has no defined value for the given input."""


@dataclass(frozen=True)
class MetricsResult:
    auc: float
    bce: float
    n_pos: int
    n_neg: int


def _checked(owner: str, scores: Sequence[float],
             labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """``owner``'s 1-D float scores and 0/1 labels, of one length; names the first bad entry."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    _check_columns(owner, scores=s, labels=y)
    if (k := _first(np.isnan(s))) is not None:
        raise ValueError(f"score at index {k} is NaN")
    _check_labels(y)
    return s, y


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability that a random positive outscores a random negative.

    Pairwise definition with half credit for ties, computed via average
    ranks (Mann-Whitney) in O(n log n).  Requires both classes present.
    """
    s, y = _checked("auc", scores, labels)
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
    s, y = _checked("bce_eval", scores, labels)
    if s.size == 0:
        raise ValueError("bce_eval requires a nonempty input")
    _check_unit_interval(s, "score")
    return float(np.mean(_bce_terms(s, y)))


def evaluate(net: Network, testset: Rows | Sequence[Interaction]) -> MetricsResult:
    """Score every test interaction deterministically, then AUC + BCE.

    Dropout never participates in measurement; stochastic scoring is a
    data-collection device, not an evaluation one.
    """
    if len(_member(testset, "testset", Rows, list, tuple)) == 0:
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
