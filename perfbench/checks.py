"""Correctness checks made apart from the library under test.

Each check is a pure function of the program's outputs and of facts the
benchmark knows independently (what it wrote, the world's true
preference matrix, what was observed before a round).  None compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np


def row_keys(users, items, ratings, sources, n_items: int) -> np.ndarray:
    """Sorted integer keys of (user, item, rating, source) rows."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    keys = ((users * n_items + items) * 8 + np.asarray(ratings, dtype=np.int64)) * 2
    return np.sort(keys + np.asarray(sources, dtype=np.int64))


def same_rows(expected: np.ndarray, got: np.ndarray) -> bool:
    return expected.shape == got.shape and bool(np.array_equal(expected, got))


def mann_whitney_auc(scores, labels) -> float:
    """AUC as the Mann-Whitney count: wins plus half the ties, over pairs.

    Counts, for every positive, the negatives below it and the negatives
    tied with it by binary search in the sorted negative scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    below = np.searchsorted(neg, pos, side="left")
    not_above = np.searchsorted(neg, pos, side="right")
    wins = below.sum(dtype=np.int64)
    ties = (not_above - below).sum(dtype=np.int64)
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def auc_matches(program_auc: float, scores, labels, tol: float = 1e-12) -> bool:
    return abs(program_auc - mann_whitney_auc(scores, labels)) <= tol


def truth_auc(scores, true_prob) -> float:
    """AUC of scores at telling pairs above the median true probability."""
    true_prob = np.asarray(true_prob, dtype=np.float64)
    return mann_whitney_auc(scores, (true_prob > np.median(true_prob)).astype(np.int64))


def loss_falls(step_losses, epoch_steps: int) -> bool:
    """Mean training loss of the last whole epoch is below that of the first."""
    losses = np.asarray(step_losses, dtype=np.float64)
    epochs = losses.size // epoch_steps
    if epochs < 2:
        return False
    last = losses[(epochs - 1) * epoch_steps:epochs * epoch_steps]
    return bool(last.mean() < losses[:epoch_steps].mean())


def picks_valid(picks: np.ndarray, users: np.ndarray, observed: np.ndarray, k: int) -> bool:
    """Each scored user has exactly k distinct picks, none observed before."""
    picks = np.asarray(picks)
    if picks.shape != (users.size, k):
        return False
    if np.any(np.diff(np.sort(picks, axis=1), axis=1) == 0):
        return False
    return not bool(observed[users[:, None], picks].any())


def regret(picks: np.ndarray, users: np.ndarray, prob: np.ndarray, observed: np.ndarray) -> float:
    """True-probability top-k sum over unobserved items minus that of the picks.

    Both sides sum sorted values, so picks equal to the true top-k give
    exactly 0.
    """
    k = picks.shape[1]
    candidates = np.where(observed[users], -np.inf, prob[users])
    best = -np.partition(-candidates, k - 1, axis=1)[:, :k]
    chosen = prob[users[:, None], picks]
    return float(np.sort(best, axis=1).sum() - np.sort(chosen, axis=1).sum())


def labels_in_band(labels, p, sigmas: float = 5.0) -> bool:
    """Mean drawn label within a binomial band around the mean true probability."""
    labels = np.asarray(labels, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    sd = np.sqrt(np.sum(p * (1.0 - p))) / p.size
    return bool(abs(labels.mean() - p.mean()) <= sigmas * sd)


def none_observed(pairs: np.ndarray, observed: np.ndarray) -> bool:
    pairs = np.asarray(pairs).reshape(-1, 2)
    return not bool(observed[pairs[:, 0], pairs[:, 1]].any())
