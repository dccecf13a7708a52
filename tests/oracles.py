"""Independent reference implementations used to check the fast paths.

Everything here is deliberately brute force: central finite differences
for gradients, the O(n^2) pairwise sum for AUC and a row built with the
rating rule written out.  These oracles never call into the code paths
they verify.
"""

from __future__ import annotations

import numpy as np

from distilrec.data import Interaction, Source
from distilrec.network import Network


def interaction(user: int, item: int, rating: int, source: Source) -> Interaction:
    """A row labelled by the rating rule: only a 5 counts as a positive."""
    return Interaction(user, item, rating, 1 if rating == 5 else 0, source)


def finite_difference_grads(loss_fn, net: Network, h: float = 1e-5) -> list[np.ndarray]:
    """Central differences of a scalar loss over every network parameter."""
    grads = []
    for arr in net.param_arrays():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_fn(net)
            flat[k] = orig - h
            down = loss_fn(net)
            flat[k] = orig
            gflat[k] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic: list[np.ndarray], numeric: list[np.ndarray]) -> float:
    """max |a - n| / max(1e-8, |a| + |n|) over every parameter entry."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1e-8, np.abs(a) + np.abs(n))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def pairwise_auc(scores, labels) -> float:
    """O(n^2) pairwise AUC: win = 1, tie = 1/2, loss = 0."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))
