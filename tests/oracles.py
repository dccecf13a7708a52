"""Independent reference implementations used to check the fast paths.

Everything here is deliberately brute force: central finite differences
for gradients, the O(n^2) pairwise sum for AUC, a row built with the
rating rule written out, and the whole-array gradient and update that a
training step made before its gradient held only the touched rows.  These
oracles never call into the code paths they verify.
"""

from __future__ import annotations

import numpy as np

from distilrec.data import Interaction, Source
from distilrec.network import Gradient, Network


def interaction(user: int, item: int, rating: int, source: Source) -> Interaction:
    """A row labelled by the rating rule: only a 5 counts as a positive."""
    return Interaction(user, item, rating, 1 if rating == 5 else 0, source)


def float64_network(net: Network) -> Network:
    """``net``'s parameters cast to float64, the dtype every oracle here runs in: central
    differences at h = 1e-5 need float64's resolution."""
    return Network.from_arrays(net.config, [a.astype(np.float64) for a in net.param_arrays()])


def densify(grads: Gradient, net: Network) -> Network:
    """The whole gradient at ``net``'s parameters as a Network, laid out as it was made
    whole: each table's touched rows written into zeros and the dense layers' arrays
    copied, then ``2 * l2_coeff * θ`` added to each array of ``l2_arrays()``."""
    tables = []
    for table, rows, values in ((net.user_emb, grads.user_rows, grads.user_values),
                                (net.item_emb, grads.item_rows, grads.item_values)):
        g = np.zeros_like(table)
        g[rows] = values
        tables.append(g)
    dense = Network(grads.config, *tables, [w.copy() for w in grads.weights],
                    [b.copy() for b in grads.biases])
    if grads.l2_coeff != 0.0:
        for g, theta in zip(dense.l2_arrays(), net.l2_arrays()):
            g += 2.0 * grads.l2_coeff * theta
    return dense


def sparse_gradient(dense: Network, l2_coeff: float = 0.0) -> Gradient:
    """The Gradient that holds, of each of ``dense``'s tables, the rows with a nonzero
    entry; ``densify`` gives ``dense`` back when ``l2_coeff`` is 0."""
    parts = []
    for table in (dense.user_emb, dense.item_emb):
        rows = np.flatnonzero(np.any(table != 0.0, axis=1))
        parts += [rows, table[rows]]
    return Gradient(dense.config, *parts, list(dense.weights), list(dense.biases), l2_coeff)


def out_of_place_adam(p, g, m, v, lr, step):
    """Adam's update of whole arrays, in place, as it was written before it ran through
    scratch arrays and row blocks."""
    m *= 0.9
    m += (1.0 - 0.9) * g
    v *= 0.999
    v += (1.0 - 0.999) * np.square(g)
    p -= lr * (m / (1.0 - 0.9 ** step)) / (np.sqrt(v / (1.0 - 0.999 ** step)) + 1e-8)


def out_of_place_sgd(p, g, m, v, lr, step):
    """SGD's update of a whole array, in place; ``m``, ``v`` and ``step`` are unused."""
    p -= lr * g


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
