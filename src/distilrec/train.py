"""The training loop: ``n_steps`` steps cycling through batches, with an optional pool.

Step j packs batch ``j % len(batches)`` as the ``ObservedBatch``; with a pool it also
takes the j-th of ``n_steps`` equal slices of the pool's pairs and of their targets as
the ``UnobservedBatch``.  It then calls ``loss_and_grads`` in TRAIN_DROPOUT mode with KL,
gamma = 1 and L2 = 1e-6 (gamma = 0 and no unobserved batch without a pool) and applies
the update.  Targets are an array as long as the pool: the teacher's scores, or one
constant for every pair.  Gamma, the kind and L2 each have one value in use, so each is a
constant here.  ``loss_and_grads`` and ``apply_update`` are looked up on their modules at
every step, where a caller may wrap them.  ``tracer`` is any object whose ``span(name)``
is a context manager; the loop opens ``bench.step``, ``data.pack``,
``losses.loss_and_grads`` and ``optim.apply_update`` through it.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from . import data, losses, optim
from ._rules import _as_pairs, _check_on_grid, _check_unit_interval, _count, _first, _member
from .network import ForwardMode, Network

__all__ = ["fit", "fit_teacher"]

GAMMA_REG, REG_KIND, L2_COEFF = 1.0, losses.RegLossKind.KL, 1e-6
_NO_SPAN = nullcontext()


def fit(net, opt, batches, n_steps, rng, pool=None, targets=None, tracer=None):
    """Trains ``net`` in place for ``n_steps`` steps; returns each step's ``LossBreakdown``.

    Before the first step, every batch's ids and every pool pair are checked against
    ``net.config``'s grid and every target against [0, 1], each fault naming the batch and
    its row or the pool index, so a rejected input leaves ``net`` and ``opt`` unchanged.
    """
    n_steps, n_batches = _count(n_steps, "n_steps"), _count(len(batches), "number of batches")
    if (pool is None) != (targets is None):
        raise ValueError("pool and targets must be given together")
    cfg = _member(net, "net", Network).config
    ids = [(f"batches[{b}] ", *data.pack(batch)[:2]) for b, batch in enumerate(batches)]
    if pool is not None:
        pool, targets = _as_pairs(pool), np.asarray(targets)
        if (per_step := len(pool) // n_steps) == 0:
            raise ValueError(f"pool has {len(pool)} pairs, fewer than n_steps={n_steps}")
        if targets.shape != (len(pool),):
            raise ValueError(f"targets has shape {targets.shape}, not ({len(pool)},) as the pool")
        _check_unit_interval(targets, "teacher target")
        ids.append(("pool ", pool[:, 0], pool[:, 1]))
    for where, users, items in ids:
        try:
            _check_on_grid(users, items, cfg.n_users, cfg.n_items)
        except ValueError as exc:
            raise ValueError(where + str(exc)) from None
    span = tracer.span if tracer is not None else lambda name: _NO_SPAN
    out = []
    for j in range(n_steps):
        with span("bench.step"):
            with span("data.pack"):
                users, items, labels = data.pack(batches[j % n_batches])
            observed, unobserved = losses.ObservedBatch(users, items, labels), None
            if pool is not None:
                lo, hi = j * per_step, (j + 1) * per_step
                unobserved = losses.UnobservedBatch(pool[lo:hi, 0], pool[lo:hi, 1],
                                                    targets[lo:hi])
            with span("losses.loss_and_grads"):
                breakdown, grads = losses.loss_and_grads(
                    net, observed, unobserved, GAMMA_REG if pool is not None else 0.0,
                    REG_KIND, L2_COEFF, ForwardMode.TRAIN_DROPOUT, rng)
            with span("optim.apply_update"):
                optim.apply_update(opt, net, grads)
        out.append(breakdown)
    return out


def fit_teacher(net, opt, batches, n_steps, rng, tracer=None):
    """``fit`` without a pool, on ``Rows`` batches of ``UNIFORM`` rows only; a batch with
    another row is rejected, naming the batch and the row, before any step runs."""
    for b, batch in enumerate(batches):
        if (k := _first(~_member(batch, f"batches[{b}]", data.Rows).is_uniform)) is not None:
            raise ValueError(f"batches[{b}] row {k}: the teacher fits UNIFORM rows only, "
                             f"got {batch[k].source.name}")
    return fit(net, opt, batches, n_steps, rng, tracer=tracer)
