"""The library's training loop, and perfbench's pipeline run over it bit for bit.

``perfbench/`` is put on ``sys.path`` as it stands.  Its pipeline runs scaled-down
workloads as it is, then with ``TruthMatrix.__array__`` made to raise, both as it is and
with its ``fit`` replaced by an adapter over ``train.fit`` and ``train.fit_teacher``.
"""

import dataclasses
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest

from distilrec import losses, train
from distilrec.data import (
    Source,
    TruthMatrix,
    UnobservedSampler,
    generate_synthetic,
    partition_batches,
)
from distilrec.network import NetworkConfig, forward_batch, init_network
from distilrec.optim import make_optimizer
from distilrec.rng import RngStream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The real workloads' pipelines on worlds a few hundred cells large.
TINY = {
    "coat-rounds": dict(n_users=30, n_items=40, n_biased=300, n_uniform=240, teacher_epochs=4,
                        student_steps=60, rounds=2, k=3, batch=64),
    "yahoo-fit": dict(n_users=40, n_items=30, n_biased=300, n_uniform=200, teacher_epochs=6,
                      student_steps=4, batch=64),
    "yahoo-rounds": dict(n_users=40, n_items=30, n_biased=300, n_uniform=200, teacher_epochs=6,
                         student_steps=4, rounds=2, round_users=10, k=4, round_steps=3,
                         batch=64),
}


@pytest.fixture
def pipeline(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline

    return pipeline


class StepBookkeeping:
    """A tracer for ``train.fit`` that keeps perfbench's per-step books around
    ``bench.step``: the tracer's step index, the traced pass's tracemalloc peak and the
    step count; every span goes to perfbench's ``Tracer``."""

    def __init__(self, tr, run):
        self.tr, self.run = tr, run

    @contextmanager
    def span(self, name):
        if name != "bench.step":
            with self.tr.span(name):
                yield
            return
        if self.run.memory:
            tracemalloc.start()
        self.tr.step = self.run.counts.steps
        with self.tr.span(name):
            yield
        self.tr.step = -1
        if self.run.memory:
            self.run.step_peaks_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        self.run.counts.steps += 1


def library_fit(tr, run, net, opt, batches, n_steps, rng, pool=None, targets=None):
    """``pipeline.fit`` over the library loop: the teacher's fit, without a pool, is
    ``fit_teacher``'s; returns each step's objective and counts the pairs trained on."""
    books = StepBookkeeping(tr, run)
    if pool is None:
        steps = train.fit_teacher(net, opt, batches, n_steps, rng, tracer=books)
    else:
        steps = train.fit(net, opt, batches, n_steps, rng, pool, targets, tracer=books)
    per_step = 0 if pool is None else len(pool) // n_steps
    run.counts.train_pairs += sum(len(batches[j % len(batches)]) + per_step
                                  for j in range(n_steps))
    return [b.total for b in steps]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_without_the_grid(pipeline, monkeypatch, tmp_path, name, trace):
    assert (pipeline.GAMMA_REG, pipeline.L2_COEFF) == (train.GAMMA_REG, train.L2_COEFF)
    assert train.REG_KIND is losses.RegLossKind.KL
    wl = dataclasses.replace(pipeline.WORKLOADS[name], name=f"tiny-{name}", **TINY[name])

    def run():
        # The traced mode leaves its first pass out of the time figures, so it needs two.
        return pipeline.run_workload(wl, 3, seconds=0, trace=trace, workroot=tmp_path,
                                     min_passes=1 + trace)

    want = run()
    assert want.correct, want.failures

    def refuse(self, dtype=None, copy=None):
        raise AssertionError("the whole truth grid was built")

    monkeypatch.setattr(TruthMatrix, "__array__", refuse)
    world, _ = generate_synthetic(3, 4, 2, 1.0, 5, 5, seed=0)
    with pytest.raises(AssertionError, match="whole truth grid"):
        np.asarray(world.prob)
    got = run()
    assert got.correct and got.failed == 0, got.failures
    assert got.digest == want.digest
    assert got.counts == want.counts

    monkeypatch.setattr(pipeline, "fit", library_fit)
    lib = run()
    assert ((lib.digest, lib.counts, lib.attempted, lib.failed, lib.failures)
            == (want.digest, want.counts, want.attempted, want.failed, want.failures))


# ---------------------------------------------------------------------------
# The loop's own rules, on a tiny world
# ---------------------------------------------------------------------------

def tiny(seed=0):
    """A fresh network and Adam state, uniform-train and student batches, and a pool of
    unobserved pairs with the network's scores as targets."""
    _, log = generate_synthetic(12, 10, 2, 1.0, 60, 40, seed=0)
    net = init_network(NetworkConfig(log.n_users, log.n_items, 4, (4,), 0.1), RngStream(seed))
    uniform = partition_batches(log.by_source(Source.UNIFORM), 2, RngStream(1))
    student = partition_batches(log.interactions, 4, RngStream(2))
    pool = UnobservedSampler.from_dataset(log, RngStream(3)).sample(24)
    opt = make_optimizer(net, "adam", 1e-2)
    return net, opt, uniform, student, pool, forward_batch(net, pool)


def param_bytes(net):
    return [a.tobytes() for a in net.param_arrays()]


@pytest.mark.parametrize("distil", [False, True], ids=["teacher", "student"])
def test_equal_seeds_give_bit_equal_parameters(distil):
    runs = []
    for _ in range(2):
        net, opt, uniform, student, pool, targets = tiny()
        if distil:
            steps = train.fit(net, opt, student, 6, RngStream(4), pool, targets)
        else:
            steps = train.fit_teacher(net, opt, uniform, 6, RngStream(4))
        runs.append((param_bytes(net), steps, opt.step))
    assert runs[0] == runs[1]
    assert runs[0][2] == 6 and len(runs[0][1]) == 6
    assert param_bytes(tiny()[0]) != runs[0][0]


def test_without_a_pool_the_objective_sees_gamma_zero_and_no_unobserved_batch(monkeypatch):
    seen = []
    real = losses.loss_and_grads

    def spy(net, observed, unobserved, gamma_reg, *rest):
        seen.append((unobserved, gamma_reg, rest[:2]))
        return real(net, observed, unobserved, gamma_reg, *rest)

    monkeypatch.setattr(losses, "loss_and_grads", spy)
    net, opt, uniform, student, pool, targets = tiny()
    train.fit(net, opt, student, 3, RngStream(4))
    assert seen == [(None, 0.0, (train.REG_KIND, train.L2_COEFF))] * 3
    seen.clear()
    train.fit(net, opt, student, 3, RngStream(4), pool, targets)
    assert [(len(u.users), g) for u, g, _ in seen] == [(8, train.GAMMA_REG)] * 3
    np.testing.assert_array_equal(seen[2][0].teacher_targets, targets[16:24])


def test_tracer_sees_each_step_in_the_pipeline_span_names():
    class Recorder:
        def __init__(self):
            self.names = []

        def span(self, name):
            self.names.append(name)
            return nullcontext()

    net, opt, uniform, _, _, _ = tiny()
    tracer = Recorder()
    train.fit_teacher(net, opt, uniform, 2, RngStream(4), tracer=tracer)
    assert tracer.names == ["bench.step", "data.pack", "losses.loss_and_grads",
                            "optim.apply_update"] * 2


# (fit's arguments over the tiny world's, the error it raises)
BAD_INPUTS = {
    "pool shorter than n_steps": (lambda w: dict(pool=w["pool"][:2], targets=w["targets"][:2]),
                                  "pool has 2 pairs, fewer than n_steps=3"),
    "targets without a pool": (lambda w: dict(targets=w["targets"]),
                               "pool and targets must be given together"),
    "a pool without targets": (lambda w: dict(pool=w["pool"]),
                               "pool and targets must be given together"),
    "targets shorter than the pool": (lambda w: dict(pool=w["pool"], targets=w["targets"][:-1]),
                                      r"targets has shape \(23,\), not \(24,\) as the pool"),
    "no batches": (lambda w: dict(batches=[]), "number of batches must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_rejected_naming_it(case):
    net, opt, _, student, pool, targets = tiny()
    make, message = BAD_INPUTS[case]
    args = {"batches": student, "n_steps": 3, "rng": RngStream(4),
            **make(dict(pool=pool, targets=targets))}
    before = param_bytes(net)
    with pytest.raises(ValueError, match=message):
        train.fit(net, opt, **args)
    assert param_bytes(net) == before and opt.step == 0


def test_teacher_given_one_biased_row_changes_nothing():
    net, opt, uniform, student, _, _ = tiny()
    biased = student[0][~student[0].is_uniform][:1]
    batches = [uniform[0], uniform[1] + biased]
    before = param_bytes(net)
    with pytest.raises(ValueError, match=rf"batches\[1\] row {len(uniform[1])}: the teacher "
                                         r"fits UNIFORM rows only, got BIASED"):
        train.fit_teacher(net, opt, batches, 4, RngStream(4))
    assert param_bytes(net) == before and opt.step == 0
