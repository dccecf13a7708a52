"""The benchmark reads the synthetic truth by cells and user rows, and never builds its grid.

``perfbench/`` is put on ``sys.path`` as it stands, and its pipeline runs scaled-down
workloads twice: once as it is, and once with ``TruthMatrix.__array__`` made to raise.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from distilrec.data import TruthMatrix, generate_synthetic

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


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_without_the_grid(pipeline, monkeypatch, tmp_path, name):
    wl = dataclasses.replace(pipeline.WORKLOADS[name], name=f"tiny-{name}", **TINY[name])

    def run():
        return pipeline.run_workload(wl, 3, seconds=0, trace=False, workroot=tmp_path,
                                     min_passes=1)

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
