"""Scaled-down workloads, and every correctness check against a planted wrong output.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks as C
import pipeline as P
from distilrec import data as D
from distilrec import metrics as M

BENCH = Path(__file__).resolve().parents[1]

# Same pipelines as the real workloads, on worlds a few hundred cells large.
TINY = {
    "coat-rounds": P.Workload("tiny-coat-rounds", "coat", 30, 40, 300, 240, "adam", 3e-3,
                              teacher_epochs=4, student_steps=60, rounds=2, round_users=None,
                              k=3, round_steps=None, batch=64),
    "yahoo-fit": P.Workload("tiny-yahoo-fit", "yahoo", 40, 30, 300, 200, "adam", 1e-3,
                            teacher_epochs=6, student_steps=4, rounds=0, round_users=None,
                            k=0, round_steps=None, batch=64),
    "yahoo-rounds": P.Workload("tiny-yahoo-rounds", "yahoo", 40, 30, 300, 200, "sgd", 0.5,
                               teacher_epochs=6, student_steps=4, rounds=2, round_users=10,
                               k=4, round_steps=3, batch=64),
}


def run(wl, tmp_path, trace=False, seed=3):
    return P.run_workload(wl, seed, seconds=0, trace=trace, workroot=tmp_path, min_passes=2)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_and_repeats(name, tmp_path):
    first = run(TINY[name], tmp_path)
    assert first.correct and first.failed == 0, first.failures
    assert first.attempted > first.counts.steps
    second = run(TINY[name], tmp_path)
    assert second.digest == first.digest
    assert second.counts == first.counts
    assert set(first.metrics) == {m["name"] for m in benchmark_json()["end_to_end"]}
    assert all(v["value"] > 0 for v in first.metrics.values())
    assert not any(tmp_path.iterdir()), "input files are removed at the end of a run"


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_layers_with_equal_counts(name, tmp_path):
    untraced = run(TINY[name], tmp_path)
    traced = run(TINY[name], tmp_path, trace=True)
    assert traced.correct, traced.failures
    assert traced.digest == untraced.digest
    assert set(traced.metrics) == {m["name"] for m in benchmark_json()["per_layer"]}
    for field in ("steps", "train_pairs", "score_pairs", "rounds", "rows_appended"):
        assert traced.metrics[f"count.{field}"]["value"] == getattr(untraced.counts, field)
    for layer in ("network.forward_ms", "network.backprop_ms", "rng.random_ms",
                  "optim.apply_update_ms", "data.generate_s", "mem.step_peak_mb"):
        assert traced.metrics[layer]["value"] > 0
    if TINY[name].rounds:
        assert traced.metrics["data.rebuild_s"]["value"] > 0


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from distilrec import losses
    from distilrec.rng import RngStream

    before = (losses.forward_cached, losses.backprop, losses.l2_reg, M.forward_batch,
              RngStream.__dict__["random"])
    run(TINY["yahoo-fit"], tmp_path, trace=True)
    after = (losses.forward_cached, losses.backprop, losses.l2_reg, M.forward_batch,
             RngStream.__dict__["random"])
    assert after == before


# ---------------------------------------------------------------------------
# Planted faults in the library are caught by the pipeline's checks
# ---------------------------------------------------------------------------

def test_loader_dropping_a_row_is_caught(tmp_path, monkeypatch):
    load = D.load_coat

    def lossy(*paths):
        ds = load(*paths)
        return D.Dataset(ds.interactions[:-1], ds.n_users, ds.n_items)

    monkeypatch.setattr(D, "load_coat", lossy)
    result = run(TINY["coat-rounds"], tmp_path)
    assert "loader returns the written rows" in result.failures


def test_wrong_evaluate_auc_is_caught(tmp_path, monkeypatch):
    evaluate = M.evaluate

    def off_by_a_little(net, testset):
        result = evaluate(net, testset)
        return dataclasses.replace(result, auc=result.auc + 1e-9)

    monkeypatch.setattr(M, "evaluate", off_by_a_little)
    result = run(TINY["yahoo-fit"], tmp_path)
    assert "evaluate AUC equals the Mann-Whitney count" in result.failures


def test_sampler_returning_an_observed_pair_is_caught(tmp_path, monkeypatch):
    sample = D.UnobservedSampler.sample

    def leaky(self, n):
        pairs = sample(self, n)
        key = self._observed_keys[0]
        pairs[0] = (key // self.n_items, key % self.n_items)
        return pairs

    monkeypatch.setattr(D.UnobservedSampler, "sample", leaky)
    result = run(TINY["yahoo-rounds"], tmp_path)
    assert "sampler draws are unobserved" in result.failures
    assert "sampler draws after the rebuild are unobserved" in result.failures


def test_rebuild_losing_rows_is_caught(tmp_path, monkeypatch):
    dataset = D.Dataset

    def forgetful(interactions, n_users, n_items):
        return dataset(interactions[:-1], n_users, n_items)

    monkeypatch.setattr(D, "Dataset", forgetful)
    result = run(TINY["yahoo-rounds"], tmp_path)
    assert "log grows by exactly the picks" in result.failures


def test_yahoo_rows_of_a_user_missing_from_both_files_load_remapped(tmp_path):
    # Users 1 and 3 have no rows: the loader renumbers the rest 0, 1, 2.
    rows = (np.array([0, 2, 4, 4]), np.array([1, 0, 2, 1]), np.array([5, 3, 1, 2]),
            np.array([0, 0, 1, 0]))
    user_ids, item_ids = P.loaded_ids("yahoo", rows, n_users=5, n_items=3)
    assert user_ids.tolist() == [0, 2, 4] and item_ids.tolist() == [0, 1, 2]
    log = D.load_yahoo(*P.write_native("yahoo", rows, 5, 3, tmp_path))
    assert (log.n_users, log.n_items) == (3, 3)
    assert C.same_rows(P.expected_loaded_keys(rows, user_ids, item_ids),
                       C.row_keys(*P.dataset_rows(log), item_ids.size))


# ---------------------------------------------------------------------------
# Each check accepts a right output and rejects a planted wrong one
# ---------------------------------------------------------------------------

def pairwise_auc(scores, labels):
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = sum(float(p > q) + 0.5 * float(p == q) for p in pos for q in neg)
    return wins / (pos.size * neg.size)


def test_mann_whitney_matches_pairwise_count_with_ties():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=60).astype(float)
    labels = rng.integers(0, 2, size=60)
    assert C.mann_whitney_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels),
                                                               abs=1e-15)


def test_auc_matches_accepts_program_and_rejects_shifted_value():
    rng = np.random.default_rng(1)
    scores, labels = rng.random(200), rng.integers(0, 2, size=200)
    assert C.auc_matches(M.auc(scores, labels), scores, labels)
    assert not C.auc_matches(M.auc(scores, labels) + 1e-9, scores, labels)


def test_same_rows_rejects_one_changed_rating():
    rows = (np.array([0, 1, 2]), np.array([2, 1, 0]), np.array([5, 3, 1]), np.array([0, 1, 0]))
    want = C.row_keys(*rows, n_items=3)
    assert C.same_rows(want, C.row_keys(*[r[::-1] for r in rows], n_items=3))
    bad = (rows[0], rows[1], np.array([5, 3, 2]), rows[3])
    assert not C.same_rows(want, C.row_keys(*bad, n_items=3))
    assert not C.same_rows(want, C.row_keys(*[r[:2] for r in rows], n_items=3))


def test_truth_auc_rejects_reversed_scores():
    p = np.linspace(0.01, 0.99, 50)
    assert C.truth_auc(p, p) == 1.0
    assert C.truth_auc(-p, p) < 0.5


def test_loss_falls_rejects_rising_or_short_curves():
    assert C.loss_falls([0.7, 0.7, 0.6, 0.6, 0.5, 0.5], epoch_steps=2)
    assert not C.loss_falls([0.5, 0.5, 0.6, 0.6, 0.7, 0.7], epoch_steps=2)
    assert not C.loss_falls([0.7, 0.6, 0.5], epoch_steps=2)


def make_round():
    observed = np.zeros((3, 6), dtype=bool)
    observed[:, 0] = True
    prob = np.tile(np.array([0.99, 0.1, 0.2, 0.3, 0.4, 0.5]), (3, 1))
    return np.arange(3), observed, prob


def test_picks_valid_rejects_observed_duplicate_or_missing_picks():
    users, observed, _ = make_round()
    good = np.array([[4, 5], [1, 2], [3, 5]])
    assert C.picks_valid(good, users, observed, k=2)
    assert not C.picks_valid(np.array([[0, 5], [1, 2], [3, 5]]), users, observed, k=2)
    assert not C.picks_valid(np.array([[5, 5], [1, 2], [3, 5]]), users, observed, k=2)
    assert not C.picks_valid(good[:, :1], users, observed, k=2)
    assert not C.picks_valid(good[:2], users, observed, k=2)


def test_regret_is_zero_for_true_top_k_and_negative_for_an_observed_pick():
    users, observed, prob = make_round()
    best = np.tile(np.array([5, 4]), (3, 1))
    assert C.regret(best, users, prob, observed) == 0.0
    assert C.regret(np.tile(np.array([1, 2]), (3, 1)), users, prob, observed) > 0.0
    assert C.regret(np.tile(np.array([0, 5]), (3, 1)), users, prob, observed) < 0.0


def test_labels_in_band_rejects_labels_not_drawn_from_p():
    rng = np.random.default_rng(2)
    p = rng.uniform(0.05, 0.5, size=2000)
    assert C.labels_in_band(rng.random(p.size) < p, p)
    assert not C.labels_in_band(np.ones(p.size), p)


def test_none_observed_rejects_a_logged_pair():
    _, observed, _ = make_round()
    assert C.none_observed(np.array([[0, 1], [2, 5]]), observed)
    assert not C.none_observed(np.array([[0, 1], [2, 0]]), observed)


# ---------------------------------------------------------------------------
# The command line
# ---------------------------------------------------------------------------

def benchmark_json():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_this_benchmark():
    spec = benchmark_json()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(P.WORKLOADS)


def test_cli_without_library_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "traces"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coat-rounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
