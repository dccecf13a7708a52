import math

import numpy as np
import pytest

from distilrec.data import Source
from distilrec.metrics import MetricsResult, UndefinedMetricError, auc, bce_eval, evaluate
from distilrec.network import NetworkConfig, init_network
from distilrec.rng import RngStream

from oracles import interaction, pairwise_auc


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties_half(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_nan_score_rejected_with_index(self):
        with pytest.raises(ValueError, match="index 2 is NaN"):
            auc([0.9, 0.1, np.nan, 0.5, np.nan], [1, 0, 1, 0, 0])

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(UndefinedMetricError):
            auc([0.1, 0.2], [0, 0])

    def test_matches_pairwise_oracle_on_random_instances(self):
        gen = np.random.default_rng(123)
        for _ in range(1000):
            n = int(gen.integers(2, 51))
            labels = gen.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # Coarse score grid injects plenty of ties.
            scores = gen.integers(0, 8, size=n) / 8.0
            assert auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )

    def test_invariant_under_strictly_increasing_transform(self):
        gen = np.random.default_rng(5)
        scores = gen.uniform(0.01, 0.99, size=40)
        labels = gen.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == base
        assert auc(3.0 * scores + 7.0, labels) == base

    def test_score_negation_complements(self):
        gen = np.random.default_rng(6)
        scores = gen.permutation(30) / 30.0  # distinct scores, no ties
        labels = gen.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


class TestBceEval:
    def test_uninformative_scores(self):
        assert bce_eval([0.5] * 8, [1, 0, 1, 0, 1, 0, 1, 0]) == pytest.approx(math.log(2))

    def test_confident_wrong_single(self):
        assert bce_eval([0.9], [0]) == pytest.approx(2.302585092994046, abs=1e-12)

    def test_clamped_perfect_predictions(self):
        v = bce_eval([1.0, 0.0], [1, 0])
        assert 0.0 < v < 1e-6

    def test_permutation_invariance(self):
        gen = np.random.default_rng(2)
        scores = gen.uniform(0.01, 0.99, size=25)
        labels = gen.integers(0, 2, size=25)
        perm = gen.permutation(25)
        assert bce_eval(scores[perm], labels[perm]) == pytest.approx(
            bce_eval(scores, labels), rel=1e-12
        )

    def test_equals_uniformly_weighted_risk(self):
        gen = np.random.default_rng(3)
        scores = gen.uniform(0.01, 0.99, size=10)
        labels = gen.integers(0, 2, size=10)
        per_sample = [-math.log(s) if y else -math.log(1 - s) for s, y in zip(scores, labels)]
        assert bce_eval(scores, labels) == pytest.approx(math.fsum(per_sample) / 10, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bce_eval([], [])

    def test_nan_score_rejected_with_index(self):
        with pytest.raises(ValueError, match="index 1 is NaN"):
            bce_eval([0.3, np.nan, 0.7], [1, 0, 1])

    def test_score_outside_unit_interval_rejected_with_index(self):
        with pytest.raises(ValueError, match=r"index 0 is 1.5, outside \[0, 1\]"):
            bce_eval([1.5, -0.2], [1, 0])
        with pytest.raises(ValueError, match=r"index 1 is -0.2, outside"):
            bce_eval([0.5, -0.2], [1, 0])
        with pytest.raises(ValueError, match=r"index 0 is inf, outside"):
            bce_eval([np.inf], [1])


@pytest.mark.parametrize("metric", [auc, bce_eval])
class TestSharedInputCheck:
    def test_not_equal_length_1d_rejected(self, metric):
        with pytest.raises(ValueError, match=r"equal-length 1-D.*\(1,\) and \(3,\)"):
            metric([0.5], [1, 0, 1])
        with pytest.raises(ValueError, match=r"equal-length 1-D.*\(1, 2\) and \(1, 2\)"):
            metric([[0.1, 0.9]], [[0, 1]])

    def test_label_outside_zero_one_rejected_with_index(self, metric):
        with pytest.raises(ValueError, match="label at index 0 is 2, not 0 or 1"):
            metric([0.1, 0.9, 0.5], [2, 1, 0])
        with pytest.raises(ValueError, match="label at index 2 is 0.5, not 0 or 1"):
            metric([0.3, 0.6, 0.7], [1, 0, 0.5])
        with pytest.raises(ValueError, match="label at index 1 is -1, not 0 or 1"):
            metric([0.3, 0.6, 0.7], [1, -1, 0])


class TestEvaluate:
    @staticmethod
    def make_testset():
        return [
            interaction(0, 0, 5, Source.UNIFORM),
            interaction(0, 1, 2, Source.UNIFORM),
            interaction(1, 0, 1, Source.UNIFORM),
            interaction(1, 1, 5, Source.UNIFORM),
        ]

    def test_constant_scorer_baseline(self):
        net = init_network(NetworkConfig(2, 2, 2, (3,)), RngStream(0))
        for arr in net.param_arrays():
            arr[...] = 0.0
        res = evaluate(net, self.make_testset())
        assert res.auc == 0.5
        assert res.bce == pytest.approx(math.log(2), abs=1e-12)
        assert (res.n_pos, res.n_neg) == (2, 2)

    def test_permutation_invariance(self):
        net = init_network(NetworkConfig(2, 2, 2, (3,)), RngStream(3))
        a = evaluate(net, self.make_testset())
        b = evaluate(net, list(reversed(self.make_testset())))
        assert a.auc == pytest.approx(b.auc, abs=1e-15)
        assert a.bce == pytest.approx(b.bce, rel=1e-12)

    def test_perfect_scorer_auc_one(self):
        # Scoring by the ground-truth labels themselves is the ideal ranking.
        labels = [i.label for i in self.make_testset()]
        assert auc(np.array(labels, dtype=float), labels) == 1.0

    def test_empty_testset_rejected(self):
        net = init_network(NetworkConfig(2, 2, 2, (3,)), RngStream(3))
        with pytest.raises(ValueError):
            evaluate(net, [])
