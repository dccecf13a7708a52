import collections

import numpy as np
import pytest

from distilrec.data import (
    DataFormatError,
    Dataset,
    Interaction,
    Source,
    SplitSpec,
    UnobservedSampler,
    binarize,
    generate_synthetic,
    interaction,
    load_coat,
    load_yahoo,
    pack,
    partition_batches,
    read_canonical_tsv,
    split_uniform,
    write_canonical_tsv,
)
from distilrec.rng import RngStream


class TestBinarize:
    @pytest.mark.parametrize("rating,label", [(5, 1), (4, 0), (3, 0), (2, 0), (1, 0)])
    def test_rule(self, rating, label):
        assert binarize(rating) == label

    @pytest.mark.parametrize("rating", [0, 6, -1])
    def test_out_of_range(self, rating):
        with pytest.raises(ValueError):
            binarize(rating)

    def test_interaction_label_must_match_rating(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Interaction(0, 0, 5, 0, Source.UNIFORM)


class TestDatasetInvariants:
    def test_duplicate_triple_rejected(self):
        inters = [interaction(0, 0, 5, Source.UNIFORM), interaction(0, 0, 3, Source.UNIFORM)]
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(inters, n_users=1, n_items=1)

    def test_same_pair_different_source_allowed(self):
        inters = [interaction(0, 0, 5, Source.UNIFORM), interaction(0, 0, 3, Source.BIASED)]
        ds = Dataset(inters, n_users=1, n_items=1)
        assert len(ds.observed_pairs()) == 1

    def test_id_bounds_checked(self):
        with pytest.raises(ValueError, match="range"):
            Dataset([interaction(3, 0, 5, Source.UNIFORM)], n_users=2, n_items=1)


class TestYahooLoader:
    def test_single_line(self, tmp_path):
        biased = tmp_path / "biased.txt"
        uniform = tmp_path / "uniform.txt"
        biased.write_text("")
        uniform.write_text("1\t1\t5\n")
        ds = load_yahoo(biased, uniform)
        assert len(ds.interactions) == 1
        inter = ds.interactions[0]
        assert (inter.user, inter.item, inter.label, inter.source) == (0, 0, 1, Source.UNIFORM)

    def test_id_remapping_contiguous(self, tmp_path):
        biased = tmp_path / "b.txt"
        uniform = tmp_path / "u.txt"
        biased.write_text("7\t100\t3\n2\t100\t5\n")
        uniform.write_text("7\t900\t1\n")
        ds = load_yahoo(biased, uniform)
        assert ds.n_users == 2 and ds.n_items == 2
        users = sorted({i.user for i in ds.interactions})
        items = sorted({i.item for i in ds.interactions})
        assert users == [0, 1] and items == [0, 1]

    def test_malformed_line_reports_location(self, tmp_path):
        biased = tmp_path / "b.txt"
        uniform = tmp_path / "u.txt"
        biased.write_text("1\t1\t5\nnot-a-triple\n")
        uniform.write_text("")
        with pytest.raises(DataFormatError, match="b.txt:2"):
            load_yahoo(biased, uniform)

    def test_out_of_scale_rating(self, tmp_path):
        biased = tmp_path / "b.txt"
        uniform = tmp_path / "u.txt"
        biased.write_text("1\t1\t6\n")
        uniform.write_text("")
        with pytest.raises(DataFormatError, match="rating 6"):
            load_yahoo(biased, uniform)


class TestCoatLoader:
    @staticmethod
    def write_matrix(path, m):
        path.write_text("\n".join(" ".join(str(v) for v in row) for row in m) + "\n")

    def test_small_matrices(self, tmp_path):
        train = tmp_path / "train.ascii"
        test = tmp_path / "test.ascii"
        self.write_matrix(train, [[0, 5, 0], [1, 0, 0]])
        self.write_matrix(test, [[4, 0, 0], [0, 0, 5]])
        ds = load_coat(train, test)
        assert ds.n_users == 2 and ds.n_items == 3
        biased = ds.by_source(Source.BIASED)
        uniform = ds.by_source(Source.UNIFORM)
        assert {(i.user, i.item, i.rating, i.label) for i in biased} == {(0, 1, 5, 1), (1, 0, 1, 0)}
        assert {(i.user, i.item, i.rating, i.label) for i in uniform} == {(0, 0, 4, 0), (1, 2, 5, 1)}

    def test_all_zero_matrix_empty_dataset(self, tmp_path):
        train = tmp_path / "train.ascii"
        test = tmp_path / "test.ascii"
        self.write_matrix(train, [[0, 0], [0, 0]])
        self.write_matrix(test, [[0, 0], [0, 0]])
        ds = load_coat(train, test)
        assert ds.interactions == []

    def test_shape_mismatch_rejected(self, tmp_path):
        train = tmp_path / "train.ascii"
        test = tmp_path / "test.ascii"
        self.write_matrix(train, [[0, 5], [1, 0]])
        self.write_matrix(test, [[4, 0, 0], [0, 0, 5]])
        with pytest.raises(DataFormatError, match="shapes differ"):
            load_coat(train, test)

    def test_ragged_row_rejected(self, tmp_path):
        train = tmp_path / "train.ascii"
        test = tmp_path / "test.ascii"
        train.write_text("0 5\n1\n")
        self.write_matrix(test, [[0, 0], [0, 0]])
        with pytest.raises(DataFormatError, match="ragged"):
            load_coat(train, test)

    def test_out_of_range_cell_reports_location(self, tmp_path):
        train = tmp_path / "train.ascii"
        test = tmp_path / "test.ascii"
        train.write_text("0 5\n7 0\n")
        self.write_matrix(test, [[0, 0], [0, 0]])
        with pytest.raises(DataFormatError, match="train.ascii:2"):
            load_coat(train, test)


class TestCanonicalTsv:
    def test_round_trip_exact(self, tmp_path):
        _, ds = generate_synthetic(12, 9, 3, 2.0, n_biased=40, n_uniform=20, seed=3)
        path = tmp_path / "canonical.tsv"
        write_canonical_tsv(ds, path)
        back = read_canonical_tsv(path, n_users=ds.n_users, n_items=ds.n_items)
        assert back.interactions == ds.interactions
        assert (back.n_users, back.n_items) == (ds.n_users, ds.n_items)

    def test_labels_always_rebinarized(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\t0\t5\tuniform\n0\t1\t4\tbiased\n")
        ds = read_canonical_tsv(path)
        assert [i.label for i in ds.interactions] == [1, 0]


class TestSplitUniform:
    @staticmethod
    def fake_uniform(n):
        return [interaction(k // 100, k % 100, 5 if k % 7 == 0 else 1, Source.UNIFORM)
                for k in range(n)]

    def test_default_sizes_on_4640(self):
        train, val, test = split_uniform(self.fake_uniform(4640), SplitSpec(seed=1))
        assert (len(train), len(val), len(test)) == (928, 1856, 1856)

    def test_same_seed_identical(self):
        data = self.fake_uniform(101)
        a = split_uniform(data, SplitSpec(seed=9))
        b = split_uniform(data, SplitSpec(seed=9))
        assert a == b

    def test_partition_property(self):
        data = self.fake_uniform(257)
        train, val, test = split_uniform(data, SplitSpec(seed=2))
        recombined = sorted(train + val + test, key=lambda i: (i.user, i.item))
        assert recombined == sorted(data, key=lambda i: (i.user, i.item))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            split_uniform(self.fake_uniform(2), SplitSpec(seed=0))


class TestPartitionBatches:
    def test_remainder_rule_10_3(self):
        data = TestSplitUniform.fake_uniform(10)
        batches = partition_batches(data, 3, RngStream(4))
        assert [len(b) for b in batches] == [4, 3, 3]

    def test_coat_scale_sizes(self):
        data = TestSplitUniform.fake_uniform(6594)
        batches = partition_batches(data, 20, RngStream(4))
        counts = collections.Counter(len(b) for b in batches)
        assert counts == {330: 14, 329: 6}

    def test_single_batch_is_shuffled_input(self):
        data = TestSplitUniform.fake_uniform(17)
        batches = partition_batches(data, 1, RngStream(4))
        assert len(batches) == 1
        assert sorted(batches[0], key=id) != data or True  # order may change
        assert sorted(batches[0], key=lambda i: (i.user, i.item)) == sorted(
            data, key=lambda i: (i.user, i.item)
        )

    def test_disjoint_and_exhaustive(self):
        data = TestSplitUniform.fake_uniform(53)
        batches = partition_batches(data, 7, RngStream(0))
        flat = [i for b in batches for i in b]
        assert len(flat) == 53
        assert sorted(flat, key=lambda i: (i.user, i.item)) == sorted(
            data, key=lambda i: (i.user, i.item)
        )

    def test_more_batches_than_items_rejected(self):
        with pytest.raises(ValueError):
            partition_batches(TestSplitUniform.fake_uniform(3), 4, RngStream(0))

    def test_consecutive_slices_of_seeded_permutation(self):
        data = TestSplitUniform.fake_uniform(53)
        shuffled = [data[k] for k in RngStream(9).permutation(53)]
        expected, start = [], 0
        for k in range(7):
            size = 53 // 7 + (1 if k < 53 % 7 else 0)
            expected.append(shuffled[start:start + size])
            start += size
        assert partition_batches(data, 7, RngStream(9)) == expected


class TestUnobservedSampler:
    def test_single_free_cell(self):
        sampler = UnobservedSampler(1, 2, np.array([[0, 0]]), RngStream(1))
        draws = sampler.sample(32)
        assert np.all(draws == np.array([0, 1]))

    def test_fully_observed_rejected(self):
        observed = np.array([(u, i) for u in range(2) for i in range(2)])
        with pytest.raises(ValueError, match="complement"):
            UnobservedSampler(2, 2, observed, RngStream(1))

    def test_never_emits_observed(self):
        gen = np.random.default_rng(5)
        observed = np.unique(gen.integers(0, 10, size=(50, 2)), axis=0)
        sampler = UnobservedSampler(10, 10, observed, RngStream(2))
        draws = sampler.sample(1_000_000)
        keys = draws[:, 0] * 10 + draws[:, 1]
        observed_keys = set(observed[:, 0] * 10 + observed[:, 1])
        assert not observed_keys.intersection(keys.tolist())

    def test_uniform_over_complement(self):
        # 10x10 grid with exactly 50 observed cells: each free cell should
        # receive ~1/50 of the draws, within 3 standard errors.
        gen = np.random.default_rng(11)
        cells = gen.permutation(100)[:50]
        observed = np.column_stack([cells // 10, cells % 10])
        sampler = UnobservedSampler(10, 10, observed, RngStream(3))
        n = 100_000
        draws = sampler.sample(n)
        keys = draws[:, 0] * 10 + draws[:, 1]
        counts = np.bincount(keys, minlength=100)
        free = np.setdiff1d(np.arange(100), cells)
        expected = n / 50
        se = np.sqrt(n * (1 / 50) * (1 - 1 / 50))
        assert np.all(np.abs(counts[free] - expected) < 3 * se)

    def test_nothing_observed_samples_whole_grid(self):
        sampler = UnobservedSampler(3, 4, np.empty((0, 2), np.int64), RngStream(0))
        draws = sampler.sample(5)
        assert draws.shape == (5, 2)
        assert np.all((draws >= 0) & (draws < [3, 4]))


class TestGenerateSynthetic:
    def test_determinism(self):
        w1, d1 = generate_synthetic(20, 15, 4, 3.0, 60, 30, seed=42)
        w2, d2 = generate_synthetic(20, 15, 4, 3.0, 60, 30, seed=42)
        np.testing.assert_array_equal(w1.prob, w2.prob)
        assert d1.interactions == d2.interactions

    def test_zero_skew_policies_coincide(self):
        w, _ = generate_synthetic(10, 10, 3, 0.0, 20, 20, seed=1)
        weights = w.exposure_weights()
        np.testing.assert_allclose(weights, 1.0 / weights.size, rtol=1e-12)

    def test_uniform_log_positive_rate_tracks_world_mean(self):
        w, ds = generate_synthetic(60, 60, 4, 2.0, 100, 2000, seed=7)
        uniform = ds.by_source(Source.UNIFORM)
        rate = np.mean([i.label for i in uniform])
        p_mean = w.prob.mean()
        se = np.sqrt(p_mean * (1 - p_mean) / len(uniform)) + w.prob.std() / np.sqrt(len(uniform))
        assert abs(rate - p_mean) < 3 * se + 0.02

    def test_labels_consistent_with_ratings(self):
        _, ds = generate_synthetic(10, 10, 2, 1.0, 30, 30, seed=2)
        for inter in ds.interactions:
            assert inter.label == (1 if inter.rating == 5 else 0)

    def test_positive_skew_raises_positive_rate(self):
        _, flat = generate_synthetic(40, 40, 4, 0.0, 600, 600, seed=3)
        _, skewed = generate_synthetic(40, 40, 4, 12.0, 600, 600, seed=3)
        pr_flat = flat.positive_ratio(Source.BIASED)
        pr_skewed = skewed.positive_ratio(Source.BIASED)
        assert pr_skewed > pr_flat

    @pytest.mark.parametrize("seed", [1, 2, 3, 1000])
    def test_uniform_cells_equal_zero_weight_gumbel_top_k(self, seed):
        n_users, n_items, n_uniform = 40, 30, 200
        _, ds = generate_synthetic(n_users, n_items, 4, 2.0, 100, n_uniform, seed=seed)
        # Exact weighted sampling without replacement, every log-weight zero.
        u = RngStream(seed).split("uniform-cells").random(n_users * n_items)
        gumbel = -np.log(-np.log(u))
        cells = np.argpartition(-(np.zeros(u.size) + gumbel), n_uniform - 1)[:n_uniform]
        rows = [(i.user, i.item) for i in ds.by_source(Source.UNIFORM)]
        assert rows == [divmod(int(c), n_items) for c in cells]


class TestPack:
    def test_arrays(self):
        inters = [interaction(1, 2, 5, Source.UNIFORM), interaction(0, 1, 3, Source.BIASED)]
        users, items, labels = pack(inters)
        np.testing.assert_array_equal(users, [1, 0])
        np.testing.assert_array_equal(items, [2, 1])
        np.testing.assert_array_equal(labels, [1.0, 0.0])
