import collections
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from distilrec.data import (
    DataFormatError,
    Dataset,
    Interaction,
    Source,
    SplitSpec,
    UnobservedSampler,
    _distinct,
    generate_synthetic,
    load_coat,
    load_yahoo,
    pack,
    partition_batches,
    split_uniform,
)
from distilrec.rng import RngStream

from oracles import interaction


def zero_weight_gumbel_top_k(stream, n_cells, k):
    """Exact weighted sampling without replacement, every log-weight zero."""
    gumbel = -np.log(-np.log(stream.random(n_cells)))
    return np.argpartition(-(np.zeros(n_cells) + gumbel), k - 1)[:k]


class TestDatasetRowChecks:
    @pytest.mark.parametrize("rating,label", [(5, 1), (4, 0), (3, 0), (2, 0), (1, 0)])
    def test_rating_accepted_with_its_label(self, rating, label):
        ds = Dataset([Interaction(0, 0, rating, label, Source.UNIFORM)], n_users=1, n_items=1)
        assert ds.interactions[0].label == label

    @pytest.mark.parametrize("rating", [0, 6, -1])
    def test_rating_out_of_range_names_row(self, rating):
        inters = [interaction(0, 0, 5, Source.UNIFORM), Interaction(0, 1, rating, 0, Source.UNIFORM)]
        with pytest.raises(ValueError, match=rf"row 1: rating {rating} outside 1-5"):
            Dataset(inters, n_users=1, n_items=2)

    def test_label_must_match_rating(self):
        with pytest.raises(ValueError, match=r"row 0: label 0 inconsistent with rating 5"):
            Dataset([Interaction(0, 0, 5, 0, Source.UNIFORM)], n_users=1, n_items=1)
        inters = [interaction(0, 0, 5, Source.UNIFORM), Interaction(0, 1, 4, 1, Source.BIASED)]
        with pytest.raises(ValueError, match=r"row 1: label 1 inconsistent with rating 4"):
            Dataset(inters, n_users=1, n_items=2)

    def test_source_must_be_a_source(self):
        # Unchecked, a string source would sit in neither by_source slice.
        with pytest.raises(ValueError, match=r"row 0: source 'uniform' is not a Source"):
            Dataset([Interaction(0, 0, 5, 1, "uniform")], n_users=1, n_items=1)
        inters = [interaction(0, 0, 5, Source.BIASED), Interaction(0, 1, 3, 0, None)]
        with pytest.raises(ValueError, match=r"row 1: source None is not a Source"):
            Dataset(inters, n_users=1, n_items=2)

    def test_row_cannot_be_changed(self):
        row = interaction(0, 0, 5, Source.UNIFORM)
        with pytest.raises(AttributeError):
            row.label = 0


class TestDistinct:
    @pytest.mark.parametrize("keys", [
        np.empty(0, np.int64),
        np.array([7]),
        np.full(5, 3),
        np.random.default_rng(6).integers(0, 40, size=200),
    ], ids=["zero", "one", "all-equal", "random-with-repeats"])
    def test_equals_np_unique(self, keys):
        distinct = _distinct(keys)
        np.testing.assert_array_equal(distinct, np.unique(keys))
        assert distinct.dtype == keys.dtype


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

    def test_out_of_range_error_names_row(self):
        inters = [interaction(0, 0, 5, Source.UNIFORM), interaction(1, 1, 3, Source.BIASED),
                  interaction(1, 2, 3, Source.BIASED)]
        with pytest.raises(ValueError, match=r"row 2: id out of range: user=1, item=2"):
            Dataset(inters, n_users=2, n_items=2)
        with pytest.raises(ValueError, match=r"row 0: id out of range: user=-1"):
            Dataset([interaction(-1, 0, 5, Source.UNIFORM)], n_users=2, n_items=2)

    def test_duplicate_error_names_row(self):
        inters = [interaction(0, 1, 5, Source.UNIFORM), interaction(0, 1, 2, Source.BIASED),
                  interaction(1, 0, 4, Source.UNIFORM), interaction(0, 1, 3, Source.BIASED)]
        with pytest.raises(ValueError, match=r"row 3: duplicate of row 1"):
            Dataset(inters, n_users=2, n_items=2)

    def test_observed_pairs_in_key_order(self):
        inters = [interaction(1, 0, 5, Source.BIASED), interaction(0, 2, 2, Source.BIASED),
                  interaction(1, 0, 3, Source.UNIFORM), interaction(0, 1, 3, Source.UNIFORM)]
        pairs = Dataset(inters, n_users=2, n_items=3).observed_pairs()
        np.testing.assert_array_equal(pairs, [[0, 1], [0, 2], [1, 0]])
        assert pairs.dtype == np.int64
        assert Dataset([], n_users=2, n_items=3).observed_pairs().shape == (0, 2)


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
        shuffled = [data[k] for k in RngStream(9).generator.permutation(53)]
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

    def test_pairs_not_shaped_n_by_2_rejected(self):
        # Flattened, [0, 1, 1, 2] would be read as the pairs (0, 1) and (1, 2).
        for bad in (np.array([0, 1, 1, 2]), np.zeros((2, 3), np.int64), np.zeros((1, 2, 2))):
            with pytest.raises(ValueError, match=r"pairs must have shape \(n, 2\)"):
                UnobservedSampler(3, 4, bad, RngStream(1))
        assert UnobservedSampler(3, 4, [], RngStream(1))._observed_keys.size == 0

    def test_pairs_outside_grid_rejected_naming_row(self):
        # Unchecked, (0, 3) in a 2 x 3 grid would take the key of cell (1, 0),
        # and that cell would never be sampled.
        with pytest.raises(ValueError, match=r"row 1 \(0, 3\) outside the 2 x 3 grid"):
            UnobservedSampler(2, 3, np.array([[0, 0], [0, 3]]), RngStream(1))
        with pytest.raises(ValueError, match=r"row 0 \(-1, 2\)"):
            UnobservedSampler(2, 3, np.array([[-1, 2], [1, 1]]), RngStream(1))
        with pytest.raises(ValueError, match=r"row 0 \(2, 0\)"):
            UnobservedSampler(2, 3, np.array([[2, 0]]), RngStream(1))


    @pytest.mark.parametrize("observed_keys", [[0, 7, 8, 9, 19], []])
    def test_ranks_map_to_free_cells_in_key_order(self, observed_keys):
        # In a 4 x 5 grid: the first key, a run of adjacent keys and the last key.
        arange_ranks = SimpleNamespace(generator=SimpleNamespace(
            integers=lambda low, high, size: np.arange(low, high)))
        keys = np.array(observed_keys, dtype=np.int64)
        sampler = UnobservedSampler(4, 5, np.column_stack(np.divmod(keys, 5)), arange_ranks)
        free = np.setdiff1d(np.arange(20), keys)
        np.testing.assert_array_equal(sampler.sample(free.size), np.column_stack(np.divmod(free, 5)))

    def test_every_free_cell_drawn_in_small_grid(self):
        # The 2 x 3 grid with (0, 0) observed: all five free cells are reached.
        sampler = UnobservedSampler(2, 3, np.array([[0, 0]]), RngStream(4))
        draws = sampler.sample(20_000)
        assert set(map(tuple, draws.tolist())) == {(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}


class TestGenerateSynthetic:
    @pytest.mark.parametrize("name,value", [
        ("exposure_skew", float("nan")), ("exposure_skew", float("inf")),
        ("bias", float("nan")), ("bias", float("-inf")),
    ])
    def test_non_finite_parameter_rejected(self, name, value):
        # Unchecked, bias=nan gave a world whose prob is all NaN and every label 0.
        with pytest.raises(ValueError, match=rf"{name} must be finite"):
            generate_synthetic(5, 5, 2, **{"exposure_skew": 1.0, name: value},
                               n_biased=5, n_uniform=5, seed=0)

    def test_peak_memory_is_three_full_grid_arrays(self):
        # prob, one key buffer and one argpartition index array at a time.
        tracemalloc.start()
        try:
            generate_synthetic(1000, 1000, 4, 4.0, 100, 100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 1000 * 1000 * 8

    def test_determinism(self):
        w1, d1 = generate_synthetic(20, 15, 4, 3.0, 60, 30, seed=42)
        w2, d2 = generate_synthetic(20, 15, 4, 3.0, 60, 30, seed=42)
        np.testing.assert_array_equal(w1.prob, w2.prob)
        assert d1.interactions == d2.interactions

    def test_zero_skew_policies_coincide(self):
        # At zero skew the biased logger draws cells as the uniform one does.
        n_users, n_items, n_biased = 10, 10, 20
        _, ds = generate_synthetic(n_users, n_items, 3, 0.0, n_biased, 20, seed=1)
        cells = zero_weight_gumbel_top_k(
            RngStream(1).split("biased-cells"), n_users * n_items, n_biased)
        rows = [(i.user, i.item) for i in ds.by_source(Source.BIASED)]
        assert rows == [divmod(int(c), n_items) for c in cells]

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
        pr_flat = np.mean([i.label for i in flat.by_source(Source.BIASED)])
        pr_skewed = np.mean([i.label for i in skewed.by_source(Source.BIASED)])
        assert pr_skewed > pr_flat

    @pytest.mark.parametrize("seed", [1, 2, 3, 1000])
    def test_uniform_cells_equal_zero_weight_gumbel_top_k(self, seed):
        n_users, n_items, n_uniform = 40, 30, 200
        _, ds = generate_synthetic(n_users, n_items, 4, 2.0, 100, n_uniform, seed=seed)
        cells = zero_weight_gumbel_top_k(
            RngStream(seed).split("uniform-cells"), n_users * n_items, n_uniform)
        rows = [(i.user, i.item) for i in ds.by_source(Source.UNIFORM)]
        assert rows == [divmod(int(c), n_items) for c in cells]


class TestPack:
    def test_arrays(self):
        inters = [interaction(1, 2, 5, Source.UNIFORM), interaction(0, 1, 3, Source.BIASED)]
        users, items, labels = pack(inters)
        np.testing.assert_array_equal(users, [1, 0])
        np.testing.assert_array_equal(items, [2, 1])
        np.testing.assert_array_equal(labels, [1.0, 0.0])


class TestRowsMatchPerRowReference:
    """Each producer's rows equal those of a per-row loop over the same input."""

    @staticmethod
    def reference_yahoo(biased_lines, uniform_lines):
        def triples(lines):
            return [tuple(int(v) for v in line.split("\t")) for line in lines]

        biased, uniform = triples(biased_lines), triples(uniform_lines)
        umap = {u: k for k, u in enumerate(sorted({t[0] for t in biased + uniform}))}
        imap = {i: k for k, i in enumerate(sorted({t[1] for t in biased + uniform}))}
        return [interaction(umap[u], imap[i], r, src)
                for rows, src in ((biased, Source.BIASED), (uniform, Source.UNIFORM))
                for u, i, r in rows], len(umap), len(imap)

    def test_yahoo_with_id_gaps(self, tmp_path):
        # User ids 3..40 and item ids 2..900 with gaps, some present in one file only.
        biased_lines = ["40\t900\t5", "3\t17\t2", "12\t2\t4", "3\t900\t1", "40\t17\t5"]
        uniform_lines = ["7\t17\t3", "12\t300\t5", "3\t2\t1", "40\t900\t2"]
        (tmp_path / "b.txt").write_text("".join(f"{line}\n" for line in biased_lines))
        (tmp_path / "u.txt").write_text("".join(f"{line}\n" for line in uniform_lines))
        ds = load_yahoo(tmp_path / "b.txt", tmp_path / "u.txt")
        rows, n_users, n_items = self.reference_yahoo(biased_lines, uniform_lines)
        assert ds.interactions == rows
        assert (ds.n_users, ds.n_items) == (n_users, n_items) == (4, 4)

    def test_coat_matrices(self, tmp_path):
        gen = np.random.default_rng(8)
        matrices = [gen.integers(0, 6, size=(7, 9)) * (gen.random((7, 9)) < p) for p in (0.4, 0.2)]
        for name, m in zip(("train", "test"), matrices):
            TestCoatLoader.write_matrix(tmp_path / name, m)
        ds = load_coat(tmp_path / "train", tmp_path / "test")
        rows = []
        for matrix, src in zip(matrices, (Source.BIASED, Source.UNIFORM)):
            us, its = np.nonzero(matrix)
            for u, i in zip(us.tolist(), its.tolist()):
                rows.append(interaction(u, i, int(matrix[u, i]), src))
        assert len(rows) > 10
        assert ds.interactions == rows

    @pytest.mark.parametrize("seed", [1, 2, 3, 1000])
    def test_generate_synthetic(self, seed):
        n_users, n_items, latent_dim, skew, n_biased, n_uniform = 30, 25, 4, 3.0, 120, 90
        world, ds = generate_synthetic(n_users, n_items, latent_dim, skew, n_biased, n_uniform,
                                       seed=seed, bias=-1.5)
        root = RngStream(seed)
        fr = root.split("factors").generator
        u_f = fr.normal(size=(n_users, latent_dim)) / np.sqrt(latent_dim)
        i_f = fr.normal(size=(n_items, latent_dim))
        logits = 3.0 * (u_f @ i_f.T) - 1.5
        prob = 1.0 / (1.0 + np.exp(-logits))
        log_w = skew * prob.reshape(-1)
        gumbel = -np.log(-np.log(root.split("biased-cells").random(log_w.size)))
        biased_cells = np.argpartition(-(log_w + gumbel), n_biased - 1)[:n_biased]
        uniform_keys = root.split("uniform-cells").random(n_users * n_items)
        uniform_cells = np.argpartition(-uniform_keys, n_uniform - 1)[:n_uniform]
        label_rng = root.split("labels").generator
        rows = []
        for cells, src in ((biased_cells, Source.BIASED), (uniform_cells, Source.UNIFORM)):
            us, its = np.divmod(cells, n_items)
            labels = (label_rng.random(cells.size) < prob[us, its]).astype(np.int64)
            low_ratings = label_rng.integers(1, 5, size=cells.size)
            for u, i, y, r in zip(us.tolist(), its.tolist(), labels.tolist(), low_ratings.tolist()):
                rows.append(interaction(int(u), int(i), 5 if y else int(r), src))
        np.testing.assert_array_equal(world.prob, prob)
        assert ds.interactions == rows
