import collections
import dataclasses
import re
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from distilrec import data
from distilrec.data import (
    DataFormatError,
    Dataset,
    Interaction,
    Rows,
    Source,
    SplitSpec,
    TruthMatrix,
    UnobservedSampler,
    _distinct,
    generate_synthetic,
    load_coat,
    load_yahoo,
    pack,
    partition_batches,
    split_uniform,
)
from distilrec.metrics import MetricsResult, auc, bce_eval, evaluate
from distilrec.network import (
    ForwardMode,
    NetworkConfig,
    forward_batch,
    forward_cached,
    init_network,
)
from distilrec.rng import RngStream

from oracles import interaction


def zero_weight_gumbel_top_k(stream, n_cells, k):
    """Exact weighted sampling without replacement, every log-weight zero, in cell order."""
    gumbel = -np.log(-np.log(stream.random(n_cells)))
    return np.sort(np.argpartition(-(np.zeros(n_cells) + gumbel), k - 1)[:k])


def seed_factors(n_users, n_items, latent_dim, seed):
    """The user and item factors ``generate_synthetic`` draws from ``seed``."""
    fr = RngStream(seed).split("factors").generator
    u_f = fr.normal(size=(n_users, latent_dim)) / np.sqrt(latent_dim)
    return u_f, fr.normal(size=(n_items, latent_dim))


def float64_truth(n_users, n_items, latent_dim, seed, bias=-2.0):
    """The float64 truth behind ``generate_synthetic``'s biased keys: the sigmoid of the
    whole float64 grid ``u_f @ i_f.T`` of the seed's factors, taken at once."""
    u_f, i_f = seed_factors(n_users, n_items, latent_dim, seed)
    return 1.0 / (1.0 + np.exp(-(3.0 * (u_f @ i_f.T) + bias)))


def fixed_order_truth(u_f, i_f, bias):
    """The float32 grid a ``TruthMatrix`` reads: the sigmoid of ``sum_d u_f[:, d] i_f[:, d]``
    over the whole grid, summed in the order d = 0 ... L-1, then rounded to float32."""
    logits = np.zeros((len(u_f), len(i_f)))
    for d in range(u_f.shape[1]):
        logits += np.outer(u_f[:, d], i_f[:, d])
    return (1.0 / (1.0 + np.exp(-(3.0 * logits + bias)))).astype(np.float32)


def observed_keys(ds):
    """The distinct observed cells of ``ds``, as keys user * n_items + item, ascending."""
    return UnobservedSampler(ds, RngStream(1))._observed_keys


def columns_entry(rows, n_users, n_items):
    """The Dataset of ``rows`` as the producers build one: ``Rows`` of columns, here
    lists of the rows' values.  Labels follow the rating rule."""
    columns = [[getattr(r, name) for r in rows] for name in ("user", "item", "rating")]
    is_uniform = np.array([r.source is Source.UNIFORM for r in rows], dtype=bool)
    return Dataset(Rows(*columns, is_uniform), n_users, n_items)


def both_entries(rows, n_users, n_items):
    """``Dataset(rows, ...)``, after checking that the column entry gives an equal
    Dataset, or raises a ValueError with the same message as the row entry."""
    outcomes = []
    for build in (Dataset, columns_entry):
        try:
            outcomes.append(build(rows, n_users, n_items))
        except ValueError as exc:
            outcomes.append(exc)
    by_rows, by_columns = outcomes
    if isinstance(by_rows, ValueError):
        assert isinstance(by_columns, ValueError) and str(by_columns) == str(by_rows)
        raise by_rows
    assert by_columns == by_rows
    return by_rows


class TestDatasetRowChecks:
    @pytest.mark.parametrize("rating,label", [(5, 1), (4, 0), (3, 0), (2, 0), (1, 0)])
    def test_rating_accepted_with_its_label(self, rating, label):
        ds = both_entries([Interaction(0, 0, rating, label, Source.UNIFORM)], n_users=1, n_items=1)
        assert ds.interactions[0].label == label

    @pytest.mark.parametrize("rating", [0, 6, -1])
    def test_rating_out_of_range_names_row(self, rating):
        inters = [interaction(0, 0, 5, Source.UNIFORM), Interaction(0, 1, rating, 0, Source.UNIFORM)]
        with pytest.raises(ValueError, match=rf"row 1: rating {rating} outside 1-5"):
            both_entries(inters, n_users=1, n_items=2)

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

    @pytest.mark.parametrize("field,value", [("rating", 4.5), ("user", 0.5), ("item", float("nan")),
                                             ("rating", 2**70), ("label", None)])
    def test_value_not_an_integer_names_row(self, field, value):
        # Unchecked, 4.5 and 0.5 were truncated to 4 and 0, and 2**70 raised OverflowError.
        bad = interaction(0, 1, 4, Source.UNIFORM)._replace(**{field: value})
        # The column entry derives each label from its rating.
        build = Dataset if field == "label" else both_entries
        with pytest.raises(ValueError, match=rf"row 1: {field} {value!r} is not an integer"):
            build([interaction(0, 0, 5, Source.UNIFORM), bad], n_users=1, n_items=2)

    @pytest.mark.parametrize("field,value", [("user", -2**31 - 1), ("user", 2**31),
                                             ("item", -2**31 - 1), ("item", 2**31)])
    def test_id_outside_int32_names_row(self, field, value):
        # Held as int32, such an id would wrap to another id.
        bad = interaction(0, 1, 4, Source.UNIFORM)._replace(**{field: value})
        with pytest.raises(ValueError, match=rf"^row 1: {field} id {value} outside int32$"):
            both_entries([interaction(0, 0, 5, Source.UNIFORM), bad], n_users=1, n_items=2)

    def test_int32_extreme_ids_accepted_on_a_2_62_cell_grid(self):
        top = 2**31 - 1
        inters = [interaction(top, top, 5, Source.UNIFORM), interaction(top, top, 3, Source.BIASED),
                  interaction(0, top, 2, Source.BIASED)]
        ds = both_entries(inters, n_users=2**31, n_items=2**31)
        assert ds.interactions == inters
        np.testing.assert_array_equal(observed_keys(ds), [top, top * 2**31 + top])

    def test_whole_float_values_accepted(self):
        ds = both_entries([Interaction(0.0, 1.0, 5.0, 1.0, Source.UNIFORM)], n_users=1, n_items=2)
        np.testing.assert_array_equal(observed_keys(ds), [1])

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
            both_entries(inters, n_users=1, n_items=1)

    def test_same_pair_different_source_allowed(self):
        inters = [interaction(0, 0, 5, Source.UNIFORM), interaction(0, 0, 3, Source.BIASED)]
        both_entries(inters, n_users=1, n_items=1)
        # A second item leaves the sampler a free cell; the pair is observed once.
        np.testing.assert_array_equal(observed_keys(both_entries(inters, n_users=1, n_items=2)),
                                      [0])

    def test_id_bounds_checked(self):
        with pytest.raises(ValueError, match="range"):
            both_entries([interaction(3, 0, 5, Source.UNIFORM)], n_users=2, n_items=1)

    def test_out_of_range_error_names_row(self):
        inters = [interaction(0, 0, 5, Source.UNIFORM), interaction(1, 1, 3, Source.BIASED),
                  interaction(1, 2, 3, Source.BIASED)]
        with pytest.raises(ValueError, match=r"row 2: id out of range: user=1, item=2"):
            both_entries(inters, n_users=2, n_items=2)
        with pytest.raises(ValueError, match=r"row 0: id out of range: user=-1"):
            both_entries([interaction(-1, 0, 5, Source.UNIFORM)], n_users=2, n_items=2)

    def test_duplicate_error_names_row(self):
        inters = [interaction(0, 1, 5, Source.UNIFORM), interaction(0, 1, 2, Source.BIASED),
                  interaction(1, 0, 4, Source.UNIFORM), interaction(0, 1, 3, Source.BIASED)]
        with pytest.raises(ValueError, match=r"row 3: duplicate of row 1"):
            both_entries(inters, n_users=2, n_items=2)

    def test_grid_beyond_2_62_cells_rejected_naming_it(self):
        # Unchecked, the keys of (0, 0) and (2**23, 0) wrapped to one int64 on this grid, and
        # row 1 was called a duplicate of row 0.
        inters = [interaction(0, 0, 5, Source.BIASED), interaction(2**23, 0, 5, Source.BIASED)]
        with pytest.raises(ValueError, match=r"^grid n_users=16777216 x n_items=1099511627776 "
                                             r"exceeds 2\*\*62 cells$"):
            both_entries(inters, n_users=2**24, n_items=2**40)
        assert len(both_entries(inters, n_users=2**24, n_items=2**38).interactions) == 2

    def test_fields_cannot_be_reassigned(self):
        # Unchecked, n_items = 1 on this 2 x 2 grid made the sampler see no free cell.
        ds = Dataset([interaction(0, 0, 5, Source.UNIFORM), interaction(1, 1, 3, Source.BIASED)],
                     n_users=2, n_items=2)
        for field in dataclasses.fields(Dataset):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ds, field.name, 1)
        pairs = UnobservedSampler(ds, RngStream(1)).sample(50).tolist()
        assert set(map(tuple, pairs)) == {(0, 1), (1, 0)}

    def test_observed_pairs_in_key_order(self):
        inters = [interaction(1, 0, 5, Source.BIASED), interaction(0, 2, 2, Source.BIASED),
                  interaction(1, 0, 3, Source.UNIFORM), interaction(0, 1, 3, Source.UNIFORM)]
        keys = observed_keys(both_entries(inters, n_users=2, n_items=3))
        np.testing.assert_array_equal(keys, [1, 2, 3])  # (0, 1), (0, 2), (1, 0)
        assert keys.dtype == np.int64
        assert observed_keys(Dataset([], n_users=2, n_items=3)).shape == (0,)


class TestKeysPastInt32:
    """On a 5 x 2**30 grid, keys ``user * n_items + item`` reach 2**32: formed in int32,
    users 0, 2 and 4 of one item would share a key."""

    N_USERS, N_ITEMS = 5, 2**30

    def test_duplicate_named_among_cells_whose_int32_keys_collide(self):
        inters = [interaction(u, 5, 3, Source.BIASED) for u in (0, 4, 2, 0)]
        with pytest.raises(ValueError, match=r"^row 3: duplicate of row 0: user=0, item=5, "
                                             r"source=biased$"):
            both_entries(inters, self.N_USERS, self.N_ITEMS)

    def test_same_cell_other_source_accepted_beside_colliding_cells(self):
        inters = [interaction(0, 5, 5, Source.UNIFORM), interaction(0, 5, 3, Source.BIASED),
                  interaction(4, 5, 2, Source.BIASED), interaction(2, 5, 1, Source.UNIFORM)]
        ds = both_entries(inters, self.N_USERS, self.N_ITEMS)
        assert ds.interactions == inters
        keys = observed_keys(ds)
        np.testing.assert_array_equal(keys, [5, 2 * 2**30 + 5, 4 * 2**30 + 5])
        assert keys.dtype == np.int64

    def test_sampler_draws_skip_observed_cells(self):
        # Ranks around each observed cell map to the free cells beside it, in key order.
        observed = np.array([[0, 5], [2, 5], [2, 6], [4, 5]])
        keys = observed[:, 0] * self.N_ITEMS + observed[:, 1]
        cells = np.unique(np.concatenate([keys + d for d in range(-3, 4)]))
        free = np.setdiff1d(cells, keys)
        ranks = free - np.searchsorted(keys, free)
        planted = RngStream(0)
        planted.generator = SimpleNamespace(integers=lambda low, high, size: ranks)
        draws = sampler_of(self.N_USERS, self.N_ITEMS, observed, planted).sample(ranks.size)
        assert not set(map(tuple, draws.tolist())) & set(map(tuple, observed.tolist()))
        np.testing.assert_array_equal(draws, np.column_stack(np.divmod(free, self.N_ITEMS)))


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


    def test_id_outside_int64_reports_location(self, tmp_path):
        # Unchecked, such an id raised a bare OverflowError naming no line.
        biased = tmp_path / "b.txt"
        uniform = tmp_path / "u.txt"
        biased.write_text("99999999999999999999\t2\t3\n")
        uniform.write_text("1\t1\t5\n2\t-99999999999999999999\t1\n")
        with pytest.raises(DataFormatError,
                           match=r"b.txt:1: user id 99999999999999999999 outside int64"):
            load_yahoo(biased, uniform)
        biased.write_text("")
        with pytest.raises(DataFormatError, match=r"u.txt:2: item id -99999999999999999999"):
            load_yahoo(biased, uniform)
        # 19 digits, just above 2**63 - 1.
        biased.write_text("9999999999999999999\t2\t3\n")
        uniform.write_text("1\t1\t5\n")
        with pytest.raises(DataFormatError, match=r"b.txt:1: user id 9999999999999999999 outside"):
            load_yahoo(biased, uniform)

    def test_nineteen_digit_id_within_int64_loads(self, tmp_path):
        (tmp_path / "b.txt").write_text("9223372036854775807\t5\t4\n1000000000000000000\t5\t5\n")
        (tmp_path / "u.txt").write_text("")
        ds = load_yahoo(tmp_path / "b.txt", tmp_path / "u.txt")
        assert [(r.user, r.item, r.rating) for r in ds.interactions] == [(1, 0, 4), (0, 0, 5)]

    @pytest.mark.parametrize("biased,uniform,match", [
        ("1\t1\t5\n2\t1\t3\n1\t1\t2\n", "",
         r"row 2: duplicate of row 0: user=0, item=0, source=biased"),
        ("1\t1\t5\n", "2\t2\t3\n1\t1\t4\n2\t2\t4\n",
         r"row 3: duplicate of row 1: user=1, item=1, source=uniform"),
    ], ids=["biased", "uniform"])
    def test_repeated_pair_within_a_file_names_rows(self, tmp_path, biased, uniform, match):
        # The same pair in both files is allowed; a pair repeated within one is not.
        (tmp_path / "b.txt").write_text(biased)
        (tmp_path / "u.txt").write_text(uniform)
        with pytest.raises(ValueError, match=match):
            load_yahoo(tmp_path / "b.txt", tmp_path / "u.txt")

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_bad_first_or_last_line_reports_location(self, tmp_path, where):
        good = [f"{k}\t{k % 3 + 1}\t{k % 5 + 1}\n" for k in range(1, 6)]
        lines = ["4\t1\n"] + good if where == "first" else good + ["4\t1\t0\n"]
        (tmp_path / "b.txt").write_text("")
        (tmp_path / "u.txt").write_text("".join(lines))
        with pytest.raises(DataFormatError, match=rf"u.txt:{1 if where == 'first' else 6}: "):
            load_yahoo(tmp_path / "b.txt", tmp_path / "u.txt")


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


    @pytest.mark.parametrize("where", ["first", "last"])
    def test_bad_first_or_last_line_reports_location(self, tmp_path, where):
        good = ["0 5 1\n", "2 0 0\n", "0 0 3\n"]
        lines = ["0 x 1\n"] + good if where == "first" else good + ["0 9 1\n"]
        (tmp_path / "train").write_text("".join(lines))
        self.write_matrix(tmp_path / "test", [[0, 0, 0]] * 4)
        with pytest.raises(DataFormatError, match=rf"train:{1 if where == 'first' else 4}: "):
            load_coat(tmp_path / "train", tmp_path / "test")


def no_warnings(load, *paths):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = load(*paths)
    assert [str(w.message) for w in caught] == []
    return ds


def nonblank_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if line.strip()]


def reference_yahoo(biased, uniform):
    """Rows and grid of ``load_yahoo`` by a per-line parse with ``int``."""
    return TestRowsMatchPerRowReference.reference_yahoo(nonblank_lines(biased),
                                                        nonblank_lines(uniform))


def reference_coat(train, test):
    """Rows and grid of ``load_coat`` by a per-line parse with ``int``."""
    matrices = [np.array([[int(v) for v in line.split()] for line in nonblank_lines(path)])
                for path in (train, test)]
    return TestRowsMatchPerRowReference.reference_coat(matrices), *matrices[0].shape


YAHOO_NON_CANONICAL = {
    "crlf": "3\t7\t5\r\n1\t2\t4\r\n",
    "no-final-newline": "3\t7\t5\n1\t2\t4",
    "blank-lines": "\n3\t7\t5\n\n\n1\t2\t4\n\n",
    "spaces-around-fields": " 3\t7 \t 5\n1\t2\t4  \n",
    "plus-signs": "+3\t7\t+5\n1\t+2\t4\n",
}

COAT_NON_CANONICAL = {
    "crlf": "0 5\r\n3 0\r\n",
    "no-final-newline": "0 5\n3 0",
    "blank-lines": "\n0 5\n\n3 0\n\n",
    "spaces-around-fields": " 0  5 \n3\t0\n",
    "plus-signs": "0 +5\n+3 0\n",
}


class TestLoadersEqualPerLineReference:
    """Each loader's rows equal those of a per-line reference parser."""

    @staticmethod
    def random_yahoo_lines(gen, n):
        fields = np.column_stack([gen.integers(1, 10**6, n), gen.integers(1, 40, n),
                                  gen.integers(1, 6, n)])
        zeros = "0" * gen.integers(1, 4)   # leading zeros on some fields
        return [f"{zeros}{u}\t{i}\t{r}\n" if k % 3 == 0 else f"{u}\t{i:03d}\t{zeros}{r}\n"
                for k, (u, i, r) in enumerate(fields.tolist())]

    @staticmethod
    def assert_equal(load, reference, *paths):
        ds = no_warnings(load, *paths)
        rows, n_users, n_items = reference(*paths)
        assert ds.interactions == rows
        assert (ds.n_users, ds.n_items) == (n_users, n_items)

    @pytest.mark.parametrize("n_biased,n_uniform", [(0, 0), (1, 0), (0, 1), (1, 1), (200, 57),
                                                    (1000, 3)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_yahoo(self, tmp_path, seed, n_biased, n_uniform):
        gen = np.random.default_rng(seed)
        b, u = tmp_path / "b.txt", tmp_path / "u.txt"
        b.write_text("".join(self.random_yahoo_lines(gen, n_biased)))
        u.write_text("".join(self.random_yahoo_lines(gen, n_uniform)))
        self.assert_equal(load_yahoo, reference_yahoo, b, u)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (29, 30)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_coat(self, tmp_path, seed, shape):
        gen = np.random.default_rng(seed)
        paths = [tmp_path / "train", tmp_path / "test"]
        for path in paths:
            matrix = gen.integers(0, 6, shape) * (gen.random(shape) < 0.4)
            # Up to two leading zeros on each cell.
            path.write_text("".join(" ".join("0" * gen.integers(0, 3) + str(v) for v in row) + "\n"
                                    for row in matrix.tolist()))
        self.assert_equal(load_coat, reference_coat, *paths)

    @pytest.mark.parametrize("case", YAHOO_NON_CANONICAL)
    def test_yahoo_non_canonical(self, tmp_path, case):
        (tmp_path / "b.txt").write_bytes(YAHOO_NON_CANONICAL[case].encode())
        (tmp_path / "u.txt").write_text("1\t7\t1\n")
        self.assert_equal(load_yahoo, reference_yahoo, tmp_path / "b.txt", tmp_path / "u.txt")

    @pytest.mark.parametrize("case", COAT_NON_CANONICAL)
    def test_coat_non_canonical(self, tmp_path, case):
        (tmp_path / "train").write_bytes(COAT_NON_CANONICAL[case].encode())
        (tmp_path / "test").write_text("1 0\n0 0\n")
        self.assert_equal(load_coat, reference_coat, tmp_path / "train", tmp_path / "test")


class TestNonCanonicalFilesLoadAsBefore:
    """Files beyond digits, one separator and ``\\n`` load to the same rows as canonical ones."""

    @pytest.mark.parametrize("case", YAHOO_NON_CANONICAL)
    def test_yahoo(self, tmp_path, case):
        (tmp_path / "b.txt").write_bytes(YAHOO_NON_CANONICAL[case].encode())
        (tmp_path / "u.txt").write_text("1\t7\t1\n")
        ds = no_warnings(load_yahoo, tmp_path / "b.txt", tmp_path / "u.txt")
        assert [(r.user, r.item, r.rating, r.source) for r in ds.interactions] == [
            (1, 1, 5, Source.BIASED), (0, 0, 4, Source.BIASED), (0, 1, 1, Source.UNIFORM)]

    @pytest.mark.parametrize("case", COAT_NON_CANONICAL)
    def test_coat(self, tmp_path, case):
        (tmp_path / "train").write_bytes(COAT_NON_CANONICAL[case].encode())
        (tmp_path / "test").write_text("1 0\n0 0\n")
        ds = no_warnings(load_coat, tmp_path / "train", tmp_path / "test")
        assert [(r.user, r.item, r.rating, r.source) for r in ds.interactions] == [
            (0, 1, 5, Source.BIASED), (1, 0, 3, Source.BIASED), (0, 0, 1, Source.UNIFORM)]


class TestOneParsePerFile:
    """A valid file is parsed by one ``np.loadtxt`` call and never read line by line."""

    @pytest.fixture
    def parses(self, monkeypatch):
        def forbidden(path, *args):
            raise AssertionError(f"{path} was read line by line")

        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(data, "_fault", forbidden)
        monkeypatch.setattr(np, "loadtxt", lambda path, *args, **kwargs:
                            calls.append(path.name) or loadtxt(path, *args, **kwargs))
        return calls

    @pytest.mark.parametrize("text", ["3\t7\t5\n1\t2\t4\n", "", *YAHOO_NON_CANONICAL.values()])
    def test_yahoo(self, tmp_path, parses, text):
        (tmp_path / "b.txt").write_bytes(text.encode())
        (tmp_path / "u.txt").write_text("1\t7\t1\n")
        load_yahoo(tmp_path / "b.txt", tmp_path / "u.txt")
        assert parses == ["b.txt", "u.txt"]

    @pytest.mark.parametrize("text", ["0 5\n3 0\n", *COAT_NON_CANONICAL.values()])
    def test_coat(self, tmp_path, parses, text):
        (tmp_path / "train").write_bytes(text.encode())
        (tmp_path / "test").write_text("1 0\n0 0\n")
        load_coat(tmp_path / "train", tmp_path / "test")
        assert parses == ["train", "test"]


class TestLocatedFaults:
    """A rejected file is read line by line to name its bad line, counting every physical line."""

    @staticmethod
    def load_yahoo_biased(tmp_path, text):
        (tmp_path / "b.txt").write_bytes(text.encode())
        (tmp_path / "u.txt").write_text("1\t1\t5\n")
        return load_yahoo(tmp_path / "b.txt", tmp_path / "u.txt")

    @staticmethod
    def load_coat_train(tmp_path, text):
        (tmp_path / "train").write_bytes(text.encode())
        (tmp_path / "test").write_text("1 0\n0 0\n")
        return load_coat(tmp_path / "train", tmp_path / "test")

    @pytest.mark.parametrize("text,match", [
        ("1\t2\t3\r\n\r\n\r\n4\t5\r\n", "b.txt:4: expected 3 tab-separated fields"),
        ("\r\n1\t2\t3\r\n\r\n4\t5\tx\r\n", "b.txt:4: non-integer field"),
        ("1\t2\t3\r\n\r\n1\t3\t6\r\n", "b.txt:3: rating 6 outside 1-5"),
    ])
    def test_yahoo_line_after_blank_crlf_lines(self, tmp_path, text, match):
        with pytest.raises(DataFormatError, match=match):
            self.load_yahoo_biased(tmp_path, text)

    @pytest.mark.parametrize("text,match", [
        ("0 5\r\n\r\n\r\n3 x\r\n", "train:4: non-integer cell"),
        ("\r\n0 5\r\n\r\n9 0\r\n", "train:4: rating 9 outside 0-5"),
        ("0 5\r\n\r\n3\r\n", r"train:3: ragged row \(1 != 2\)"),
    ])
    def test_coat_line_after_blank_crlf_lines(self, tmp_path, text, match):
        with pytest.raises(DataFormatError, match=match):
            self.load_coat_train(tmp_path, text)

    @pytest.mark.parametrize("text", ["4\t1\n1\t2\t3\n5\t6\t4\n", "4\t1\n2\t3\n"])
    def test_short_first_yahoo_line_is_line_one(self, tmp_path, text):
        # With every line short the parse succeeds, two fields wide; the width check catches it.
        with pytest.raises(DataFormatError, match="b.txt:1: expected 3 tab-separated fields"):
            self.load_yahoo_biased(tmp_path, text)

    def test_hash_line_is_a_fault_not_a_comment(self, tmp_path):
        with pytest.raises(DataFormatError, match="b.txt:2: non-integer field"):
            self.load_yahoo_biased(tmp_path, "1\t1\t5\n#1\t2\t3\n")
        with pytest.raises(DataFormatError, match="train:1: non-integer cell"):
            self.load_coat_train(tmp_path, "#0 5\n3 0\n")

    def test_blank_only_file(self, tmp_path):
        ds = no_warnings(self.load_yahoo_biased, tmp_path, "\n\n")
        assert [(r.user, r.item, r.source) for r in ds.interactions] == [(0, 0, Source.UNIFORM)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataFormatError, match="train: empty matrix"):
                self.load_coat_train(tmp_path, "\n\n")
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("field", ["1_0", "\u0661", "\uff15", "1.0", "0x1", "\u01fe1",
                                       "\U000927c01", "\u00a01", "\u30001"])
    def test_field_beyond_ascii_digits_is_a_located_fault(self, tmp_path, field):
        # int() read "1_0" as 10, non-ASCII digits as digits and U+00A0 and U+3000 as
        # whitespace.  Decoded as UTF-8, numpy's integer parser read U+01FE as a digit worth
        # 462 and could crash on characters beyond the BMP.
        with pytest.raises(DataFormatError, match="b.txt:2: non-integer field"):
            self.load_yahoo_biased(tmp_path, f"1\t1\t5\n{field}\t2\t3\n")
        with pytest.raises(DataFormatError, match="train:2: non-integer cell"):
            self.load_coat_train(tmp_path, f"0 5\n0 {field}\n")

    def test_bytes_that_are_not_utf8_are_a_located_fault(self, tmp_path):
        (tmp_path / "b.txt").write_bytes(b"1\t1\t5\n1\t2\t\xff\n")
        (tmp_path / "u.txt").write_text("")
        with pytest.raises(DataFormatError, match="b.txt:2: non-integer field"):
            load_yahoo(tmp_path / "b.txt", tmp_path / "u.txt")

    def test_int64_extremes_read_exactly(self, tmp_path):
        (tmp_path / "b.txt").write_text("9223372036854775807\t-9223372036854775808\t1\n")
        np.testing.assert_array_equal(data._read_triples(tmp_path / "b.txt"),
                                      [[2**63 - 1, -2**63, 1]])

    def test_parse_rejecting_a_file_no_line_faults_names_the_file(self, tmp_path, monkeypatch):
        def rejecting(path, *args, **kwargs):
            raise ValueError("rejected")

        monkeypatch.setattr(np, "loadtxt", rejecting)
        with pytest.raises(DataFormatError, match="b.txt: np.loadtxt rejected the file"):
            self.load_yahoo_biased(tmp_path, "1\t2\t3\n")


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

    def test_biased_row_rejected_naming_it(self):
        # Unchecked, biased rows were split into a "uniform" train, validation and test.
        rows = self.fake_uniform(10)
        rows[6] = rows[6]._replace(source=Source.BIASED)
        for given in (rows, Dataset(rows, 1, 100).interactions):
            with pytest.raises(ValueError, match=r"^row 6: source biased; split_uniform takes "
                                                 r"uniform rows only$"):
                split_uniform(given, SplitSpec(seed=0))

    @pytest.mark.parametrize("fraction, n, sizes", [(0.2, 3, r"\(0, 2, 1\)"),
                                                    (0.9, 3, r"\(2, 1, 0\)"),
                                                    (0.2, 4, r"\(0, 2, 2\)")])
    def test_empty_part_rejected_naming_sizes(self, fraction, n, sizes):
        # Unchecked, these returned an empty train or test part.
        spec = SplitSpec(uniform_train_fraction=fraction, seed=0)
        with pytest.raises(ValueError, match=rf"uniform_train_fraction {fraction} of {n} uniform "
                                             rf"rows leaves an empty part: sizes {sizes}$"):
            split_uniform(self.fake_uniform(n), spec)


@pytest.mark.parametrize("entry", ["rows", "columns", "forward_cached", "forward_batch"])
def test_off_grid_id_rejected_alike_at_every_entry(entry):
    # Row 1 holds item 3 on a 2 x 3 grid; every entry names it in the same words.
    users, items, ratings = [0, 0, 1], [0, 3, 1], [5, 2, 4]
    net = init_network(NetworkConfig(2, 3, 2, (2,)), RngStream(1))
    build = {
        "rows": lambda: Dataset([interaction(*row, Source.BIASED)
                                 for row in zip(users, items, ratings)], 2, 3),
        "columns": lambda: Dataset(Rows(users, items, ratings, np.zeros(3, bool)), 2, 3),
        "forward_cached": lambda: forward_cached(net, users, items, ForwardMode.DETERMINISTIC),
        "forward_batch": lambda: forward_batch(net, np.column_stack([users, items])),
    }[entry]
    with pytest.raises(ValueError, match=r"^row 1: id out of range: user=0, item=3 in a 2 x 3 grid$"):
        build()


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


def sampler_of(n_users, n_items, pairs, rng):
    """The sampler of a Dataset that logged each (user, item) of ``pairs`` once, biased."""
    users, items = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    rows = Rows(users, items, np.ones(users.size, np.int64), np.zeros(users.size, bool))
    return UnobservedSampler(Dataset(rows, n_users, n_items), rng)


class TestUnobservedSampler:
    def test_single_free_cell(self):
        sampler = sampler_of(1, 2, [[0, 0]], RngStream(1))
        draws = sampler.sample(32)
        assert np.all(draws == np.array([0, 1]))

    def test_fully_observed_rejected(self):
        observed = np.array([(u, i) for u in range(2) for i in range(2)])
        with pytest.raises(ValueError, match="complement"):
            sampler_of(2, 2, observed, RngStream(1))

    def test_never_emits_observed(self):
        gen = np.random.default_rng(5)
        observed = np.unique(gen.integers(0, 10, size=(50, 2)), axis=0)
        sampler = sampler_of(10, 10, observed, RngStream(2))
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
        sampler = sampler_of(10, 10, observed, RngStream(3))
        n = 100_000
        draws = sampler.sample(n)
        keys = draws[:, 0] * 10 + draws[:, 1]
        counts = np.bincount(keys, minlength=100)
        free = np.setdiff1d(np.arange(100), cells)
        expected = n / 50
        se = np.sqrt(n * (1 / 50) * (1 - 1 / 50))
        assert np.all(np.abs(counts[free] - expected) < 3 * se)

    def test_nothing_observed_samples_whole_grid(self):
        sampler = sampler_of(3, 4, [], RngStream(0))
        assert sampler._observed_keys.size == 0
        draws = sampler.sample(5)
        assert draws.shape == (5, 2)
        assert np.all((draws >= 0) & (draws < [3, 4]))

    @pytest.mark.parametrize("observed_keys", [[0, 7, 8, 9, 19], []])
    def test_ranks_map_to_free_cells_in_key_order(self, observed_keys):
        # In a 4 x 5 grid: the first key, a run of adjacent keys and the last key.
        arange_ranks = RngStream(0)
        arange_ranks.generator = SimpleNamespace(
            integers=lambda low, high, size: np.arange(low, high))
        keys = np.array(observed_keys, dtype=np.int64)
        sampler = sampler_of(4, 5, np.column_stack(np.divmod(keys, 5)), arange_ranks)
        free = np.setdiff1d(np.arange(20), keys)
        np.testing.assert_array_equal(sampler.sample(free.size), np.column_stack(np.divmod(free, 5)))

    @pytest.mark.parametrize("field", ["n_users", "n_items"])
    def test_grid_cannot_be_reassigned(self, field):
        # Unchecked, n_items = 3 on this 2 x 2 log made sample draw (0, 2), off the grid.
        sampler = sampler_of(2, 2, [[0, 0], [1, 1]], RngStream(1))
        with pytest.raises(AttributeError):
            setattr(sampler, field, 3)
        assert (sampler.n_users, sampler.n_items) == (2, 2)
        assert set(map(tuple, sampler.sample(50).tolist())) == {(0, 1), (1, 0)}

    def test_every_free_cell_drawn_in_small_grid(self):
        # The 2 x 3 grid with (0, 0) observed: all five free cells are reached.
        sampler = sampler_of(2, 3, [[0, 0]], RngStream(4))
        draws = sampler.sample(20_000)
        assert set(map(tuple, draws.tolist())) == {(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}


class TestGenerateSynthetic:
    def test_world_cannot_be_reassigned(self):
        world, _ = generate_synthetic(3, 4, 2, 1.0, 5, 5, seed=0)
        prob = world.prob
        with pytest.raises(dataclasses.FrozenInstanceError):
            world.prob = np.zeros((3, 4))
        assert world.prob is prob

    def test_truth_cannot_be_written(self):
        world, _ = generate_synthetic(3, 4, 2, 1.0, 5, 5, seed=0)
        truth = np.asarray(world.prob)
        with pytest.raises(ValueError, match="read-only"):
            world.prob[0, 0] = 2.0
        np.testing.assert_array_equal(np.asarray(world.prob), truth)

    def test_truth_saturates_to_zero_without_a_warning(self):
        # exp(-logit) overflowed with a RuntimeWarning below a logit of about -709.8, where
        # the network's sigmoid gives the limit 0.0 silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            world, ds = generate_synthetic(4, 5, 2, 1.0, 3, 3, seed=0, bias=-720.0)
            assert np.all(np.asarray(world.prob) == 0.0)
        assert not any(i.label for i in ds.interactions)

    @pytest.mark.parametrize("log", ["n_biased", "n_uniform"])
    def test_log_larger_than_grid_rejected(self, log):
        sizes = dict(n_biased=5, n_uniform=5)
        with pytest.raises(ValueError, match="log size exceeds the number of distinct cells"):
            generate_synthetic(3, 4, 2, 1.0, **{**sizes, log: 13}, seed=0)

    def test_peak_memory_does_not_grow_with_the_grid(self):
        # No array spans the grid: the float64 logits and the selection keys are made a chunk
        # at a time, and the truth is read from the factors.  Peaks read about 4 MB at
        # 1,000 x 1,000 and at 4,000 x 1,000; a stored float32 grid of the truth read
        # 7.2-8.5 MB at 1,000 x 1,000 and 19.9-20.4 MB at 4,000 x 1,000.
        tracemalloc.start()
        try:
            generate_synthetic(4000, 1000, 4, 4.0, 100, 100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 1000 * 1000

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
        prob = np.asarray(w.prob)
        p_mean = prob.mean()
        se = np.sqrt(p_mean * (1 - p_mean) / len(uniform)) + prob.std() / np.sqrt(len(uniform))
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


class TestTruthMatrix:
    """Every read of the truth computes the one fixed-order float32 value of each cell."""

    @staticmethod
    def truth():
        """A 7 x 5 truth of 3 latent dimensions, and its fixed-order reference grid."""
        gen = np.random.default_rng(4)
        u_f, i_f = gen.normal(size=(7, 3)), gen.normal(size=(5, 3))
        return TruthMatrix(u_f, i_f, -1.5), fixed_order_truth(u_f, i_f, -1.5)

    @pytest.mark.parametrize("chunk", [None, 1, 4], ids=["one-block", "chunk-1", "chunk-4"])
    def test_each_read_equals_the_fixed_order_reference(self, monkeypatch, chunk):
        """Chunks of 1 and 4 cells make a read of several rows or pairs a block at a time."""
        if chunk is not None:
            monkeypatch.setattr(data, "GRID_CHUNK", chunk)
        prob, want = self.truth()
        users, items = np.array([4, 0, 4, 6, -1]), np.array([2, 2, 0, 4, 1])
        picks = np.array([[0, 1], [3, 3], [4, 0], [2, 1], [1, 0]])
        reads = [
            (prob[users], want[users]),
            (prob[[2, 3]], want[[2, 3]]),
            (prob[np.int64(3)], want[3]),
            (prob[users, items], want[users, items]),
            (prob[users[:, None], picks], want[users[:, None], picks]),
            (prob[np.ix_(users, items)], want[np.ix_(users, items)]),
            (prob[np.ix_(np.arange(7, dtype=np.uint32), [4, 0])], want[:, [4, 0]]),
            (prob[users[:0], items[:0]], want[users[:0], items[:0]]),
            (np.asarray(prob), want),
        ]
        for got, expected in reads:
            assert got.dtype == np.float32 and got.shape == expected.shape
            np.testing.assert_array_equal(got, expected)
        cell = prob[3, 2]
        assert isinstance(cell, np.float32) and cell == want[3, 2]
        assert prob.shape == (7, 5) and prob.dtype == np.float32
        np.testing.assert_array_equal(np.asarray(prob, dtype=np.float64), want.astype(np.float64))

    def test_a_cell_reads_one_value_every_way(self):
        """On a world of several chunks, whose biased keys read other sums of its factors."""
        world, _ = generate_synthetic(150, 1000, 4, 4.0, 300, 200, seed=2)
        prob, gen = world.prob, np.random.default_rng(0)
        users, items = gen.integers(0, 150, size=400), gen.integers(0, 1000, size=400)
        by_row = prob[users][np.arange(users.size), items]
        by_block = prob[np.ix_(users, items)][np.arange(users.size), np.arange(items.size)]
        for other in (prob[users, items], by_block, np.asarray(prob)[users, items]):
            np.testing.assert_array_equal(other, by_row)
        np.testing.assert_array_equal(
            np.asarray(prob), fixed_order_truth(prob.user_factors, prob.item_factors, -2.0))

    def test_saturates_to_zero_without_a_warning(self):
        gen = np.random.default_rng(4)
        prob = TruthMatrix(gen.normal(size=(7, 3)), gen.normal(size=(5, 3)), -720.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reads = [prob[[0, 6]], prob[[1, 2], [3, 4]], np.asarray(prob)]
        for read in reads:
            assert np.all(read == 0.0)

    @pytest.mark.parametrize("key", [[7], np.array([-8]), ([0], [5]), ([0, 7], [1, 1])],
                             ids=["row", "negative-row", "item", "user-of-pair"])
    def test_id_out_of_range_raises_index_error(self, key):
        prob, _ = self.truth()
        with pytest.raises(IndexError):
            prob[key]

    @pytest.mark.parametrize("key, what", [
        (slice(0, 2), "slice"),
        (np.ones(7, dtype=bool), "bool ids"),
        (..., "ellipsis"),
        (None, "NoneType"),
        (np.array([0.0, 1.0]), "float64 ids"),
        ((slice(None), 1), "slice"),
        (([0], [1], [2]), "3-part key"),
        (([0],), "1-part key"),
    ], ids=["slice", "bool-mask", "ellipsis", "none", "float-ids", "pair-with-slice",
            "three-part", "one-part"])
    def test_other_keys_rejected_naming_the_reads(self, key, what):
        prob, _ = self.truth()
        with pytest.raises(TypeError, match=rf"takes no {re.escape(what)}.*"
                                            r"prob\[rows\] or prob\[users, items\]"):
            prob[key]

    def test_assignment_and_copy_free_array_rejected(self):
        prob, want = self.truth()
        for key in ([0], ([0], [1]), slice(None)):
            with pytest.raises(ValueError, match=r"read-only; it reads prob\[rows\]"):
                prob[key] = 0.5
        with pytest.raises(ValueError, match="no copy can be avoided"):
            np.asarray(prob, copy=False)
        np.testing.assert_array_equal(np.asarray(prob), want)

    def test_factors_are_read_only_copies(self):
        gen = np.random.default_rng(1)
        u_f, i_f = gen.normal(size=(7, 3)), gen.normal(size=(5, 3))
        prob = TruthMatrix(u_f, i_f, -1.5)
        want = np.asarray(prob)
        u_f[:], i_f[:] = 0.0, 0.0
        for factors in (prob.user_factors, prob.item_factors):
            with pytest.raises(ValueError, match="read-only"):
                factors[0, 0] = 1.0
        for name in ("user_factors", "item_factors", "bias"):
            with pytest.raises(AttributeError):
                setattr(prob, name, 0.0)
        np.testing.assert_array_equal(np.asarray(prob), want)

    @pytest.mark.parametrize("shapes", [
        ((7, 3), (5, 2)), ((7, 0), (5, 0)), ((7,), (5,)), ((7, 3), (5, 3, 1))],
        ids=["widths-differ", "zero-width", "one-dimensional", "three-dimensional"])
    def test_factors_of_other_shapes_rejected(self, shapes):
        with pytest.raises(ValueError, match="are not two 2-D arrays of one nonzero width"):
            TruthMatrix(np.zeros(shapes[0]), np.zeros(shapes[1]), 0.0)


class TestChunkedSelection:
    """Cells picked chunk by chunk equal the full-grid top-n, in ascending cell order."""

    N_USERS, N_ITEMS, CHUNK = 9, 11, 7   # 99 cells in 15 chunks

    @classmethod
    def full_grid_cells(cls, seed, skew, n):
        n_cells = cls.N_USERS * cls.N_ITEMS
        root = RngStream(seed)
        gumbel_keys = np.log(-np.log(root.split("biased-cells").random(n_cells)))
        # The keys read the float64 truth, not the float32 truth that prob reads.
        biased_keys = gumbel_keys - skew * float64_truth(cls.N_USERS, cls.N_ITEMS, 3,
                                                         seed).reshape(-1)
        uniform_keys = -root.split("uniform-cells").random(n_cells)
        return [np.sort(np.argpartition(keys, n - 1)[:n]) for keys in (biased_keys, uniform_keys)]

    @pytest.mark.parametrize("n", [3, 20, 99],
                             ids=["below-a-chunk", "above-a-chunk", "whole-grid"])
    @pytest.mark.parametrize("skew", [0.0, 12.0])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_cells_equal_full_grid_argpartition(self, monkeypatch, seed, skew, n):
        want = self.full_grid_cells(seed, skew, n)
        monkeypatch.setattr(data, "GRID_CHUNK", self.CHUNK)
        _, ds = generate_synthetic(self.N_USERS, self.N_ITEMS, 3, skew, n, n, seed=seed)
        for source, cells in zip((Source.BIASED, Source.UNIFORM), want):
            got = [r.user * self.N_ITEMS + r.item for r in ds.by_source(source)]
            assert got == cells.tolist()

    def test_chunk_size_changes_no_row(self, monkeypatch):
        """Chunks of 1 and 7 cells put the 99-cell grid's uniform log on a second thread, and
        64 leaves both logs on the calling thread, so this also compares two threads with one."""
        _, whole = generate_synthetic(self.N_USERS, self.N_ITEMS, 3, 4.0, 30, 20, seed=5)
        for chunk in (1, 7, 64):
            monkeypatch.setattr(data, "GRID_CHUNK", chunk)
            _, chunked = generate_synthetic(self.N_USERS, self.N_ITEMS, 3, 4.0, 30, 20, seed=5)
            assert chunked.interactions == whole.interactions


class TestOneLogPerThread:
    """A grid of at least ``2 * GRID_CHUNK`` cells has its uniform log selected by one more
    thread while the calling thread selects the biased log, and gives the one-thread world
    bit for bit."""

    N_USERS, N_ITEMS = 6, 11   # 66 cells

    def world(self, monkeypatch, chunk, n_biased=20, n_uniform=12):
        monkeypatch.setattr(data, "GRID_CHUNK", chunk)
        return generate_synthetic(self.N_USERS, self.N_ITEMS, 3, 4.0, n_biased, n_uniform,
                                  seed=3)

    @staticmethod
    def threads_started(monkeypatch, *shape):
        """How many logs a call on an ``n_users`` x ``n_items`` grid selects off the
        calling thread."""
        caller, original, off_caller = threading.current_thread(), data._smallest_cells, []

        def spy(n, n_cells, keys_of):
            off_caller.append(threading.current_thread() is not caller)
            return original(n, n_cells, keys_of)

        monkeypatch.setattr(data, "_smallest_cells", spy)
        generate_synthetic(*shape, 3, 4.0, 10, 10, seed=1)
        return sum(off_caller)

    @pytest.mark.parametrize("n_biased, n_uniform", [(20, 12), (50, 40), (66, 66)],
                             ids=["part-of-the-grid", "most-of-the-grid", "whole-grid"])
    def test_two_threads_equal_one(self, monkeypatch, n_biased, n_uniform):
        one_world, one_log = self.world(monkeypatch, 64, n_biased, n_uniform)
        for chunk in (5, 33):
            two_world, two_log = self.world(monkeypatch, chunk, n_biased, n_uniform)
            np.testing.assert_array_equal(two_world.prob, one_world.prob)
            assert two_log.interactions == one_log.interactions

    @pytest.mark.parametrize("shape, threads", [
        ((6, 11), 1),   # 66 cells, 2 * GRID_CHUNK
        ((5, 13), 0),   # 65 cells, 1 short of 2 * GRID_CHUNK
        ((1, 80), 1),   # one user: no row is cut, so one is enough
    ], ids=["two-chunks", "small-grid", "one-user"])
    def test_second_thread_from_two_chunks(self, monkeypatch, shape, threads):
        monkeypatch.setattr(data, "GRID_CHUNK", 33)
        assert self.threads_started(monkeypatch, *shape) == threads

    def test_coat_shape_starts_no_thread(self, monkeypatch):
        # 87,000 cells, below 2 * GRID_CHUNK at its set value.
        assert self.threads_started(monkeypatch, 290, 300) == 0

    def test_each_log_on_its_own_thread(self, monkeypatch):
        caller, original, on_caller = threading.current_thread(), data._smallest_cells, {}

        def spy(n, n_cells, keys_of):
            on_caller[n] = threading.current_thread() is caller
            return original(n, n_cells, keys_of)

        monkeypatch.setattr(data, "_smallest_cells", spy)
        self.world(monkeypatch, 5, n_biased=20, n_uniform=12)
        assert on_caller == {20: True, 12: False}

    def test_no_thread_outlives_a_call(self, monkeypatch):
        before = threading.active_count()
        self.world(monkeypatch, 5)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [20, 12], ids=["biased-on-calling-thread",
                                                       "uniform-on-worker"])
    def test_failure_in_either_log_reaches_the_caller(self, monkeypatch, failing):
        original = data._smallest_cells

        def fail_one(n, n_cells, keys_of):
            if n == failing:
                raise RuntimeError(f"log of {n} rows")
            return original(n, n_cells, keys_of)

        monkeypatch.setattr(data, "_smallest_cells", fail_one)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^log of {failing} rows$"):
            self.world(monkeypatch, 5, n_biased=20, n_uniform=12)
        assert threading.active_count() == before

    def test_draws_never_reach_rng_stream_random(self, monkeypatch):
        # perfbench's traced mode wraps RngStream.random, and its span stack is not
        # thread-safe, so neither log may draw through it.
        want_world, want_log = self.world(monkeypatch, 5)

        def refuse(self, size=None):
            raise AssertionError("generate_synthetic drew through RngStream.random")

        monkeypatch.setattr(RngStream, "random", refuse)
        world, log = self.world(monkeypatch, 5)
        np.testing.assert_array_equal(world.prob, want_world.prob)
        assert log.interactions == want_log.interactions


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

    @staticmethod
    def reference_coat(matrices):
        rows = []
        for matrix, src in zip(matrices, (Source.BIASED, Source.UNIFORM)):
            us, its = np.nonzero(matrix)
            for u, i in zip(us.tolist(), its.tolist()):
                rows.append(interaction(u, i, int(matrix[u, i]), src))
        return rows

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
        assert Dataset(ds.interactions, ds.n_users, ds.n_items) == ds

    def test_coat_matrices(self, tmp_path):
        gen = np.random.default_rng(8)
        matrices = [gen.integers(0, 6, size=(7, 9)) * (gen.random((7, 9)) < p) for p in (0.4, 0.2)]
        for name, m in zip(("train", "test"), matrices):
            TestCoatLoader.write_matrix(tmp_path / name, m)
        ds = load_coat(tmp_path / "train", tmp_path / "test")
        rows = self.reference_coat(matrices)
        assert len(rows) > 10
        assert ds.interactions == rows
        assert Dataset(ds.interactions, ds.n_users, ds.n_items) == ds

    @staticmethod
    def reference_synthetic(n_users, n_items, latent_dim, skew, n_biased, n_uniform, seed, bias):
        """``prob`` and the rows of ``generate_synthetic``, by whole-grid arrays and a row loop:
        the keys read the float64 truth of the whole-grid BLAS product, the labels the float32
        fixed-order truth, which is ``prob``."""
        root = RngStream(seed)
        truth = float64_truth(n_users, n_items, latent_dim, seed, bias)
        prob = fixed_order_truth(*seed_factors(n_users, n_items, latent_dim, seed), bias)
        # The two sums may differ in float64's last bit, but not in float32 at these shapes.
        np.testing.assert_array_equal(truth.astype(np.float32), prob)
        log_w = skew * truth.reshape(-1)
        gumbel = -np.log(-np.log(root.split("biased-cells").random(log_w.size)))
        biased_cells = np.sort(np.argpartition(-(log_w + gumbel), n_biased - 1)[:n_biased])
        uniform_keys = root.split("uniform-cells").random(n_users * n_items)
        uniform_cells = np.sort(np.argpartition(-uniform_keys, n_uniform - 1)[:n_uniform])
        label_rng = root.split("labels").generator
        rows = []
        for cells, src in ((biased_cells, Source.BIASED), (uniform_cells, Source.UNIFORM)):
            us, its = np.divmod(cells, n_items)
            labels = (label_rng.random(cells.size) < prob[us, its]).astype(np.int64)
            low_ratings = label_rng.integers(1, 5, size=cells.size)
            for u, i, y, r in zip(us.tolist(), its.tolist(), labels.tolist(), low_ratings.tolist()):
                rows.append(interaction(int(u), int(i), 5 if y else int(r), src))
        return prob, rows

    @pytest.mark.parametrize("seed, chunk", [
        *(pytest.param(seed, None, id=f"{seed}") for seed in (1, 2, 3, 1000)),
        *(pytest.param(seed, 7, id=f"{seed}-chunk-7") for seed in (1, 2, 3, 1000))])
    def test_generate_synthetic(self, monkeypatch, seed, chunk):
        """At chunks of 7 cells the 750-cell grid's logs are selected on two threads and end
        in a partial chunk, and most chunks lie inside one row of 25 items, so the sigmoid
        applied chunk by chunk and the logits of a chunk's own items are checked too."""
        if chunk is not None:
            monkeypatch.setattr(data, "GRID_CHUNK", chunk)
        self.assert_reference(30, 25, 4, 3.0, 120, 90, seed=seed, bias=-1.5)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_generate_synthetic_over_multi_row_blocks(self, seed):
        """150 x 1000 cells are three chunks at the set ``GRID_CHUNK``, so each chunk's logits
        come from a block of many whole rows, as at Yahoo! shape."""
        assert 150 * 1000 > 2 * data.GRID_CHUNK
        self.assert_reference(150, 1000, 4, 4.0, 3000, 800, seed=seed, bias=-2.0)

    def assert_reference(self, *sizes, seed, bias):
        world, ds = generate_synthetic(*sizes, seed=seed, bias=bias)
        prob, rows = self.reference_synthetic(*sizes, seed, bias)
        assert world.prob.dtype == np.float32
        np.testing.assert_array_equal(world.prob, prob)
        assert ds.interactions == rows
        assert Dataset(ds.interactions, ds.n_users, ds.n_items) == ds


def traced(build):
    """What ``build()`` returns, and the bytes traced as still held."""
    tracemalloc.start()
    try:
        out = build()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held


def synthetic_log(tmp_path):
    return generate_synthetic(6, 9, 2, 1.0, 12, 8, seed=3)[1]


def yahoo_log(tmp_path):
    biased, uniform = tmp_path / "b.txt", tmp_path / "u.txt"
    biased.write_text("7\t100\t3\n2\t100\t5\n2\t300\t1\n")
    uniform.write_text("7\t900\t1\n9\t300\t4\n")
    return load_yahoo(biased, uniform)


def coat_log(tmp_path):
    train, test = tmp_path / "train.ascii", tmp_path / "test.ascii"
    train.write_text("0 5 0\n1 0 2\n")
    test.write_text("4 0 0\n0 3 5\n")
    return load_coat(train, test)


@pytest.mark.parametrize("log", [synthetic_log, yahoo_log, coat_log],
                         ids=["generate_synthetic", "load_yahoo", "load_coat"])
class TestProducedLogFootprint:
    def test_columns_hold_10_bytes_a_row(self, tmp_path, log):
        rows = log(tmp_path).interactions
        columns = (rows.users, rows.items, rows.ratings, rows.is_uniform)
        assert [c.dtype for c in columns] == [np.int32, np.int32, np.int8, np.bool_]

    def test_by_source_columns_are_views_of_the_log(self, tmp_path, log):
        ds = log(tmp_path)
        for source in Source:
            part = ds.by_source(source)
            assert len(part) > 0
            for name in ("users", "items", "ratings", "is_uniform"):
                assert np.shares_memory(getattr(part, name), getattr(ds.interactions, name))


def test_by_source_of_a_log_appended_after_its_uniform_rows_equals_the_mask():
    # The log a round rebuilds: biased rows, uniform rows, then more biased rows.
    world_log = generate_synthetic(6, 9, 2, 1.0, 12, 8, seed=3)[1]
    taken = {(r.user, r.item) for r in world_log.by_source(Source.BIASED)}
    picks = [interaction(u, i, 5 if (u + i) % 2 else 2, Source.BIASED)
             for u in range(6) for i in range(9) if (u, i) not in taken][:10]
    ds = Dataset(world_log.interactions + picks, 6, 9)
    for source in Source:
        mask = ds.interactions.is_uniform == (source is Source.UNIFORM)
        part = ds.by_source(source)
        assert part == ds.interactions[mask]
        assert part == [r for r in ds.interactions if r.source is source]
        assert np.shares_memory(part.users, ds.interactions.users) == (source is Source.UNIFORM)


class TestRows:
    """``Rows`` and each consumer of rows, against the list semantics written inline."""

    N_ITEMS = 7

    @classmethod
    def listed(cls, n, seed=0):
        """``n`` distinct rows of both sources in a seeded order, as a list."""
        order = np.random.default_rng(seed).permutation(n).tolist()
        return [interaction(k // cls.N_ITEMS, k % cls.N_ITEMS, k % 5 + 1,
                            Source.UNIFORM if k % 3 == 0 else Source.BIASED) for k in order]

    @classmethod
    def dataset(cls, rows, n):
        return Dataset(rows, n // cls.N_ITEMS + 1, cls.N_ITEMS)

    @classmethod
    def given(cls, n):
        """``listed(n)`` and the ``Rows`` its ``Dataset`` holds; each consumer takes either."""
        want = cls.listed(n)
        return want, cls.dataset(want, n).interactions

    @pytest.mark.parametrize("n", [0, 1, data.ROW_BLOCK - 1, data.ROW_BLOCK, data.ROW_BLOCK + 1])
    def test_iteration_and_int_indices_give_the_rows(self, n):
        want, rows = self.given(n)
        assert isinstance(rows, data.Rows) and len(rows) == n
        got = list(rows)
        assert got == want
        assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in want]
        assert [rows[k] for k in range(n)] == want

    def test_negative_int_index_counts_from_the_end(self):
        want, rows = self.given(5)
        assert [rows[k] for k in range(-5, 0)] == want
        assert rows[np.int64(-2)] == want[-2]
        for k in (5, -6):
            with pytest.raises(IndexError):
                rows[k]

    def test_slice_mask_and_index_array_give_rows(self):
        want, rows = self.given(30)
        mask = np.arange(30) % 4 == 1
        index = np.array([29, 0, 3, 3, -1])
        for key, expected in ((slice(3, 20, 2), want[3:20:2]), (slice(None, -1), want[:-1]),
                              (mask, [r for r, keep in zip(want, mask) if keep]),
                              (index, [want[k] for k in index])):
            assert isinstance(rows[key], data.Rows) and rows[key] == expected

    def test_sum_with_rows_or_a_list_is_rows(self):
        want, rows = self.given(9)
        for other in (want[4:], rows[4:]):
            total = rows[:4] + other
            assert isinstance(total, data.Rows) and total == want

    def test_sum_with_a_list_holding_a_bad_row_names_it(self):
        _, rows = self.given(3)
        bad = [interaction(0, 0, 5, Source.UNIFORM), Interaction(0, 1, 4, 1, Source.BIASED)]
        with pytest.raises(ValueError, match=r"^row 1: label 1 inconsistent with rating 4$"):
            rows + bad

    def test_equality_compares_columns(self):
        want, rows = self.given(6)
        assert rows == self.given(6)[1] and rows == want
        assert rows != self.dataset(self.listed(6, seed=1), 6).interactions
        assert rows != rows[:5] and rows != want[:5] and rows != tuple(want)

    def test_by_source(self):
        want, rows = self.given(60)
        for given in (want, rows):
            ds = self.dataset(given, 60)
            for source in Source:
                part = ds.by_source(source)
                assert isinstance(part, data.Rows)
                assert part == [r for r in want if r.source is source]

    def test_split_uniform(self):
        want = [r._replace(source=Source.UNIFORM) for r in self.listed(60)]
        rows = self.dataset(want, 60).interactions
        order = RngStream(3).split("uniform-split").generator.permutation(60)
        shuffled = [want[k] for k in order]
        expected = (shuffled[:12], shuffled[12:36], shuffled[36:])
        for given in (want, rows):
            parts = split_uniform(given, SplitSpec(0.2, 3))
            assert all(isinstance(part, data.Rows) for part in parts) and parts == expected

    def test_partition_batches(self):
        want, rows = self.given(60)
        order = RngStream(4).generator.permutation(60)
        expected = [[want[k] for k in part] for part in np.array_split(order, 7)]
        for given in (want, rows):
            assert partition_batches(given, 7, RngStream(4)) == expected

    def test_pack(self):
        want, rows = self.given(60)
        expected = ([r.user for r in want], [r.item for r in want], [float(r.label) for r in want])
        for given in (want, rows):
            packed = pack(given)
            assert [column.dtype for column in packed] == [np.int64, np.int64, np.float64]
            for column, values in zip(packed, expected):
                np.testing.assert_array_equal(column, values)

    def test_evaluate(self):
        want, rows = self.given(60)
        net = init_network(NetworkConfig(60 // self.N_ITEMS + 1, self.N_ITEMS, 2, (2,)),
                           RngStream(1))
        scores = forward_batch(net, [[r.user, r.item] for r in want])
        labels = [r.label for r in want]
        expected = MetricsResult(auc(scores, labels), bce_eval(scores, labels), sum(labels),
                                 len(labels) - sum(labels))
        for given in (want, rows):
            assert evaluate(net, given) == expected

    def test_from_dataset(self):
        want, rows = self.given(60)
        expected = sorted({r.user * self.N_ITEMS + r.item for r in want})
        for given in (want, rows):
            np.testing.assert_array_equal(observed_keys(self.dataset(given, 60)), expected)

    def test_dataset_unchanged_by_packed_arrays_or_views(self):
        want, rows = self.given(20)
        ds = self.dataset(rows, 20)
        for packed in (pack(ds.interactions), pack(ds.interactions[2:9]),
                       pack(ds.by_source(Source.BIASED))):
            for column in packed:
                column[:] = 0
        for rows in (ds.interactions, ds.interactions[2:9], ds.by_source(Source.BIASED)):
            with pytest.raises(ValueError, match="read-only"):
                rows.users[0] = 0
        assert ds.interactions == want

    @pytest.mark.parametrize("column", ["users", "items", "ratings", "is_uniform"])
    def test_columns_cannot_be_replaced(self, column):
        # Unchecked, users = [0, 7] on this checked 2 x 2 log went through, and iteration
        # then gave user 7.
        want = [interaction(0, 0, 5, Source.UNIFORM), interaction(1, 1, 3, Source.BIASED)]
        ds = Dataset(want, n_users=2, n_items=2)
        with pytest.raises(AttributeError):
            setattr(ds.interactions, column, np.array([0, 7]))
        assert ds.interactions == want

    def test_dataset_holds_at_most_12_bytes_a_row(self):
        # Two int32 columns, an int8 and a bool column, 10 bytes a row.  With three int64
        # columns a Dataset held 25; as one Interaction a row, with the ids' ints shared, 97.
        n, n_users, n_items = 20_000, 400, 500
        gen = np.random.default_rng(0)
        users, items = np.divmod(np.sort(gen.choice(n_users * n_items, n, replace=False)), n_items)
        ratings = gen.integers(1, 6, n)
        listed = [interaction(u, i, r, Source.BIASED)
                  for u, i, r in zip(users.tolist(), items.tolist(), ratings.tolist())]
        for build in (lambda: Dataset(listed, n_users, n_items),
                      lambda: Dataset(Rows(users.copy(), items.copy(), ratings.copy(),
                                           np.zeros(n, bool)), n_users, n_items)):
            ds, held = traced(build)
            assert ds.interactions == listed
            assert held <= 12 * n
