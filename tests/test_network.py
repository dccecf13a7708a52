import dataclasses
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from distilrec import network
from distilrec.network import (
    SCORE_BLOCK,
    ForwardCache,
    ForwardMode,
    Gradient,
    Network,
    NetworkConfig,
    forward_batch,
    forward_cached,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from distilrec.network import backprop
from distilrec.rng import RngStream


def small_config(**over):
    kw = dict(n_users=5, n_items=6, embedding_dim=3, hidden_sizes=(4,), dropout_rate=0.0)
    kw.update(over)
    return NetworkConfig(**kw)


class TestConfigValidation:
    @pytest.mark.parametrize("hidden_sizes", [(), (4, 4, 4, 4)], ids=["none", "four"])
    def test_rejects_layer_count_outside_one_to_three(self, hidden_sizes):
        with pytest.raises(ValueError, match=r"^hidden_sizes must contain 1 to 3 layers$"):
            small_config(hidden_sizes=hidden_sizes)

    def test_whole_floats_become_ints(self):
        cfg = NetworkConfig(5.0, np.int32(6), 64.0, (np.float64(4.0), 3))
        assert (cfg.n_users, cfg.n_items, cfg.embedding_dim, cfg.hidden_sizes) == (5, 6, 64, (4, 3))
        assert all(type(v) is int for v in (cfg.n_users, cfg.n_items, cfg.embedding_dim,
                                             *cfg.hidden_sizes))

    def test_list_hidden_sizes_equal_tuple(self):
        # A checkpoint's JSON config holds hidden_sizes as a list.
        from_list, from_tuple = small_config(hidden_sizes=[4, 3]), small_config(hidden_sizes=(4, 3))
        assert from_list.hidden_sizes == (4, 3)
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)


class TestParamShapes:
    def test_shape_arithmetic_example(self):
        # 290*10 + 300*10 + (20*32 + 32) + (32*1 + 1)
        cfg = NetworkConfig(290, 300, 10, (32,))
        assert [shape for _, shape in cfg.param_shapes()] == [
            (290, 10), (300, 10), (20, 32), (32,), (32, 1), (1,)]
        assert sum(np.prod(shape) for _, shape in cfg.param_shapes()) == 6605

    def test_minimal_example(self):
        cfg = NetworkConfig(1, 1, 1, (1,))
        assert [shape for _, shape in cfg.param_shapes()] == [(1, 1), (1, 1), (2, 1), (1,),
                                                               (1, 1), (1,)]
        assert sum(np.prod(shape) for _, shape in cfg.param_shapes()) == 7

    def test_shapes_match_actual_arrays(self):
        cfg = small_config(hidden_sizes=(4, 3))
        net = init_network(cfg, RngStream(0))
        assert [name for name, _ in cfg.param_shapes()] == [
            "user_emb", "item_emb", "weights[0]", "biases[0]", "weights[1]", "biases[1]",
            "weights[2]", "biases[2]"]
        assert [shape for _, shape in cfg.param_shapes()] == [a.shape for a in net.param_arrays()]


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = small_config()
        a = init_network(cfg, RngStream(7))
        b = init_network(cfg, RngStream(7))
        for pa, pb in zip(a.param_arrays(), b.param_arrays()):
            np.testing.assert_array_equal(pa, pb)

    def test_biases_zero(self):
        net = init_network(small_config(hidden_sizes=(4, 3)), RngStream(3))
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_weights_within_fan_limits(self):
        cfg = small_config()
        net = init_network(cfg, RngStream(9))
        limit0 = np.sqrt(6.0 / (2 * cfg.embedding_dim + cfg.hidden_sizes[0]))
        assert np.all(np.abs(net.weights[0]) <= limit0)
        emb_limit = np.sqrt(6.0 / (cfg.n_users + cfg.embedding_dim))
        assert np.all(np.abs(net.user_emb) <= emb_limit)

    def test_construction_rejects_arrays_disagreeing_with_config(self):
        net = init_network(small_config(hidden_sizes=(4, 3)), RngStream(2))
        with pytest.raises(ValueError, match="2 weights and 3 biases; config expects 3 of each"):
            Network(net.config, net.user_emb, net.item_emb, net.weights[:2], net.biases)
        with pytest.raises(ValueError, match=r"weights\[1\] has shape \(3, 4\)"):
            Network(net.config, net.user_emb, net.item_emb,
                    [net.weights[0], net.weights[1].T, net.weights[2]], net.biases)

    def test_construction_rejects_mixed_or_non_float_dtypes(self):
        # Unchecked, int64 arrays failed inside the forward pass with an unlocated
        # UFuncTypeError, and one float64 array among float32 ones would promote each product.
        net = init_network(small_config(hidden_sizes=(4, 3)), RngStream(2))
        arrays = net.param_arrays()
        assert net.dtype == np.float32
        for dtype in (np.float16, np.int64):
            with pytest.raises(ValueError, match=f"^user_emb has dtype {np.dtype(dtype)}; "
                                                 "float32 or float64 expected$"):
                Network.from_arrays(net.config, [a.astype(dtype) for a in arrays])
        with pytest.raises(ValueError,
                           match=r"^biases\[1\] has dtype float64; user_emb's float32 expected$"):
            Network(net.config, net.user_emb, net.item_emb, net.weights,
                    [net.biases[0], net.biases[1].astype(np.float64), net.biases[2]])
        with pytest.raises(ValueError, match="^item_emb has dtype float32; user_emb's float64"):
            Network.from_arrays(net.config, [arrays[0].astype(np.float64), *arrays[1:]])


class TestForward:
    def test_zero_parameters_give_half(self):
        net = init_network(small_config(), RngStream(1))
        for arr in net.param_arrays():
            arr[...] = 0.0
        assert forward_batch(net, [(2, 3)])[0] == 0.5

    def test_output_in_open_interval(self):
        net = init_network(small_config(), RngStream(1))
        p = forward_batch(net, [(u, i) for u in range(5) for i in range(6)])
        assert np.all((p > 0.0) & (p < 1.0))

    def test_sigmoid_limits_without_warning(self):
        net = init_network(small_config(), RngStream(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net.biases[-1][...] = -1000.0
            assert forward_batch(net, [(2, 3)])[0] == 0.0
            net.biases[-1][...] = 1000.0
            assert forward_batch(net, [(2, 3)])[0] == 1.0

    def test_out_of_range_ids_rejected(self):
        net = init_network(small_config(), RngStream(1))
        with pytest.raises(ValueError, match="out of range"):
            forward_batch(net, [(5, 0)])
        with pytest.raises(ValueError, match="out of range"):
            forward_batch(net, [(0, 6)])
        with pytest.raises(ValueError, match="out of range"):
            forward_batch(net, [(-1, 0)])

    def test_non_integer_ids_rejected_naming_row(self):
        # Unchecked, (1.9, 1) was truncated and scored as (1, 1).
        net = init_network(small_config(), RngStream(1))
        with pytest.raises(ValueError, match=r"row 0: pair id 1.9 is not an integer"):
            forward_batch(net, [(1.9, 1)])
        with pytest.raises(ValueError, match=r"row 1: user id 0.5 is not an integer"):
            forward_cached(net, [1, 0.5], [0, 0], ForwardMode.DETERMINISTIC)
        with pytest.raises(ValueError, match=r"row 1: item id 'a' is not an integer"):
            forward_cached(net, [1, 1], [0, "a"], ForwardMode.DETERMINISTIC)

    def test_integer_and_whole_float_ids_score_alike(self):
        net = init_network(small_config(), RngStream(1))
        want = forward_batch(net, [(1, 1), (4, 5)])
        for pairs in (np.array([[1, 1], [4, 5]], np.int32), np.array([[1, 1], [4, 5]], np.uint8),
                      [(1.0, 1.0), (4.0, 5.0)]):
            np.testing.assert_array_equal(forward_batch(net, pairs), want)

    def test_empty_batch(self):
        net = init_network(small_config(), RngStream(1))
        assert forward_batch(net, []).shape == (0,)
        assert forward_batch(net, np.empty((0, 2), np.int64)).shape == (0,)

    def test_pairs_not_shaped_n_by_2_rejected(self):
        net = init_network(small_config(), RngStream(1))
        for pairs in ([[0, 1, 2], [3, 4, 5]], [0, 1], [[[0, 1]]], np.empty((0, 3), np.int64)):
            with pytest.raises(ValueError, match=r"pairs must have shape \(n, 2\)"):
                forward_batch(net, pairs)

    def test_batch_matches_elementwise(self):
        net = init_network(small_config(), RngStream(1))
        pairs = [(0, 0), (4, 5), (2, 1)]
        batch = forward_batch(net, pairs)
        single = [forward_batch(net, [(u, i)])[0] for u, i in pairs]
        # BLAS may pick different kernels per batch shape; tolerance is ulp-scale.
        eps = np.finfo(net.dtype).eps
        np.testing.assert_allclose(batch, single, rtol=8 * eps, atol=eps)


def random_pairs(cfg, n, seed=0):
    gen = np.random.default_rng(seed)
    return np.column_stack([gen.integers(0, cfg.n_users, n), gen.integers(0, cfg.n_items, n)])


BLOCK_SIZES = [0, 1, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1, 2 * SCORE_BLOCK + 3]
HIDDEN = [(4,), (4, 3), (5, 4, 3)]


SCORER_CASES = ([(hidden, n) for hidden in HIDDEN for n in BLOCK_SIZES]
                + [("coat", n) for n in (300, SCORE_BLOCK, 2 * SCORE_BLOCK + 3)])


def case_id(value):
    return "x".join(map(str, value)) if isinstance(value, tuple) else str(value)


class TestScorerMatchesTrainingForward:
    """Scoring and training share one first layer and one layer stack, so they agree
    bit for bit; an unfactored first layer in either differs in the last bits."""

    @staticmethod
    def net(hidden, dropout_rate):
        if hidden == "coat":
            cfg = NetworkConfig(n_users=290, n_items=300, embedding_dim=64, hidden_sizes=(64, 32),
                                dropout_rate=dropout_rate)
        else:
            cfg = small_config(hidden_sizes=hidden, dropout_rate=dropout_rate)
        return init_network(cfg, RngStream(4))

    @pytest.mark.parametrize("hidden, n", SCORER_CASES, ids=case_id)
    def test_deterministic_equals_forward_cached(self, hidden, n):
        net = self.net(hidden, 0.3)
        pairs = random_pairs(net.config, n)
        want = forward_cached(net, pairs[:, 0], pairs[:, 1], ForwardMode.DETERMINISTIC).probs
        np.testing.assert_array_equal(forward_batch(net, pairs), want)

    @pytest.mark.parametrize("hidden, n", [(h, n) for h, n in SCORER_CASES if n <= SCORE_BLOCK],
                             ids=case_id)
    def test_one_block_of_samples_equals_training_forward(self, hidden, n):
        # Within one block the scorer draws its masks as the training forward does.
        net = self.net(hidden, 0.4)
        pairs = random_pairs(net.config, n)
        stream, rng = RngStream(8), RngStream(8)
        got = forward_batch(net, pairs, ForwardMode.STOCHASTIC_INFERENCE, stream)
        want = forward_cached(net, pairs[:, 0], pairs[:, 1], ForwardMode.TRAIN_DROPOUT, rng).probs
        np.testing.assert_array_equal(got, want)
        assert stream.random() == rng.random()

    @pytest.mark.parametrize("hidden", HIDDEN)
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_stochastic_masks_drawn_block_by_block_layer_by_layer(self, hidden, n):
        cfg = small_config(hidden_sizes=hidden, dropout_rate=0.4)
        net = init_network(cfg, RngStream(4))
        pairs = random_pairs(cfg, n)
        stream = RngStream(8)
        got = forward_batch(net, pairs, ForwardMode.STOCHASTIC_INFERENCE, stream)

        # Reference: the unfactored first layer, masks from a same-seeded stream.
        rng = RngStream(8)
        want = []
        for start in range(0, n, SCORE_BLOCK):
            block = pairs[start:start + SCORE_BLOCK]
            a = np.concatenate([net.user_emb[block[:, 0]], net.item_emb[block[:, 1]]], axis=1)
            for w, b in zip(net.weights[:-1], net.biases[:-1]):
                a = np.maximum(a @ w + b, 0.0)
                a = a * (rng.random((len(block), w.shape[1])) >= cfg.dropout_rate)
                a = a / (1.0 - cfg.dropout_rate)
            want.append(1.0 / (1.0 + np.exp(-(a @ net.weights[-1] + net.biases[-1])[:, 0])))
        want = np.concatenate(want) if want else np.empty(0)
        # The unfactored first layer and a / (1 - p) round apart from the scorer's by a few ulps.
        np.testing.assert_allclose(got, want, rtol=16 * np.finfo(net.dtype).eps)
        # Both streams end at the same point: no draw was skipped or added.
        assert stream.random() == rng.random()

    def test_out_of_range_ids_rejected_before_any_projection(self):
        class Unreadable:
            def __matmul__(self, other):
                raise AssertionError("table projected before the ids were checked")

            __getitem__ = __matmul__

        net = init_network(small_config(), RngStream(1))
        for table in ("user_emb", "item_emb"):  # planted past the frozen fields
            object.__setattr__(net, table, Unreadable())
        for pairs in ([(5, 0)], [(0, 6)], [(-1, 0)]):
            with pytest.raises(ValueError, match="out of range"):
                forward_batch(net, pairs)


class TestScorerProjectsTouchedRows:
    @staticmethod
    def whole_table(table, ids, w):
        return table @ w, np.arange(len(table)), ids

    @pytest.mark.parametrize("mode", [ForwardMode.DETERMINISTIC, ForwardMode.STOCHASTIC_INFERENCE])
    @pytest.mark.parametrize("pairs", [
        [(3, 0), (3, 5), (0, 2), (3, 2)],                        # some users, some items
        [(u, u % 6) for u in range(5)] + [(1, 1)] * (SCORE_BLOCK + 2),   # every user, some items
        [(u % 5, i) for u in range(5) for i in range(6)],       # every user and item
        [],
    ], ids=["some-rows", "every-user", "every-row", "zero-pairs"])
    def test_equals_whole_table_projection(self, monkeypatch, mode, pairs):
        net = init_network(small_config(hidden_sizes=(4, 3), dropout_rate=0.4), RngStream(4))
        gen = np.random.default_rng(2)
        for arr in net.param_arrays():
            arr[...] = gen.normal(size=arr.shape)
        stream = RngStream(8)
        got = forward_batch(net, pairs, mode, stream)
        monkeypatch.setattr(network, "_projected", self.whole_table)
        rng = RngStream(8)
        want = forward_batch(net, pairs, mode, rng)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert stream.random() == rng.random()

    def test_projects_only_the_rows_ids_touch(self):
        gen = np.random.default_rng(3)
        table, w = gen.normal(size=(50, 4)), gen.normal(size=(4, 3))
        ids = np.array([7, 3, 7, 49, 0, 3])
        proj, rows, index = network._projected(table, ids, w)
        assert proj.shape == (4, 3)
        np.testing.assert_array_equal(rows, [0, 3, 7, 49])
        np.testing.assert_array_equal(rows[index], ids)
        np.testing.assert_allclose(proj[index], (table @ w)[ids], rtol=1e-12, atol=0.0)


class TestScorerKeepsNoTape:
    def test_never_calls_forward_cached(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("forward_batch built the backprop tape")

        monkeypatch.setattr(network, "forward_cached", forbidden)
        net = init_network(small_config(dropout_rate=0.2), RngStream(1))
        pairs = random_pairs(net.config, SCORE_BLOCK + 1)
        forward_batch(net, pairs)
        forward_batch(net, pairs, ForwardMode.STOCHASTIC_INFERENCE, RngStream(2))

    def test_peak_memory_bounded_at_coat_shape(self):
        # 100,000 pairs on a 290 x 300 grid: the tape (x and both gathered
        # halves) alone would be 195 MiB; the blocks hold a few MiB.
        net = init_network(NetworkConfig(290, 300, 64, (64, 32), 0.1), RngStream(1))
        pairs = random_pairs(net.config, 100_000)
        tracemalloc.start()
        try:
            forward_batch(net, pairs)
            forward_batch(net, pairs, ForwardMode.STOCHASTIC_INFERENCE, RngStream(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestDropout:
    def test_zero_rate_stochastic_equals_deterministic(self):
        net = init_network(small_config(dropout_rate=0.0), RngStream(1))
        det = forward_batch(net, [(1, 2)], ForwardMode.DETERMINISTIC)
        sto = forward_batch(net, [(1, 2)], ForwardMode.STOCHASTIC_INFERENCE, RngStream(5))
        np.testing.assert_array_equal(det, sto)

    def test_reseeded_streams_reproduce_stochastic_output(self):
        net = init_network(small_config(dropout_rate=0.4), RngStream(1))
        a = forward_batch(net, [(1, 2), (3, 4)], ForwardMode.STOCHASTIC_INFERENCE, RngStream(5))
        b = forward_batch(net, [(1, 2), (3, 4)], ForwardMode.STOCHASTIC_INFERENCE, RngStream(5))
        np.testing.assert_array_equal(a, b)

    def test_fresh_masks_per_call(self):
        net = init_network(small_config(dropout_rate=0.5, hidden_sizes=(8,)), RngStream(1))
        gen = np.random.default_rng(0)
        for arr in net.param_arrays():
            arr[...] = gen.normal(size=arr.shape)
        rng = RngStream(5)
        draws = [forward_batch(net, [(1, 2)], ForwardMode.STOCHASTIC_INFERENCE, rng)[0]
                 for _ in range(64)]
        assert len(set(draws)) > 1

    def test_inverted_dropout_expectation(self):
        # Empirical mean of the stochastic pre-sigmoid output must sit
        # within 3 standard errors of the deterministic value.
        cfg = small_config(dropout_rate=0.3, hidden_sizes=(16,))
        net = init_network(cfg, RngStream(2))
        det = forward_cached(net, np.array([1]), np.array([2]), ForwardMode.DETERMINISTIC).logits[0]
        rng = RngStream(77)
        n = 20_000
        samples = np.array([
            forward_cached(net, np.array([1]), np.array([2]),
                           ForwardMode.STOCHASTIC_INFERENCE, rng).logits[0]
            for _ in range(n)
        ])
        se = samples.std(ddof=1) / np.sqrt(n)
        assert abs(samples.mean() - det) < 3.0 * se


def records():
    """A checked Network, and the ForwardCache and Gradient of a 2-row forward through it."""
    net = init_network(small_config(), RngStream(1))
    cache = forward_cached(net, [0, 1], [0, 1], ForwardMode.DETERMINISTIC)
    return {"Network": net, "ForwardCache": cache,
            "Gradient": backprop(net, cache, np.ones(2), 0.5)}


@pytest.mark.parametrize("record, field", [
    (cls.__name__, f.name) for cls in (Network, ForwardCache, Gradient)
    for f in dataclasses.fields(cls)])
def test_record_fields_cannot_be_reassigned(record, field):
    # Unchecked, user_emb = zeros((2, 2)) on this 5-user network made
    # forward_batch(net, [(2, 0)]) fail with a bare IndexError.
    held = records()[record]
    before = getattr(held, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(held, field, np.zeros((2, 2)))
    assert getattr(held, field) is before
    if record == "Network":
        assert forward_batch(held, [(2, 0)]).shape == (1,)


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        # Each saved array keeps its dtype, so a float32 network loads as one.
        net = init_network(small_config(dropout_rate=0.2, hidden_sizes=(4, 3)), RngStream(13))
        net = Network.from_arrays(net.config, [a.astype(dtype) for a in net.param_arrays()])
        path = tmp_path / "net.npz"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        assert loaded.dtype == dtype
        for a, b in zip(net.param_arrays(), loaded.param_arrays()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("version", [1, 999])
    def test_version_check(self, tmp_path, version):
        # Version 1 held a seed beside the network; it fails rather than load without it.
        path = tmp_path / "net.npz"
        self.rewrite(path, lambda h, d: h.update(format_version=version, seed=3))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unsupported checkpoint "
                                             f"version {version}$"):
            load_checkpoint(path)

    def test_truncated_file_rejected_naming_path(self, tmp_path):
        path = tmp_path / "net.npz"
        save_checkpoint(init_network(small_config(), RngStream(1)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a checkpoint")):
            load_checkpoint(path)

    def test_zip_without_header_rejected_naming_path(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a checkpoint (no header entry)")):
            load_checkpoint(path)

    def test_missing_parameter_rejected_naming_path(self, tmp_path):
        path = tmp_path / "net.npz"
        save_checkpoint(init_network(small_config(), RngStream(1)), path)
        data = dict(np.load(path))
        del data["param_03"]
        np.savez(path, **data)
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: not a checkpoint (no param_03 entry)")):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [b"{not json", b"\xff\xfe", b'{"config": {}}', b"[1, 2]"])
    def test_corrupt_header_rejected_naming_path(self, tmp_path, header):
        path = tmp_path / "net.npz"
        save_checkpoint(init_network(small_config(), RngStream(1)), path)
        data = dict(np.load(path))
        data["header"] = np.frombuffer(header, dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(ValueError, match=re.escape(f"{path}: corrupt checkpoint header")):
            load_checkpoint(path)

    def test_rejects_shapes_disagreeing_with_config(self, tmp_path):
        net = init_network(small_config(n_users=3, embedding_dim=2), RngStream(1))
        path = tmp_path / "net.npz"
        save_checkpoint(net, path)
        data = dict(np.load(path))
        data["param_00"] = np.zeros((7, 5))
        np.savez(path, **data)
        with pytest.raises(ValueError, match=r"user_emb has shape \(7, 5\); config expects \(3, 2\)"):
            load_checkpoint(path)

    def test_rejects_mixed_dtype_checkpoint(self, tmp_path):
        net = init_network(small_config(), RngStream(1))
        path = tmp_path / "net.npz"
        save_checkpoint(net, path)
        data = dict(np.load(path))
        data["param_02"] = data["param_02"].astype(np.float64)
        np.savez(path, **data)
        with pytest.raises(ValueError,
                           match=r"weights\[0\] has dtype float64; user_emb's float32 expected"):
            load_checkpoint(path)

    @staticmethod
    def rewrite(path, edit):
        """Save a valid checkpoint at ``path``, then apply ``edit(header, arrays)`` to it."""
        save_checkpoint(init_network(small_config(), RngStream(1)), path)
        data = dict(np.load(path))
        header = json.loads(bytes(data["header"]).decode())
        edit(header, data)
        data["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **data)

    @pytest.mark.parametrize("edit,message", [
        (lambda h, d: h.update(config=[1]), "must be a mapping, not list"),
        (lambda h, d: h["config"].update(colour=1), "unexpected keyword argument 'colour'"),
        (lambda h, d: h["config"].update(embedding_dim=-1), "embedding_dim must be >= 1"),
        (lambda h, d: d.update(param_00=np.zeros((2, 2))), r"user_emb has shape \(2, 2\)"),
        (lambda h, d: d.update(param_00=d["param_00"].astype(np.float16)),
         "user_emb has dtype float16"),
        (lambda h, d: d["param_00"].fill(np.nan), "non-finite parameter"),
    ], ids=["config-list", "config-unknown-key", "config-negative-dim", "param-shape",
            "param-float16", "param-nan"])
    def test_fault_is_value_error_starting_with_path(self, tmp_path, edit, message):
        # Unchecked, a list or unknown key in the config raised a bare TypeError, three
        # faults raised a ValueError naming no path, and a NaN parameter loaded.
        path = tmp_path / "net.npz"
        self.rewrite(path, edit)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ") + ".*" + message):
            load_checkpoint(path)

    def test_failed_save_leaves_existing_file(self, tmp_path, monkeypatch):
        # Opened with "wb", the old file was truncated before the write failed.
        path = tmp_path / "net.npz"
        net = init_network(small_config(), RngStream(1))
        save_checkpoint(net, path)
        before = path.read_bytes()

        def failing_savez(fh, **arrays):
            fh.write(b"x" * 10)
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", failing_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(net, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.npz"]

    def test_save_into_missing_directory_names_path(self, tmp_path):
        # The error named the random temporary file, not the path asked for.
        path = tmp_path / "missing" / "net.npz"
        with pytest.raises(FileNotFoundError, match="^" + re.escape(f"{path}: ")):
            save_checkpoint(init_network(small_config(), RngStream(1)), path)
        assert list(tmp_path.iterdir()) == []


class TestGradientIsChecked:
    """A Gradient is checked against its config once, when made."""

    @staticmethod
    def parts(**over):
        net = init_network(small_config(), RngStream(1))
        cache = forward_cached(net, [3, 0, 3], [5, 5, 1], ForwardMode.DETERMINISTIC)
        fields = vars(backprop(net, cache, np.array([0.5, -1.0, 2.0]), 0.25))
        return {**fields, **over}

    def test_backprop_keeps_the_touched_rows(self):
        grads = Gradient(**self.parts())
        np.testing.assert_array_equal(grads.user_rows, [0, 3])
        np.testing.assert_array_equal(grads.item_rows, [1, 5])
        assert grads.user_values.shape == grads.item_values.shape == (2, 3)
        assert grads.l2_coeff == 0.25 and grads.dtype == np.float32

    @pytest.mark.parametrize("rows", [
        np.array([3, 0]), np.array([3, 3]), np.array([-1, 3]), np.array([0, 5]),
        np.array([0, 3], dtype=np.int32), np.array([[0, 3]])],
        ids=["descending", "repeated", "negative", "past-the-table", "int32", "2-d"])
    def test_rows_must_be_ascending_distinct_int64_ids_on_the_table(self, rows):
        with pytest.raises(ValueError, match=r"^user_rows must be ascending distinct int64 ids "
                                             r"in \[0, 5\)$"):
            Gradient(**self.parts(user_rows=rows))

    def test_values_must_have_a_row_per_id_and_the_one_dtype(self):
        values = self.parts()["item_values"]
        with pytest.raises(ValueError, match=r"^item_values has shape \(1, 3\); config expects "
                                             r"\(2, 3\)$"):
            Gradient(**self.parts(item_values=values[:1]))
        with pytest.raises(ValueError, match="^item_values has dtype float64; user_values's "
                                             "float32 expected$"):
            Gradient(**self.parts(item_values=values.astype(np.float64)))

    @pytest.mark.parametrize("l2_coeff", [-0.1, np.inf, np.nan, "0.1"])
    def test_l2_coeff_must_be_a_finite_real_at_least_zero(self, l2_coeff):
        with pytest.raises(ValueError, match="^l2_coeff must be a finite real in \\[0, inf\\)"):
            Gradient(**self.parts(l2_coeff=l2_coeff))

