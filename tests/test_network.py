import re
import warnings

import numpy as np
import pytest

from distilrec.network import (
    ForwardMode,
    Network,
    NetworkConfig,
    forward_batch,
    forward_cached,
    init_network,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from distilrec.rng import RngStream


def small_config(**over):
    kw = dict(n_users=5, n_items=6, embedding_dim=3, hidden_sizes=(4,), dropout_rate=0.0)
    kw.update(over)
    return NetworkConfig(**kw)


class TestConfigValidation:
    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            small_config(embedding_dim=0)
        with pytest.raises(ValueError):
            small_config(n_users=0)
        with pytest.raises(ValueError):
            small_config(hidden_sizes=())
        with pytest.raises(ValueError):
            small_config(hidden_sizes=(4, 0))

    def test_rejects_dropout_one(self):
        with pytest.raises(ValueError):
            small_config(dropout_rate=1.0)

    def test_rejects_four_hidden_layers(self):
        with pytest.raises(ValueError):
            small_config(hidden_sizes=(4, 4, 4, 4))


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


class TestParamCount:
    def test_shape_arithmetic_example(self):
        # 290*10 + 300*10 + (20*32 + 32) + (32*1 + 1)
        cfg = NetworkConfig(290, 300, 10, (32,))
        assert param_count(cfg) == 290 * 10 + 300 * 10 + (20 * 32 + 32) + (32 + 1)
        assert param_count(cfg) == 6605

    def test_minimal_example(self):
        cfg = NetworkConfig(1, 1, 1, (1,))
        assert param_count(cfg) == 1 + 1 + (2 * 1 + 1) + (1 + 1)
        assert param_count(cfg) == 7

    def test_counts_match_actual_arrays(self):
        cfg = small_config(hidden_sizes=(4, 3))
        net = init_network(cfg, RngStream(0))
        assert param_count(net) == sum(a.size for a in net.param_arrays())


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
        np.testing.assert_allclose(batch, single, rtol=1e-14, atol=1e-15)


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

    def test_requires_rng_in_stochastic_mode(self):
        net = init_network(small_config(dropout_rate=0.5), RngStream(1))
        with pytest.raises(ValueError, match="rng"):
            forward_batch(net, [(0, 0)], ForwardMode.TRAIN_DROPOUT)

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


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = init_network(small_config(dropout_rate=0.2, hidden_sizes=(4, 3)), RngStream(13))
        path = tmp_path / "net.npz"
        save_checkpoint(net, path, seed=13)
        loaded, seed = load_checkpoint(path)
        assert seed == 13
        assert loaded.config == net.config
        for a, b in zip(net.param_arrays(), loaded.param_arrays()):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    def test_version_check(self, tmp_path):
        import json

        net = init_network(small_config(), RngStream(1))
        path = tmp_path / "net.npz"
        save_checkpoint(net, path)
        data = dict(np.load(path))
        header = json.loads(bytes(data["header"]).decode())
        header["format_version"] = 999
        data["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncated_file_rejected_naming_path(self, tmp_path):
        path = tmp_path / "net.npz"
        save_checkpoint(init_network(small_config(), RngStream(1)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a checkpoint")):
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
