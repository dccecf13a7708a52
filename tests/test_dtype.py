"""One dtype per network: every array the size of a table or of a batch follows it."""

import dataclasses

import numpy as np
import pytest

from distilrec.losses import ObservedBatch, UnobservedBatch, l2_reg, loss_and_grads
from distilrec.network import (ForwardMode, Network, NetworkConfig, backprop, forward_batch,
                               forward_cached, init_network)
from distilrec.optim import apply_update, make_optimizer
from distilrec.rng import RngStream

from oracles import sparse_gradient

CONFIG = NetworkConfig(6, 7, 3, (5, 4), dropout_rate=0.3)


def network(dtype) -> Network:
    """``init_network``'s float32 network, or its arrays cast through ``from_arrays``."""
    net = init_network(CONFIG, RngStream(1))
    assert net.dtype == np.float32
    if dtype != np.float32:
        net = Network.from_arrays(CONFIG, [a.astype(dtype) for a in net.param_arrays()])
    return net


def batches():
    gen = np.random.default_rng(0)
    obs = ObservedBatch(gen.integers(0, 6, 9), gen.integers(0, 7, 9),
                        gen.integers(0, 2, 9).astype(np.float64))
    unobs = UnobservedBatch(gen.integers(0, 6, 8), gen.integers(0, 7, 8), gen.uniform(size=8))
    return obs, unobs


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
class TestEveryArrayFollowsTheNetwork:
    def test_forwards(self, dtype):
        net = network(dtype)
        users, items = np.array([0, 5, 2, 2]), np.array([6, 0, 3, 3])
        for mode in ForwardMode:
            cache = forward_cached(net, users, items, mode, RngStream(2))
            assert [a.dtype for a in cache.acts] == [dtype] * len(CONFIG.hidden_sizes)
            assert cache.logits.dtype == cache.probs.dtype == dtype
            assert forward_batch(net, np.column_stack([users, items]), mode,
                                 RngStream(2)).dtype == dtype

    def test_backprop_and_loss_gradient(self, dtype):
        # The logit gradients are float64; the gradient is the network's dtype.
        net = network(dtype)
        cache = forward_cached(net, [0, 5, 2], [6, 0, 3], ForwardMode.TRAIN_DROPOUT, RngStream(2))
        grads = backprop(net, cache, np.array([0.25, -0.5, 1.0]))
        assert grads.dtype == dtype
        obs, unobs = batches()
        breakdown, grads = loss_and_grads(net, obs, unobs, gamma_reg=0.5, l2_coeff=0.1,
                                          mode=ForwardMode.TRAIN_DROPOUT, rng=RngStream(3))
        assert grads.dtype == dtype
        assert all(type(v) is float for v in vars(breakdown).values())

    def test_l2_term_sums_in_float64(self, dtype):
        net = network(dtype)
        want = sum(np.sum(np.square(a).astype(np.float64)) for a in net.l2_arrays())
        assert l2_reg(net) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_updates_keep_parameters_and_moments(self, dtype, kind):
        net = network(dtype)
        params = net.param_arrays()
        opt = make_optimizer(net, kind, 1e-2)
        obs, unobs = batches()
        for _ in range(3):
            _, grads = loss_and_grads(net, obs, unobs, gamma_reg=0.5, l2_coeff=0.1)
            apply_update(opt, net, grads)
        # In place: the same arrays, in the same dtype.
        assert all(a is b for a, b in zip(net.param_arrays(), params, strict=True))
        assert net.dtype == dtype
        for moment in opt.moments or ():
            assert moment.dtype == dtype


def test_update_rejects_a_gradient_or_moment_of_another_dtype():
    # Unchecked, a float64 gradient or moment was cast silently into a float32 network.
    net = network(np.float32)
    before = [a.copy() for a in net.param_arrays()]
    wide = network(np.float64).zeros_like()
    opt = make_optimizer(net, "adam")
    with pytest.raises(ValueError, match="^gradient dtype float64 differs from the network's "
                                         "float32$"):
        apply_update(opt, net, sparse_gradient(wide))
    opt = dataclasses.replace(opt, moments=(opt.moments[0], wide))
    with pytest.raises(ValueError, match="^Adam moments do not match network parameters"):
        apply_update(opt, net, sparse_gradient(net.zeros_like()))
    assert opt.step == 0
    assert all(np.array_equal(a, b) for a, b in zip(net.param_arrays(), before))
