"""Analytic gradients checked against central finite differences."""

import numpy as np
import pytest

from distilrec import losses
from distilrec.losses import (
    LossBreakdown,
    ObservedBatch,
    RegLossKind,
    UnobservedBatch,
    _bce_terms,
    _reg_grad_wrt_student,
    _reg_terms,
    l2_reg,
    loss_and_grads,
)
from distilrec.network import ForwardMode, NetworkConfig, backprop, forward_cached, init_network
from distilrec.optim import OptimizerState, apply_update, make_optimizer
from distilrec.rng import RngStream

from oracles import finite_difference_grads, max_relative_error


def random_net(rng, dropout=0.0, hidden=(4,)):
    gen = rng.generator
    cfg = NetworkConfig(
        n_users=int(gen.integers(2, 8)),
        n_items=int(gen.integers(2, 8)),
        embedding_dim=int(gen.integers(1, 5)),
        hidden_sizes=hidden,
        dropout_rate=dropout,
    )
    net = init_network(cfg, rng.split("net"))
    # Perturb away from the symmetric init so ReLUs are in mixed states.
    for arr in net.param_arrays():
        arr += gen.normal(scale=0.3, size=arr.shape)
    return net


def random_batches(net, rng, n_obs=5, n_unobs=4):
    gen = rng.generator
    cfg = net.config
    obs = ObservedBatch(
        users=gen.integers(0, cfg.n_users, size=n_obs),
        items=gen.integers(0, cfg.n_items, size=n_obs),
        labels=gen.integers(0, 2, size=n_obs).astype(np.float64),
    )
    unobs = UnobservedBatch(
        users=gen.integers(0, cfg.n_users, size=n_unobs),
        items=gen.integers(0, cfg.n_items, size=n_unobs),
        teacher_targets=gen.uniform(0.05, 0.95, size=n_unobs),
    )
    return obs, unobs


class TestHandDerivedCases:
    def test_output_bias_gradient_single_positive(self):
        net = init_network(NetworkConfig(2, 2, 2, (3,)), RngStream(1))
        for arr in net.param_arrays():
            arr[...] = 0.0
        obs = ObservedBatch(np.array([0]), np.array([0]), np.array([1.0]))
        _, grads = loss_and_grads(net, obs)
        # sigmoid(0) = 0.5, so d(loss)/d(output bias) = 0.5 - 1 = -0.5
        assert grads.biases[-1][0] == pytest.approx(-0.5, abs=1e-12)

    def test_l2_only_gradient_is_two_lambda_theta(self):
        net = init_network(NetworkConfig(3, 3, 2, (3,)), RngStream(2))
        lam = 0.37
        _, grads = loss_and_grads(net, observed=None, l2_coeff=lam)
        np.testing.assert_allclose(grads.user_emb, 2 * lam * net.user_emb, rtol=1e-15)
        np.testing.assert_allclose(grads.weights[0], 2 * lam * net.weights[0], rtol=1e-15)
        for gb in grads.biases:
            assert np.all(gb == 0.0)


class TestFiniteDifferenceOracle:
    def test_teacher_objective_ten_random_nets(self):
        for trial in range(10):
            rng = RngStream(100 + trial)
            net = random_net(rng)
            obs, _ = random_batches(net, rng.split("batch"))
            lam = float(rng.generator.uniform(0.0, 0.1))
            _, grads = loss_and_grads(net, obs, l2_coeff=lam)

            def loss_fn(n):
                bd, _ = loss_and_grads(n, obs, l2_coeff=lam)
                return bd.total

            numeric = finite_difference_grads(loss_fn, net)
            err = max_relative_error(grads.param_arrays(), numeric)
            assert err < 1e-4, f"trial {trial}: max relative error {err}"

    @pytest.mark.parametrize("kind", list(RegLossKind))
    def test_student_objective_all_reg_kinds(self, kind):
        for trial in range(3):
            rng = RngStream(200 + trial)
            net = random_net(rng)
            obs, unobs = random_batches(net, rng.split("batch"))
            gamma = 0.8
            lam = 0.03
            _, grads = loss_and_grads(
                net, obs, unobs, gamma_reg=gamma, reg_kind=kind, l2_coeff=lam
            )

            def loss_fn(n):
                bd, _ = loss_and_grads(
                    n, obs, unobs, gamma_reg=gamma, reg_kind=kind, l2_coeff=lam
                )
                return bd.total

            numeric = finite_difference_grads(loss_fn, net)
            err = max_relative_error(grads.param_arrays(), numeric)
            assert err < 1e-4, f"{kind} trial {trial}: max relative error {err}"

    def test_two_hidden_layers(self):
        rng = RngStream(321)
        net = random_net(rng, hidden=(4, 3))
        obs, unobs = random_batches(net, rng.split("batch"))
        _, grads = loss_and_grads(net, obs, unobs, gamma_reg=0.5,
                                  reg_kind=RegLossKind.JEFFREYS, l2_coeff=0.01)

        def loss_fn(n):
            bd, _ = loss_and_grads(n, obs, unobs, gamma_reg=0.5,
                                   reg_kind=RegLossKind.JEFFREYS, l2_coeff=0.01)
            return bd.total

        err = max_relative_error(grads.param_arrays(), finite_difference_grads(loss_fn, net))
        assert err < 1e-4

    def test_dropout_with_frozen_masks(self):
        # Re-seeding the stream before every evaluation freezes the masks,
        # so finite differences see the same sampled function.
        rng = RngStream(55)
        net = random_net(rng, dropout=0.4)
        obs, unobs = random_batches(net, rng.split("batch"))

        def loss_fn(n):
            bd, _ = loss_and_grads(
                n, obs, unobs, gamma_reg=0.7, reg_kind=RegLossKind.MSE,
                l2_coeff=0.0, mode=ForwardMode.TRAIN_DROPOUT, rng=RngStream(99),
            )
            return bd.total

        _, grads = loss_and_grads(
            net, obs, unobs, gamma_reg=0.7, reg_kind=RegLossKind.MSE,
            l2_coeff=0.0, mode=ForwardMode.TRAIN_DROPOUT, rng=RngStream(99),
        )
        err = max_relative_error(grads.param_arrays(), finite_difference_grads(loss_fn, net))
        assert err < 1e-4


class TestTapeMatchesStoredMaskReference:
    def test_dropout_backprop_bit_exact(self):
        # The reference keeps each layer's pre-activation and float mask, as
        # a tape that stores them would; backprop recovers both from the
        # activations and must agree to the last bit.
        rng = RngStream(77)
        net = random_net(rng, dropout=0.4, hidden=(4, 3))
        users = rng.generator.integers(0, net.config.n_users, size=50)
        items = rng.generator.integers(0, net.config.n_items, size=50)
        dlogits = rng.generator.normal(size=50)
        cache = forward_cached(net, users, items, ForwardMode.TRAIN_DROPOUT, rng.split("dropout"))
        grads = backprop(net, cache, dlogits)

        p = net.config.dropout_rate
        masks_rng = rng.split("dropout")
        x = np.concatenate([net.user_emb[users], net.item_emb[items]], axis=1)
        a, pre_acts, acts, masks = x, [], [], []
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            z = a @ w + b
            mask = (masks_rng.random(z.shape) >= p) / (1.0 - p)
            a = np.maximum(z, 0.0) * mask
            pre_acts.append(z)
            acts.append(a)
            masks.append(mask)
        logits = (a @ net.weights[-1] + net.biases[-1]).reshape(-1)
        np.testing.assert_array_equal(cache.logits, logits)

        g = dlogits.reshape(-1, 1)
        ref_w, ref_b = [acts[-1].T @ g], [g.sum(axis=0)]
        da = g @ net.weights[-1].T
        for k in (1, 0):
            dz = da * masks[k] * (pre_acts[k] > 0.0)
            ref_w.insert(0, (acts[k - 1] if k > 0 else x).T @ dz)
            ref_b.insert(0, dz.sum(axis=0))
            da = dz @ net.weights[k].T
        d = net.config.embedding_dim
        ref_u, ref_i = np.zeros_like(net.user_emb), np.zeros_like(net.item_emb)
        np.add.at(ref_u, users, da[:, :d])
        np.add.at(ref_i, items, da[:, d:])

        assert any(np.any((m == 0.0) & (z > 0.0)) for m, z in zip(masks, pre_acts))
        np.testing.assert_array_equal(grads.user_emb, ref_u)
        np.testing.assert_array_equal(grads.item_emb, ref_i)
        for got, want in zip(grads.weights + grads.biases, ref_w + ref_b):
            np.testing.assert_array_equal(got, want)


def two_pass_reference(net, obs, unobs, gamma, kind, lam):
    """The objective with one forward and one backward per batch, summed."""
    grads = net.zeros_like()
    data_term = distill_term = 0.0
    if obs is not None:
        cache = forward_cached(net, obs.users, obs.items, ForwardMode.DETERMINISTIC)
        data_term = float(np.mean(_bce_terms(cache.probs, obs.labels)))
        part = backprop(net, cache, (cache.probs - obs.labels) / obs.labels.size)
        for g, p in zip(grads.param_arrays(), part.param_arrays()):
            g += p
    if unobs is not None:
        cache = forward_cached(net, unobs.users, unobs.items, ForwardMode.DETERMINISTIC)
        t, s = unobs.teacher_targets, cache.probs
        distill_term = float(np.mean(_reg_terms(kind, t, s)))
        if gamma != 0.0:
            dlogits = gamma * _reg_grad_wrt_student(kind, t, s) * s * (1.0 - s) / t.size
            part = backprop(net, cache, dlogits)
            for g, p in zip(grads.param_arrays(), part.param_arrays()):
                g += p
    for g, a in zip(grads.l2_arrays(), net.l2_arrays()):
        g += 2.0 * lam * a
    return LossBreakdown.compose(data_term, distill_term, l2_reg(net), gamma, lam), grads


class TestOnePassMatchesTwoPassReference:
    @staticmethod
    def setup(seed):
        rng = RngStream(seed)
        net = random_net(rng, dropout=0.3, hidden=(5, 3))
        obs, unobs = random_batches(net, rng.split("batch"), n_obs=40, n_unobs=30)
        return net, obs, unobs

    @staticmethod
    def assert_close(net, obs, unobs, gamma, kind, lam, **kwargs):
        bd, grads = loss_and_grads(net, obs, unobs, gamma_reg=gamma, reg_kind=kind,
                                   l2_coeff=lam, **kwargs)
        ref_bd, ref = two_pass_reference(net, obs, unobs, gamma, kind, lam)
        for name in ("data_term", "distill_term", "reg_term", "total"):
            assert getattr(bd, name) == pytest.approx(getattr(ref_bd, name), rel=1e-10, abs=0.0)
        for a, b in zip(grads.param_arrays(), ref.param_arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-10)
        return bd

    @pytest.mark.parametrize("kind", list(RegLossKind))
    def test_both_batches_all_reg_kinds(self, kind):
        net, obs, unobs = self.setup(400)
        self.assert_close(net, obs, unobs, 0.8, kind, 0.03)

    @pytest.mark.parametrize("kind", list(RegLossKind))
    def test_distill_only(self, kind):
        net, _, unobs = self.setup(401)
        bd = self.assert_close(net, None, unobs, 0.8, kind, 0.0)
        assert bd.data_term == 0.0

    def test_gamma_zero_reports_distill_with_zero_gradient(self):
        net, obs, unobs = self.setup(402)
        bd = self.assert_close(net, obs, unobs, 0.0, RegLossKind.KL, 0.03)
        assert bd.distill_term > 0.0

    def test_l2_only_needs_no_rng_in_dropout_mode(self):
        net, _, _ = self.setup(403)
        self.assert_close(net, None, None, 0.0, RegLossKind.KL, 0.2,
                          mode=ForwardMode.TRAIN_DROPOUT, rng=None)

    def test_observed_only_is_exact(self):
        net, obs, _ = self.setup(404)
        bd, grads = loss_and_grads(net, obs, l2_coeff=0.03)
        ref_bd, ref = two_pass_reference(net, obs, None, 0.0, RegLossKind.KL, 0.03)
        assert bd == ref_bd
        for a, b in zip(grads.param_arrays(), ref.param_arrays()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("with_obs, with_unobs",
                             [(True, False), (False, True), (True, True), (False, False)])
    def test_one_forward_and_one_backward_per_call(self, monkeypatch, with_obs, with_unobs):
        calls = {"forward_cached": 0, "backprop": 0}

        def counted(name):
            fn = getattr(losses, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(losses, name, counted(name))
        net, obs, unobs = self.setup(405)
        loss_and_grads(net, obs if with_obs else None, unobs if with_unobs else None,
                       gamma_reg=0.5, l2_coeff=0.01, mode=ForwardMode.TRAIN_DROPOUT,
                       rng=RngStream(7))
        assert calls == {"forward_cached": 1, "backprop": 1}


class TestOptimizer:
    def test_sgd_rule(self):
        net = init_network(NetworkConfig(1, 1, 1, (1,)), RngStream(1))
        for arr in net.param_arrays():
            arr[...] = 1.0
        g = net.zeros_like()
        for arr in g.param_arrays():
            arr[...] = 1.0
        opt = make_optimizer(net, "sgd", learning_rate=0.1)
        apply_update(opt, net, g)
        for arr in net.param_arrays():
            np.testing.assert_allclose(arr, 0.9, rtol=0, atol=1e-15)

    def test_sgd_zero_gradient_no_change(self):
        net = init_network(NetworkConfig(2, 2, 2, (2,)), RngStream(3))
        before = [a.copy() for a in net.param_arrays()]
        opt = make_optimizer(net, "sgd", learning_rate=0.5)
        apply_update(opt, net, net.zeros_like())
        for a, b in zip(net.param_arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_adam_first_step_magnitude(self):
        net = init_network(NetworkConfig(1, 1, 1, (1,)), RngStream(1))
        for arr in net.param_arrays():
            arr[...] = 1.0
        g = net.zeros_like()
        for arr in g.param_arrays():
            arr[...] = 0.5
        opt = make_optimizer(net, "adam", learning_rate=0.1)
        apply_update(opt, net, g)
        # Bias-corrected first step is lr * g / (|g| + eps) ~= lr.
        for arr in net.param_arrays():
            np.testing.assert_allclose(arr, 1.0 - 0.1, rtol=1e-6)
        assert opt.step == 1

    def test_rejects_nonfinite_grads_and_leaves_net_untouched(self):
        net = init_network(NetworkConfig(2, 2, 2, (2,)), RngStream(3))
        before = [a.copy() for a in net.param_arrays()]
        g = net.zeros_like()
        g.weights[0][0, 0] = np.nan
        opt = make_optimizer(net, "adam", learning_rate=0.1)
        with pytest.raises(ValueError, match="non-finite"):
            apply_update(opt, net, g)
        for a, b in zip(net.param_arrays(), before):
            np.testing.assert_array_equal(a, b)
        assert opt.step == 0

    def test_hand_built_sgd_state_needs_no_moments(self):
        net = init_network(NetworkConfig(1, 1, 1, (1,)), RngStream(1))
        for arr in net.param_arrays():
            arr[...] = 1.0
        g = net.zeros_like()
        for arr in g.param_arrays():
            arr[...] = 1.0
        opt = OptimizerState(kind="sgd", learning_rate=0.1)
        apply_update(opt, net, g)
        for arr in net.param_arrays():
            np.testing.assert_allclose(arr, 0.9, rtol=0, atol=1e-15)
        assert opt.step == 1

    def test_rejects_adam_state_without_moments(self):
        net = init_network(NetworkConfig(2, 2, 2, (2,)), RngStream(3))
        before = [a.copy() for a in net.param_arrays()]
        g = net.zeros_like()
        for arr in g.param_arrays():
            arr[...] = 0.5
        opt = OptimizerState(kind="adam", learning_rate=0.1)
        with pytest.raises(ValueError, match="moments"):
            apply_update(opt, net, g)
        for a, b in zip(net.param_arrays(), before):
            np.testing.assert_array_equal(a, b)
        assert opt.step == 0
        other = make_optimizer(init_network(NetworkConfig(2, 3, 2, (2,)), RngStream(3)), "adam")
        opt.m, opt.v = other.m, other.v
        with pytest.raises(ValueError, match="moments"):
            apply_update(opt, net, g)
        assert opt.step == 0

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("learning_rate", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_learning_rate_must_be_finite_and_positive(self, kind, learning_rate):
        # Unchecked, a NaN rate let the first update change the network and set step to 1.
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            OptimizerState(kind, learning_rate)

    def test_rejects_shape_mismatch(self):
        net = init_network(NetworkConfig(2, 2, 2, (2,)), RngStream(3))
        other = init_network(NetworkConfig(2, 2, 3, (2,)), RngStream(3))
        opt = make_optimizer(net, "sgd", learning_rate=0.1)
        with pytest.raises(ValueError, match="shape"):
            apply_update(opt, net, other.zeros_like())
