"""Analytic gradients checked against central finite differences."""

import numpy as np
import pytest

from distilrec.losses import (
    ObservedBatch,
    RegLossKind,
    UnobservedBatch,
    loss_and_grads,
)
from distilrec.network import ForwardMode, NetworkConfig, init_network
from distilrec.optim import apply_update, make_optimizer
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

    def test_rejects_shape_mismatch(self):
        net = init_network(NetworkConfig(2, 2, 2, (2,)), RngStream(3))
        other = init_network(NetworkConfig(2, 2, 3, (2,)), RngStream(3))
        opt = make_optimizer(net, "sgd", learning_rate=0.1)
        with pytest.raises(ValueError, match="shape"):
            apply_update(opt, net, other.zeros_like())
