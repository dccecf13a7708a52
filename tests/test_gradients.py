"""Analytic gradients checked against central finite differences."""

import contextlib
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from distilrec import losses
from distilrec.losses import (
    LossBreakdown,
    ObservedBatch,
    RegLossKind,
    UnobservedBatch,
    _bce_terms,
    _reg_terms,
    l2_reg,
    loss_and_grads,
)
from distilrec import network, optim
from distilrec.network import (ForwardMode, Network, NetworkConfig, backprop, forward_cached,
                               init_network)
from distilrec.optim import OptimizerState, apply_update, make_optimizer
from distilrec.rng import RngStream

from oracles import (densify, finite_difference_grads, float64_network, max_relative_error,
                     out_of_place_adam, out_of_place_sgd, sparse_gradient)


def random_net(rng, dropout=0.0, hidden=(4,)):
    """A float64 network, as the oracles need, perturbed from its init."""
    gen = rng.generator
    cfg = NetworkConfig(
        n_users=int(gen.integers(2, 8)),
        n_items=int(gen.integers(2, 8)),
        embedding_dim=int(gen.integers(1, 5)),
        hidden_sizes=hidden,
        dropout_rate=dropout,
    )
    net = float64_network(init_network(cfg, rng.split("net")))
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
        # The L2 part of the gradient is what lambda adds to the same observed call.
        net = float64_network(init_network(NetworkConfig(3, 3, 2, (3,)), RngStream(2)))
        obs = ObservedBatch(np.array([0, 2]), np.array([1, 2]), np.array([1.0, 0.0]))
        lam = 0.37
        with_l2 = densify(loss_and_grads(net, obs, l2_coeff=lam)[1], net)
        without = densify(loss_and_grads(net, obs, l2_coeff=0.0)[1], net)
        for g, g0, a in zip(with_l2.l2_arrays(), without.l2_arrays(), net.l2_arrays()):
            np.testing.assert_allclose(g - g0, 2 * lam * a, rtol=1e-12, atol=1e-15)
        for gb, gb0 in zip(with_l2.biases, without.biases):
            np.testing.assert_array_equal(gb, gb0)


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
            err = max_relative_error(densify(grads, net).param_arrays(), numeric)
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
            err = max_relative_error(densify(grads, net).param_arrays(), numeric)
            assert err < 1e-4, f"{kind} trial {trial}: max relative error {err}"

    def test_two_hidden_layers(self):
        rng = RngStream(321)
        net = random_net(rng, hidden=(4, 3))
        obs, unobs = random_batches(net, rng.split("batch"))
        _, grads = loss_and_grads(net, obs, unobs, gamma_reg=0.5,
                                  reg_kind=RegLossKind.MSE, l2_coeff=0.01)

        def loss_fn(n):
            bd, _ = loss_and_grads(n, obs, unobs, gamma_reg=0.5,
                                   reg_kind=RegLossKind.MSE, l2_coeff=0.01)
            return bd.total

        err = max_relative_error(densify(grads, net).param_arrays(),
                                 finite_difference_grads(loss_fn, net))
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
        err = max_relative_error(densify(grads, net).param_arrays(),
                                 finite_difference_grads(loss_fn, net))
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
        d = net.config.embedding_dim
        proj_u, _, rows_u = network._projected(net.user_emb, users, net.weights[0][:d])
        proj_i, _, rows_i = network._projected(net.item_emb, items, net.weights[0][d:])
        x = np.concatenate([net.user_emb[users], net.item_emb[items]], axis=1)
        a, pre_acts, acts, masks = None, [], [], []
        for k, (w, b) in enumerate(zip(net.weights[:-1], net.biases[:-1])):
            z = (proj_u[rows_u] + proj_i[rows_i] if k == 0 else a @ w) + b
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
        ref_u, ref_i = np.zeros_like(net.user_emb), np.zeros_like(net.item_emb)
        np.add.at(ref_u, users, da[:, :d])
        np.add.at(ref_i, items, da[:, d:])

        assert any(np.any((m == 0.0) & (z > 0.0)) for m, z in zip(masks, pre_acts))
        dense = densify(grads, net)
        np.testing.assert_array_equal(dense.user_emb, ref_u)
        np.testing.assert_array_equal(dense.item_emb, ref_i)
        for got, want in zip(grads.weights + grads.biases, ref_w + ref_b):
            np.testing.assert_array_equal(got, want)


def two_pass_reference(net, obs, unobs, gamma, kind, lam):
    """The objective with one forward and one backward per batch, summed."""
    cache = forward_cached(net, obs.users, obs.items, ForwardMode.DETERMINISTIC)
    data_term = float(np.mean(_bce_terms(cache.probs, obs.labels)))
    grads = densify(backprop(net, cache, (cache.probs - obs.labels) / obs.labels.size), net)
    distill_term = 0.0
    if unobs is not None:
        cache = forward_cached(net, unobs.users, unobs.items, ForwardMode.DETERMINISTIC)
        values, dlogit = _reg_terms(kind, unobs.teacher_targets, cache.probs)
        distill_term = float(np.mean(values))
        part = densify(backprop(net, cache, gamma * dlogit / values.size), net)
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
    def assert_close(net, obs, unobs, gamma, kind, lam):
        bd, grads = loss_and_grads(net, obs, unobs, gamma_reg=gamma, reg_kind=kind, l2_coeff=lam)
        grads = densify(grads, net)
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

    def test_observed_only_is_exact(self):
        net, obs, _ = self.setup(404)
        bd, grads = loss_and_grads(net, obs, l2_coeff=0.03)
        grads = densify(grads, net)
        ref_bd, ref = two_pass_reference(net, obs, None, 0.0, RegLossKind.KL, 0.03)
        assert bd == ref_bd
        for a, b in zip(grads.param_arrays(), ref.param_arrays()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("with_unobs", [False, True])
    def test_one_forward_and_one_backward_per_call(self, monkeypatch, with_unobs):
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
        loss_and_grads(net, obs, unobs if with_unobs else None,
                       gamma_reg=0.5 if with_unobs else 0.0, l2_coeff=0.01,
                       mode=ForwardMode.TRAIN_DROPOUT, rng=RngStream(7))
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
        apply_update(opt, net, sparse_gradient(g))
        for arr in net.param_arrays():
            np.testing.assert_allclose(arr, 0.9, rtol=0, atol=np.finfo(arr.dtype).eps)

    def test_sgd_zero_gradient_no_change(self):
        net = init_network(NetworkConfig(2, 2, 2, (2,)), RngStream(3))
        before = [a.copy() for a in net.param_arrays()]
        opt = make_optimizer(net, "sgd", learning_rate=0.5)
        apply_update(opt, net, sparse_gradient(net.zeros_like()))
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
        apply_update(opt, net, sparse_gradient(g))
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
            apply_update(opt, net, sparse_gradient(g))
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
        opt = OptimizerState(learning_rate=0.1)
        apply_update(opt, net, sparse_gradient(g))
        for arr in net.param_arrays():
            np.testing.assert_allclose(arr, 0.9, rtol=0, atol=np.finfo(arr.dtype).eps)
        assert opt.step == 1

    def test_rejects_adam_state_without_moments(self):
        net = init_network(NetworkConfig(2, 2, 2, (2,)), RngStream(3))
        before = [a.copy() for a in net.param_arrays()]
        g = net.zeros_like()
        for arr in g.param_arrays():
            arr[...] = 0.5
        other = make_optimizer(init_network(NetworkConfig(2, 3, 2, (2,)), RngStream(3)), "adam")
        opt = OptimizerState(learning_rate=0.1, moments=other.moments)
        with pytest.raises(ValueError, match="moments"):
            apply_update(opt, net, sparse_gradient(g))
        assert opt.step == 0
        with pytest.raises(ValueError, match="moments"):
            OptimizerState(learning_rate=0.1, moments=(net.zeros_like(),))
        for a, b in zip(net.param_arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_moments_replaced_after_construction_rejected(self):
        # The state is frozen: a field cannot be assigned, and a replaced state is checked
        # by the rule that built the first one.
        net = init_network(NetworkConfig(2, 2, 2, (2,)), RngStream(3))
        opt = make_optimizer(net, "adam")
        for field, value in (("moments", None), ("step", 1), ("learning_rate", 0.5)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(opt, field, value)
        for moments, message in (("adam", "^moments must be a tuple, got 'adam'$"),
                                 ((net.zeros_like(),), "^moments must hold 2 Networks, got 1$")):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(opt, moments=moments)
        assert opt.step == 0 and len(opt.moments) == 2 and opt.learning_rate == 1e-3

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("field, value", [
        ("step", -1), ("step", 2.5), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("learning_rate", "0.1"), ("learning_rate", -1.0),
        ("moments", "adam")])
    def test_attempted_assignment_leaves_the_next_update_as_it_was(self, kind, field, value):
        # Were the fields assignable, each value would reach the update: NaN parameters, a
        # bare numpy type error, gradient ascent, a fractional step or a late moments error.
        config = NetworkConfig(3, 4, 2, (2,))
        grads = TestInPlaceUpdateIsTheOutOfPlaceOne.gradient(init_network(config, RngStream(3)),
                                                             np.random.default_rng(2))
        results = []
        for attempt in (False, True):
            net = init_network(config, RngStream(3))
            opt = make_optimizer(net, kind, learning_rate=0.1)
            if attempt:
                with contextlib.suppress(dataclasses.FrozenInstanceError):
                    setattr(opt, field, value)
            apply_update(opt, net, sparse_gradient(grads))
            results.append((opt.step, opt.learning_rate, net.param_arrays()
                            + [a for m in opt.moments or () for a in m.param_arrays()]))
        (step, lr, arrays), (step_after, lr_after, arrays_after) = results
        assert (step_after, lr_after) == (step, lr) == (1, 0.1)
        for a, b in zip(arrays, arrays_after, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_replaced_learning_rate_keeps_moments_and_step(self):
        net = init_network(NetworkConfig(3, 4, 2, (2,)), RngStream(3))
        opt, gen = make_optimizer(net, "adam", learning_rate=0.1), np.random.default_rng(2)
        grads = TestInPlaceUpdateIsTheOutOfPlaceOne.gradient(net, gen)
        apply_update(opt, net, sparse_gradient(grads))
        params = [a.copy() for a in net.param_arrays()]
        moments = [[a.copy() for a in m.param_arrays()] for m in opt.moments]
        faster = dataclasses.replace(opt, learning_rate=0.5)
        assert faster.moments is opt.moments and faster.step == 1 and faster.learning_rate == 0.5
        grads = TestInPlaceUpdateIsTheOutOfPlaceOne.gradient(net, gen)
        apply_update(faster, net, sparse_gradient(grads))
        for p, g, m, v in zip(params, grads.param_arrays(), *moments):
            out_of_place_adam(p, g, m, v, 0.5, 2)
        assert faster.step == 2
        got = (net.param_arrays() + faster.moments[0].param_arrays()
               + faster.moments[1].param_arrays())
        for a, b in zip(got, params + moments[0] + moments[1], strict=True):
            assert np.array_equal(a, b)
        for change, message in (
                ({"learning_rate": float("nan")},
                 r"^learning_rate must be a finite real in \(0, inf\), got nan$"),
                ({"step": -1}, "^step must be >= 0, got -1$")):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(faster, **change)

    def test_unknown_kind_rejected(self):
        net = init_network(NetworkConfig(1, 1, 1, (1,)), RngStream(1))
        # The message named no argument; "Adam" is a kind only by case.
        for kind in ("rmsprop", "Adam"):
            with pytest.raises(ValueError, match=f"^kind must be 'sgd' or 'adam', got '{kind}'$"):
                make_optimizer(net, kind, 0.1)

    def test_rejects_shape_mismatch(self):
        net = init_network(NetworkConfig(2, 2, 2, (2,)), RngStream(3))
        other = init_network(NetworkConfig(2, 2, 3, (2,)), RngStream(3))
        opt = make_optimizer(net, "sgd", learning_rate=0.1)
        with pytest.raises(ValueError, match="shape"):
            apply_update(opt, net, sparse_gradient(other.zeros_like()))

    def test_rejects_config_differing_only_in_dropout_rate(self):
        # Shapes alone once decided; a gradient or moment of another dropout_rate passed.
        net = init_network(NetworkConfig(2, 2, 2, (2,)), RngStream(3))
        before = [a.copy() for a in net.param_arrays()]
        other = init_network(NetworkConfig(2, 2, 2, (2,), dropout_rate=0.5), RngStream(3))
        opt = make_optimizer(net, "adam", learning_rate=0.1)
        with pytest.raises(ValueError, match="dropout_rate must match"):
            apply_update(opt, net, sparse_gradient(other.zeros_like()))
        for k in (0, 1):
            opt = make_optimizer(net, "adam", learning_rate=0.1)
            moments = list(opt.moments)
            moments[k] = other.zeros_like()
            opt = dataclasses.replace(opt, moments=tuple(moments))
            with pytest.raises(ValueError, match="moments"):
                apply_update(opt, net, sparse_gradient(net.zeros_like()))
            assert opt.step == 0
        for a, b in zip(net.param_arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_overflowing_update_raises_after_applying_it(self):
        # Finite parameters and gradient can still overflow; the update is not undone.
        net = init_network(NetworkConfig(1, 1, 1, (1,)), RngStream(1))
        g = net.zeros_like()
        for p, d in zip(net.param_arrays(), g.param_arrays()):
            p[...], d[...] = np.finfo(p.dtype).max, -np.finfo(p.dtype).max
        opt = make_optimizer(net, "sgd", learning_rate=1.0)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            apply_update(opt, net, sparse_gradient(g))
        assert all(np.all(a == np.inf) for a in net.param_arrays())
        assert opt.step == 1


class TestInPlaceUpdateIsTheOutOfPlaceOne:
    """50 steps of ``apply_update`` give the bits of the out-of-place expressions."""

    @staticmethod
    def gradient(net, gen):
        """Normal draws at one scale per array, from 1e-6 to 10, with about half of the
        entries zero, as rows a step does not touch are."""
        g = net.zeros_like()
        for arr in g.param_arrays():
            arr[...] = gen.normal(size=arr.shape) * 10.0 ** gen.uniform(-6, 1)
            arr[gen.random(arr.shape) < 0.5] = 0.0
        return g

    def run(self, kind, config, learning_rate, reference):
        net = init_network(config, RngStream(1))
        opt, gen = make_optimizer(net, kind, learning_rate), np.random.default_rng(2)
        params = [a.copy() for a in net.param_arrays()]
        moments = [[np.zeros_like(a) for a in params] for _ in range(2)]
        for step in range(1, 51):
            grads = self.gradient(net, gen)
            apply_update(opt, net, sparse_gradient(grads))
            for p, g, m, v in zip(params, grads.param_arrays(), *moments):
                reference(p, g, m, v, learning_rate, step)
            got = net.param_arrays()
            if opt.moments is not None:
                got += opt.moments[0].param_arrays() + opt.moments[1].param_arrays()
                want = params + moments[0] + moments[1]
            else:
                want = params
            assert opt.step == step
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b)

    CONFIGS = {"coat": (NetworkConfig(290, 300, 64, (64, 32), dropout_rate=0.1), 1e-3),
               "one-row-width-one": (NetworkConfig(1, 1, 1, (1,)), 0.3)}

    @pytest.mark.parametrize("name", CONFIGS)
    def test_adam(self, name):
        self.run("adam", *self.CONFIGS[name], out_of_place_adam)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_sgd(self, name):
        self.run("sgd", *self.CONFIGS[name], out_of_place_sgd)


# The users span three update blocks, the last one partial.
SPARSE_CONFIG = NetworkConfig(2 * optim.ROW_BLOCK + 37, 9, 4, (6, 3), dropout_rate=0.2)


def sparse_config_network(dtype) -> Network:
    net = init_network(SPARSE_CONFIG, RngStream(1))
    return Network.from_arrays(SPARSE_CONFIG, [a.astype(dtype) for a in net.param_arrays()])


def sparse_config_batch(gen, step) -> ObservedBatch:
    """40 rows: 20 distinct users drawn over every block, each twice, and one item."""
    users = np.tile(gen.choice(SPARSE_CONFIG.n_users, 20, replace=False), 2)
    return ObservedBatch(users, np.full(40, step % SPARSE_CONFIG.n_items),
                         gen.integers(0, 2, 40).astype(np.float64))


def state_bytes(net, opt) -> list[bytes]:
    return [a.tobytes() for a in net.param_arrays()
            + [a for m in opt.moments or () for a in m.param_arrays()]] + [opt.step]


class TestRowSparseStepIsTheDenseOne:
    """Each step's row-sparse gradient and row-block update give the bits of the whole-array
    step: the gradient densified, then the out-of-place update of every array."""

    @pytest.mark.parametrize("lam", [0.0, 0.05], ids=["no-l2", "l2"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_hundred_steps(self, kind, dtype, lam):
        net = sparse_config_network(dtype)
        opt = make_optimizer(net, kind, 0.05)
        params = [a.copy() for a in net.param_arrays()]
        moments = [[np.zeros_like(a) for a in params] for _ in range(2)]
        reference = out_of_place_adam if kind == "adam" else out_of_place_sgd
        gen, dropout = np.random.default_rng(3), RngStream(4)
        for step in range(1, 101):
            _, grads = loss_and_grads(net, sparse_config_batch(gen, step), l2_coeff=lam,
                                      mode=ForwardMode.TRAIN_DROPOUT, rng=dropout)
            assert len(grads.item_rows) == 1 and len(grads.user_rows) == 20
            dense = densify(grads, net)
            apply_update(opt, net, grads)
            for p, g, m, v in zip(params, dense.param_arrays(), *moments):
                reference(p, g, m, v, 0.05, step)
            got = net.param_arrays()
            want = params
            if kind == "adam":
                got += opt.moments[0].param_arrays() + opt.moments[1].param_arrays()
                want = params + moments[0] + moments[1]
            assert opt.step == step
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), f"step {step}"


class TestFoldedL2Faults:
    """The L2 term the update adds to every table row is checked with the gradient."""

    @staticmethod
    def stepped():
        """A float32 network and its Adam state after one step, so the moments are not zero."""
        net = sparse_config_network(np.float32)
        opt = make_optimizer(net, "adam", 0.05)
        _, grads = loss_and_grads(net, sparse_config_batch(np.random.default_rng(3), 1),
                                  l2_coeff=0.05)
        apply_update(opt, net, grads)
        return net, opt

    def assert_rejected_unchanged(self, net, opt, grads):
        before = state_bytes(net, opt)
        with pytest.raises(ValueError, match="^non-finite gradient; network left unchanged$"):
            apply_update(opt, net, grads)
        assert state_bytes(net, opt) == before

    def test_overflowing_l2_term_of_an_untouched_row(self):
        # 2 * 1e36 * 1e3 is past float32's range; the row is in the last block and untouched.
        net, opt = self.stepped()
        net.user_emb[-1, 0] = 1e3
        grads = sparse_gradient(net.zeros_like(), l2_coeff=1e36)
        assert grads.user_rows.size == 0
        with np.errstate(over="ignore"):
            assert not np.isfinite(2.0 * 1e36 * net.user_emb[-1, 0])
        self.assert_rejected_unchanged(net, opt, grads)

    def test_nan_in_a_touched_row(self):
        net, opt = self.stepped()
        _, grads = loss_and_grads(net, sparse_config_batch(np.random.default_rng(4), 2),
                                  l2_coeff=0.05)
        grads.user_values[-1, -1] = np.nan
        self.assert_rejected_unchanged(net, opt, grads)

    def test_touched_row_whose_value_and_l2_term_overflow_together(self):
        # Each part is finite; their sum, the row's gradient, is not.
        net, opt = self.stepped()
        _, grads = loss_and_grads(net, sparse_config_batch(np.random.default_rng(4), 2),
                                  l2_coeff=0.5)
        row = grads.item_rows[0]
        net.item_emb[row, 0] = 3e38
        grads.item_values[0, 0] = 3e38
        self.assert_rejected_unchanged(net, opt, grads)

    def test_non_finite_parameter_raises_after_every_block(self):
        # The first block overflows; the last block, the item table and the dense layers are
        # still updated, as the whole-array update would have done.
        net = sparse_config_network(np.float32)
        dense = net.zeros_like()
        dense.user_emb[0, 0] = -np.finfo(np.float32).max
        net.user_emb[0, 0] = np.finfo(np.float32).max
        for g in (dense.user_emb[-1], dense.item_emb[3], *dense.weights, *dense.biases):
            g[...] = 0.5
        want = [a.copy() for a in net.param_arrays()]
        with np.errstate(over="ignore"):
            for p, g in zip(want, dense.param_arrays()):
                out_of_place_sgd(p, g, None, None, 1.0, 1)
        opt = make_optimizer(net, "sgd", learning_rate=1.0)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            apply_update(opt, net, sparse_gradient(dense))
        assert net.user_emb[0, 0] == np.inf and opt.step == 1
        for a, b in zip(net.param_arrays(), want, strict=True):
            assert a.tobytes() == b.tobytes()


def test_a_step_makes_no_array_the_size_of_a_table():
    # One table dwarfs the batch.  The whole-table gradient, its L2 term, l2_reg's squares,
    # the finite masks and Adam's scratch each made such an array, three or more per step.
    net = init_network(NetworkConfig(200_000, 50, 16, (8,), dropout_rate=0.1), RngStream(1))
    opt = make_optimizer(net, "adam")
    gen = np.random.default_rng(0)
    batch = ObservedBatch(gen.integers(0, 200_000, 256), gen.integers(0, 50, 256),
                          gen.integers(0, 2, 256).astype(np.float64))
    tracemalloc.start()
    try:
        _, grads = loss_and_grads(net, batch, l2_coeff=1e-6, mode=ForwardMode.TRAIN_DROPOUT,
                                  rng=RngStream(2))
        apply_update(opt, net, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert opt.step == 1
    assert peak < net.user_emb.nbytes / 4


# Adam steps at Coat shape (290 x 300, embedding 64, hidden (64, 32)) at two batch
# sizes, in the network dtype named by the first argument, printing one hash of every
# gradient and every updated parameter.
STEPS_SCRIPT = """
import hashlib
import sys
from distilrec.losses import ObservedBatch, loss_and_grads
from distilrec.network import ForwardMode, Network, NetworkConfig, init_network
from distilrec.optim import apply_update, make_optimizer
from distilrec.rng import RngStream

digest = hashlib.sha256()
for rows in (986, 2010):
    net = init_network(NetworkConfig(290, 300, 64, (64, 32), dropout_rate=0.1), RngStream(1))
    net = Network.from_arrays(net.config, [a.astype(sys.argv[1]) for a in net.param_arrays()])
    opt, draws = make_optimizer(net), RngStream(2).generator
    for step in range(3):
        batch = ObservedBatch(draws.integers(0, 290, rows), draws.integers(0, 300, rows),
                              draws.integers(0, 2, rows).astype(float))
        _, grads = loss_and_grads(net, batch, mode=ForwardMode.TRAIN_DROPOUT, rng=RngStream(3))
        apply_update(opt, net, grads)
        for a in [grads.user_rows, grads.item_rows] + grads.arrays() + net.param_arrays():
            digest.update(a.tobytes())
print(digest.hexdigest())
"""


class TestBitsAtAnyBlasThreadCount:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_steps_hash_alike_at_one_and_two_threads(self, dtype):
        # A single product over 986 or 2,010 rows was rounded differently at one
        # and two OpenBLAS threads, so the weight gradients' bits split.
        src = Path(__file__).resolve().parents[1] / "src"
        hashes = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads, "PYTHONPATH": str(src)}
            hashes.append(subprocess.run([sys.executable, "-c", STEPS_SCRIPT, dtype], env=env,
                                         check=True, capture_output=True, text=True,
                                         timeout=120).stdout)
        assert len(hashes[0]) == 65 and hashes[0] == hashes[1]

    @pytest.mark.parametrize("rows", [0, 1, 255, 256])
    def test_up_to_one_block_is_the_single_product_bit_for_bit(self, rows):
        gen = np.random.default_rng(rows)
        a, b = gen.normal(size=(rows, 9)), gen.normal(size=(rows, 5))
        np.testing.assert_array_equal(network._row_sum_product(a, b), a.T @ b)

    def test_longer_sums_are_the_blocks_in_row_order(self):
        gen = np.random.default_rng(0)
        a, b = gen.normal(size=(700, 9)), gen.normal(size=(700, 5))
        expected = a[:256].T @ b[:256]
        expected += a[256:512].T @ b[256:512]
        expected += a[512:].T @ b[512:]
        np.testing.assert_array_equal(network._row_sum_product(a, b), expected)
