import math

import numpy as np
import pytest

from distilrec.data import Source, interaction, pack
from distilrec.losses import (
    ClampPolicy,
    LossBreakdown,
    NonFiniteLossError,
    ObservedBatch,
    RegLossKind,
    UnobservedBatch,
    bce,
    l2_reg,
    loss_and_grads,
    reg_loss,
    weighted_empirical_risk,
)
from distilrec.network import NetworkConfig, init_network
from distilrec.rng import RngStream

LN2 = math.log(2.0)
KL_09_05 = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)


def zero_net(n_users=2, n_items=2):
    net = init_network(NetworkConfig(n_users, n_items, 2, (3,)), RngStream(0))
    for arr in net.param_arrays():
        arr[...] = 0.0
    return net


class TestBce:
    def test_half_positive_is_ln2(self):
        assert bce(0.5, 1) == pytest.approx(LN2, abs=1e-12)

    def test_confident_wrong(self):
        assert bce(0.9, 0) == pytest.approx(-math.log(0.1), abs=1e-12)

    def test_perfect_prediction_clamps_to_near_zero(self):
        assert bce(1.0, 1) == pytest.approx(0.0, abs=1e-6)
        assert bce(0.0, 0) == pytest.approx(0.0, abs=1e-6)


class TestWeightedEmpiricalRisk:
    def test_uniform_weights_is_mean(self):
        losses = [1.0, 2.0, 3.0, 4.0]
        w = [0.25] * 4
        assert weighted_empirical_risk(losses, w) == pytest.approx(2.5)

    def test_zero_weights(self):
        assert weighted_empirical_risk([5.0, 7.0], [0.0, 0.0]) == 0.0

    def test_direct_arithmetic(self):
        assert weighted_empirical_risk([1.0, 3.0], [0.25, 0.75]) == pytest.approx(2.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            weighted_empirical_risk([1.0], [0.5, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_empirical_risk([1.0], [-0.1])


class TestL2Reg:
    def test_zero_net(self):
        assert l2_reg(zero_net()) == 0.0

    def test_single_weight(self):
        net = zero_net()
        net.weights[0][0, 0] = 2.0
        assert l2_reg(net) == 4.0

    def test_biases_excluded(self):
        net = zero_net()
        for b in net.biases:
            b[...] = 100.0
        assert l2_reg(net) == 0.0

    def test_quadratic_homogeneity(self):
        net = init_network(NetworkConfig(3, 3, 2, (3,)), RngStream(5))
        base = l2_reg(net)
        for arr in (net.user_emb, net.item_emb, *net.weights):
            arr *= 3.0
        assert l2_reg(net) == pytest.approx(9.0 * base, rel=1e-12)


class TestRegLoss:
    @pytest.mark.parametrize("kind", list(RegLossKind))
    def test_zero_at_identity(self, kind):
        gen = np.random.default_rng(42)
        t = gen.uniform(1e-6, 1 - 1e-6, size=10_000)
        from distilrec.losses import _reg_terms

        vals = _reg_terms(kind, t, t, ClampPolicy())
        assert np.all(vals >= 0.0)
        np.testing.assert_allclose(vals, 0.0, atol=1e-12)

    def test_kl_closed_form(self):
        assert reg_loss(RegLossKind.KL, 0.9, 0.5) == pytest.approx(KL_09_05, abs=1e-12)
        assert KL_09_05 == pytest.approx(0.368064, abs=5e-7)

    def test_jeffreys_symmetry(self):
        gen = np.random.default_rng(7)
        for _ in range(200):
            t, s = gen.uniform(0.01, 0.99, size=2)
            assert reg_loss(RegLossKind.JEFFREYS, t, s) == reg_loss(RegLossKind.JEFFREYS, s, t)

    def test_kl_nonnegative(self):
        gen = np.random.default_rng(8)
        t = gen.uniform(0, 1, size=5000)
        s = gen.uniform(0, 1, size=5000)
        from distilrec.losses import _reg_terms

        assert np.all(_reg_terms(RegLossKind.KL, t, s, ClampPolicy()) >= 0.0)

    def test_clamp_keeps_boundary_finite(self):
        # Unclamped KL(1, s -> 0) diverges; the clamp keeps it finite.
        v = reg_loss(RegLossKind.KL, 1.0, 0.0)
        assert np.isfinite(v)
        v = reg_loss(RegLossKind.JEFFREYS, 1.0, 0.0)
        assert np.isfinite(v)

    def test_mse_below_mae_for_probability_gaps(self):
        gen = np.random.default_rng(9)
        t = gen.uniform(0, 1, size=2000)
        s = gen.uniform(0, 1, size=2000)
        from distilrec.losses import _reg_terms

        mse = _reg_terms(RegLossKind.MSE, t, s, ClampPolicy())
        mae = _reg_terms(RegLossKind.MAE, t, s, ClampPolicy())
        assert np.all(mse <= mae + 1e-15)


class TestLossBreakdown:
    def test_recomposition_exact(self):
        gen = np.random.default_rng(11)
        for _ in range(1000):
            d, r, g = gen.uniform(0, 2, size=3)
            dist = gen.uniform(0, 2)
            lam = gen.uniform(0, 1)
            bd = LossBreakdown.compose(d, dist, r, gamma_reg=g, lam=lam)
            assert bd.total == d + g * dist + lam * r

    def test_nonfinite_total_raises_with_term(self):
        with pytest.raises(NonFiniteLossError) as exc:
            LossBreakdown.compose(float("nan"), 0.0, 0.0, 0.0, 0.0)
        assert exc.value.term == "data_term"


def observed(*interactions):
    return ObservedBatch(*pack(list(interactions)))


def unobserved(pairs, targets):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return UnobservedBatch(pairs[:, 0], pairs[:, 1], np.asarray(targets, dtype=np.float64))


class TestTeacherLoss:
    """The teacher objective: ``loss_and_grads`` with no unobserved batch."""

    def test_single_sample_ln2(self):
        net = zero_net()
        batch = observed(interaction(0, 0, 5, Source.UNIFORM))
        bd, _ = loss_and_grads(net, batch, l2_coeff=0.0)
        assert bd.total == pytest.approx(LN2, abs=1e-12)
        assert bd.distill_term == 0.0

    def test_zero_net_reg_term_zero(self):
        net = zero_net()
        batch = observed(interaction(0, 0, 5, Source.UNIFORM), interaction(1, 1, 2, Source.UNIFORM))
        bd, _ = loss_and_grads(net, batch, l2_coeff=1.0)
        assert bd.reg_term == 0.0
        assert bd.total == pytest.approx(LN2, abs=1e-12)

    def test_lambda_scaling(self):
        net = init_network(NetworkConfig(3, 3, 2, (3,)), RngStream(5))
        batch = observed(interaction(0, 0, 5, Source.UNIFORM), interaction(1, 2, 3, Source.UNIFORM))
        bd1, _ = loss_and_grads(net, batch, l2_coeff=0.5)
        bd2, _ = loss_and_grads(net, batch, l2_coeff=1.0)
        assert bd1.data_term == bd2.data_term
        assert bd1.reg_term == bd2.reg_term
        assert bd2.total - bd2.data_term == pytest.approx(2 * (bd1.total - bd1.data_term))

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="nonempty"):
            loss_and_grads(zero_net(), observed(), l2_coeff=0.0)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="ObservedBatch: 1 labels for 2 users"):
            ObservedBatch(np.array([0, 1]), np.array([0, 1]), np.array([1.0]))


class TestStudentLoss:
    """The student objective: ``loss_and_grads`` with a distillation term."""

    def test_closed_form_sum(self):
        # Observed (p=0.5, y=1) and one unobserved pair with KL(0.9, 0.5).
        net = zero_net()
        bd, _ = loss_and_grads(
            net,
            observed(interaction(0, 0, 5, Source.BIASED)),
            unobserved([(0, 1)], [0.9]),
            gamma_reg=1.0,
            reg_kind=RegLossKind.KL,
            l2_coeff=0.0,
        )
        assert bd.total == pytest.approx(LN2 + KL_09_05, abs=1e-12)
        assert bd.total == pytest.approx(1.061211, abs=5e-7)

    def test_gamma_zero_matches_teacher_form(self):
        net = init_network(NetworkConfig(3, 3, 2, (3,)), RngStream(5))
        obs = observed(interaction(0, 0, 5, Source.UNIFORM), interaction(1, 2, 3, Source.UNIFORM))
        bd_s, _ = loss_and_grads(net, obs, unobserved([], []), gamma_reg=0.0,
                                 reg_kind=RegLossKind.KL, l2_coeff=0.3)
        bd_t, _ = loss_and_grads(net, obs, l2_coeff=0.3)
        assert bd_s.total == pytest.approx(bd_t.total, rel=1e-15)

    def test_matching_outputs_zero_distill(self):
        net = zero_net()
        bd, _ = loss_and_grads(
            net, observed(interaction(0, 0, 1, Source.BIASED)), unobserved([(0, 1), (1, 0)], [0.5, 0.5]),
            gamma_reg=5.0, reg_kind=RegLossKind.JEFFREYS, l2_coeff=0.0,
        )
        assert bd.distill_term == pytest.approx(0.0, abs=1e-12)

    def test_target_length_mismatch(self):
        with pytest.raises(ValueError, match="UnobservedBatch: 1 teacher_targets for 2 users"):
            UnobservedBatch(np.array([0, 1]), np.array([1, 1]), np.array([0.5]))

    def test_empty_observed_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            loss_and_grads(zero_net(), observed(), unobserved([(0, 1)], [0.5]),
                           gamma_reg=1.0, reg_kind=RegLossKind.KL, l2_coeff=0.0)


class TestLossAndGradsErrors:
    def test_nonfinite_parameter_loss_raises_with_term(self):
        net = zero_net()
        net.weights[0][0, 0] = np.inf
        obs = ObservedBatch(np.array([0]), np.array([0]), np.array([1.0]))
        with pytest.raises(NonFiniteLossError) as exc:
            loss_and_grads(net, obs, l2_coeff=1.0)
        assert exc.value.term in ("reg_term", "total", "data_term")

    def test_requires_some_objective(self):
        with pytest.raises(ValueError):
            loss_and_grads(zero_net(), observed=None, unobserved=None, l2_coeff=0.0)
