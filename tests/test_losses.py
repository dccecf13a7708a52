import dataclasses
import math
import re

import numpy as np
import pytest

from distilrec import losses
from distilrec.data import Source, pack
from distilrec.losses import (
    CLAMP_EPS,
    LossBreakdown,
    NonFiniteLossError,
    ObservedBatch,
    RegLossKind,
    UnobservedBatch,
    _reg_terms,
    l2_reg,
    loss_and_grads,
)
from distilrec.metrics import bce_eval
from distilrec.network import NetworkConfig, init_network
from distilrec.rng import RngStream

from oracles import densify, interaction

LN2 = math.log(2.0)
KL_09_05 = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)


def zero_net(n_users=2, n_items=2):
    net = init_network(NetworkConfig(n_users, n_items, 2, (3,)), RngStream(0))
    for arr in net.param_arrays():
        arr[...] = 0.0
    return net


def reg_one(kind, p_teacher, p_student):
    """``_reg_terms``' value for one (teacher, student) pair."""
    return _reg_terms(kind, np.array([p_teacher]), np.array([p_student]))[0][0]


def closed_form(kind, t, s):
    """Each discrepancy's value on clamped inputs, written out directly."""
    t = np.clip(t, CLAMP_EPS, 1.0 - CLAMP_EPS)
    s = np.clip(s, CLAMP_EPS, 1.0 - CLAMP_EPS)
    kl_ts = t * (np.log(t) - np.log(s)) + (1.0 - t) * (np.log1p(-t) - np.log1p(-s))
    return {RegLossKind.MSE: np.square(t - s), RegLossKind.KL: kl_ts}[kind]


class TestBce:
    def test_half_positive_is_ln2(self):
        assert bce_eval([0.5], [1]) == pytest.approx(LN2, abs=1e-12)

    def test_confident_wrong(self):
        assert bce_eval([0.9], [0]) == pytest.approx(-math.log(0.1), abs=1e-12)

    def test_perfect_prediction_clamps_to_near_zero(self):
        assert bce_eval([1.0], [1]) == pytest.approx(0.0, abs=1e-6)
        assert bce_eval([0.0], [0]) == pytest.approx(0.0, abs=1e-6)


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
        # Each entry of 3a and its square round once in the network's dtype.
        assert l2_reg(net) == pytest.approx(9.0 * base, rel=4 * np.finfo(net.dtype).eps)


class TestRegLoss:
    @pytest.mark.parametrize("kind", list(RegLossKind))
    def test_zero_at_identity(self, kind):
        gen = np.random.default_rng(42)
        t = gen.uniform(1e-6, 1 - 1e-6, size=10_000)
        vals, _ = _reg_terms(kind, t, t)
        assert np.all(vals >= 0.0)
        np.testing.assert_allclose(vals, 0.0, atol=1e-12)

    def test_kl_closed_form(self):
        assert reg_one(RegLossKind.KL, 0.9, 0.5) == pytest.approx(KL_09_05, abs=1e-12)
        assert KL_09_05 == pytest.approx(0.368064, abs=5e-7)

    def test_kl_nonnegative(self):
        gen = np.random.default_rng(8)
        t = gen.uniform(0, 1, size=5000)
        s = gen.uniform(0, 1, size=5000)
        assert np.all(_reg_terms(RegLossKind.KL, t, s)[0] >= 0.0)

    def test_clamp_keeps_boundary_finite(self):
        # Unclamped KL(1, s -> 0) diverges; the clamp keeps it finite.
        v = reg_one(RegLossKind.KL, 1.0, 0.0)
        assert np.isfinite(v)

    @pytest.mark.parametrize("kind", list(RegLossKind))
    def test_values_equal_closed_forms_bit_for_bit(self, kind):
        gen = np.random.default_rng(10)
        t = np.concatenate([gen.uniform(0, 1, size=2000), [0.0, 1.0, 1e-9, 0.5]])
        s = np.concatenate([gen.uniform(0, 1, size=2000), [1.0, 0.0, 0.5, 1e-9]])
        np.testing.assert_array_equal(_reg_terms(kind, t, s)[0], closed_form(kind, t, s))

    @pytest.mark.parametrize("kind", list(RegLossKind))
    def test_dlogit_matches_central_difference_in_logit(self, kind):
        gen = np.random.default_rng(12)
        t = np.concatenate([gen.uniform(0.05, 0.45, size=200), gen.uniform(0.55, 0.95, size=200)])
        s = np.concatenate([gen.uniform(0.55, 0.95, size=200), gen.uniform(0.05, 0.45, size=200)])
        z, h = np.log(s) - np.log1p(-s), 1e-5
        up, _ = _reg_terms(kind, t, 1.0 / (1.0 + np.exp(-(z + h))))
        down, _ = _reg_terms(kind, t, 1.0 / (1.0 + np.exp(-(z - h))))
        _, dlogit = _reg_terms(kind, t, s)
        np.testing.assert_allclose(dlogit, (up - down) / (2.0 * h), rtol=1e-6)

    def test_kl_dlogit_at_clamped_student_is_clamped_student_minus_teacher(self):
        # The clamp guards the logarithms and drops no gradient: a student clamped at
        # either end is pulled toward the teacher, as BCE's p - y pulls an observed row.
        s = np.array([0.0, 1e-12, 1.0 - 1e-12, 1.0])
        values, dlogit = _reg_terms(RegLossKind.KL, np.full(s.size, 0.3), s)
        assert np.all(np.isfinite(values))
        np.testing.assert_array_equal(dlogit, np.clip(s, CLAMP_EPS, 1.0 - CLAMP_EPS) - 0.3)
        assert np.all(dlogit != 0.0)

    def test_mse_symmetric(self):
        gen = np.random.default_rng(7)
        for _ in range(200):
            t, s = gen.uniform(0.01, 0.99, size=2)
            assert reg_one(RegLossKind.MSE, t, s) == reg_one(RegLossKind.MSE, s, t)

    def test_mse_at_most_half_kl(self):
        # Pinsker's inequality for two Bernoullis: KL(t || s) >= 2 (t - s)**2.
        gen = np.random.default_rng(9)
        t = gen.uniform(0, 1, size=2000)
        s = gen.uniform(0, 1, size=2000)
        mse, _ = _reg_terms(RegLossKind.MSE, t, s)
        kl, _ = _reg_terms(RegLossKind.KL, t, s)
        assert np.all(mse <= kl / 2.0 + 1e-15)

    def test_mse_dlogit_at_most_half_kl_dlogit(self):
        # 2 (s - t) s (1 - s) against s - t, with s (1 - s) <= 1/4: MSE pulls more softly.
        gen = np.random.default_rng(14)
        t = gen.uniform(0, 1, size=2000)
        s = gen.uniform(0, 1, size=2000)
        _, mse = _reg_terms(RegLossKind.MSE, t, s)
        _, kl = _reg_terms(RegLossKind.KL, t, s)
        assert np.all(np.sign(mse) == np.sign(kl))
        assert np.all(np.abs(mse) <= np.abs(kl) / 2.0 + 1e-15)

    def test_mse_dlogit_has_no_kink_where_student_meets_teacher(self):
        # Zero at s = t, with slope 2 t (1 - t) in s on both sides.
        t = np.linspace(0.1, 0.9, 9)
        _, at = _reg_terms(RegLossKind.MSE, t, t)
        np.testing.assert_array_equal(at, 0.0)
        for delta in (1e-6, -1e-6):
            _, near = _reg_terms(RegLossKind.MSE, t, t + delta)
            np.testing.assert_allclose(near / delta, 2.0 * t * (1.0 - t), rtol=1e-5)

    def test_kl_is_mse_over_twice_bernoulli_variance_for_small_gaps(self):
        # Second order in s - t: KL(t || s) = (t - s)**2 / (2 t (1 - t)) + O(|t - s|**3).
        t = np.linspace(0.1, 0.9, 9)
        s = t + 1e-4
        mse, _ = _reg_terms(RegLossKind.MSE, t, s)
        kl, _ = _reg_terms(RegLossKind.KL, t, s)
        np.testing.assert_allclose(kl, mse / (2.0 * t * (1.0 - t)), rtol=5e-3)

    def test_kl_from_a_hard_teacher_is_bce_up_to_the_clamp(self):
        # With t in {0, 1} the teacher's entropy vanishes but for the clamp, so
        # KL(t || s) is the data term's BCE of s against the label t.
        gen = np.random.default_rng(15)
        s = gen.uniform(0.01, 0.99, size=500)
        for label in (0, 1):
            kl, _ = _reg_terms(RegLossKind.KL, np.full(s.size, float(label)), s)
            bce = [bce_eval([v], [label]) for v in s]
            np.testing.assert_allclose(kl, bce, rtol=0.0, atol=1e-5)

    def test_kl_dlogit_is_student_minus_teacher(self):
        # The same form as the BCE slice's p - y, bit for bit.
        gen = np.random.default_rng(13)
        t = gen.uniform(0.001, 0.999, size=5000)
        s = gen.uniform(0.001, 0.999, size=5000)
        np.testing.assert_array_equal(_reg_terms(RegLossKind.KL, t, s)[1], s - t)


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

    def test_label_outside_zero_one_rejected_with_index(self):
        # Unchecked, a label of 2.0 gave a negative data term.
        with pytest.raises(ValueError, match="label at index 0 is 2.0, not 0 or 1"):
            ObservedBatch(np.array([0]), np.array([1]), np.array([2.0]))
        with pytest.raises(ValueError, match="label at index 1 is nan, not 0 or 1"):
            ObservedBatch(np.array([0, 1]), np.array([1, 1]), np.array([1.0, np.nan]))


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
            gamma_reg=5.0, reg_kind=RegLossKind.MSE, l2_coeff=0.0,
        )
        assert bd.distill_term == pytest.approx(0.0, abs=1e-12)

    def test_mse_closed_form_sum(self):
        # Observed (p=0.5, y=1) and two unobserved pairs with (0.9 - 0.5)**2 and (0.2 - 0.5)**2.
        net = zero_net()
        bd, _ = loss_and_grads(
            net,
            observed(interaction(0, 0, 5, Source.BIASED)),
            unobserved([(0, 1), (1, 0)], [0.9, 0.2]),
            gamma_reg=2.0,
            reg_kind=RegLossKind.MSE,
            l2_coeff=0.0,
        )
        assert bd.distill_term == pytest.approx((0.16 + 0.09) / 2, abs=1e-12)
        assert bd.total == pytest.approx(LN2 + 0.25, abs=1e-12)

    def test_reg_kind_defaults_to_kl(self):
        net = init_network(NetworkConfig(3, 3, 2, (3,)), RngStream(5))
        obs = observed(interaction(0, 0, 5, Source.BIASED), interaction(1, 2, 3, Source.BIASED))
        unobs = unobserved([(1, 1), (2, 0)], [0.25, 0.75])
        bd, grads = loss_and_grads(net, obs, unobs, gamma_reg=0.5)
        bd_kl, grads_kl = loss_and_grads(net, obs, unobs, gamma_reg=0.5, reg_kind=RegLossKind.KL)
        assert bd == bd_kl
        for a, b in zip(densify(grads, net).param_arrays(), densify(grads_kl, net).param_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_saturated_student_is_pulled_toward_the_teacher(self):
        # An output bias of 40 saturates p to 1.0, where the observed positive gives no
        # gradient; the distillation row still pulls the bias down toward its target 0.3.
        net = zero_net()
        net.biases[-1][0] = 40.0
        _, grads = loss_and_grads(net, observed(interaction(0, 0, 5, Source.BIASED)),
                                  unobserved([(0, 1)], [0.3]), gamma_reg=1.0)
        assert grads.biases[-1][0] == pytest.approx(0.7, abs=1e-6)

    def test_target_outside_unit_interval_rejected_with_index(self):
        # Unchecked, a target of 1.5 was clamped silently into the distillation term.
        for targets, match in (([0.5, 1.5], "index 1 is 1.5"), ([-0.1, 0.5], "index 0 is -0.1"),
                               ([np.nan, 0.5], "index 0 is nan")):
            with pytest.raises(ValueError, match=rf"teacher target at {match}, outside \[0, 1\]"):
                unobserved([(0, 1), (1, 0)], targets)
        assert unobserved([(0, 1), (1, 0)], [0.0, 1.0]).teacher_targets.size == 2

    def test_batches_from_lists_equal_batches_from_arrays(self):
        # Batches are sized with len(): read with ``.size``, lists raised AttributeError.
        net = init_network(NetworkConfig(3, 3, 2, (3,)), RngStream(5))
        from_lists = loss_and_grads(net, ObservedBatch([0, 2], [1, 2], [1, 0]),
                                    UnobservedBatch([1], [1], [0.25]), gamma_reg=0.5)
        from_arrays = loss_and_grads(net, observed(interaction(0, 1, 5, Source.BIASED),
                                                   interaction(2, 2, 3, Source.BIASED)),
                                     unobserved([(1, 1)], [0.25]), gamma_reg=0.5)
        assert from_lists[0] == from_arrays[0]
        for a, b in zip(densify(from_lists[1], net).param_arrays(),
                        densify(from_arrays[1], net).param_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_empty_observed_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            loss_and_grads(zero_net(), observed(), unobserved([(0, 1)], [0.5]),
                           gamma_reg=1.0, reg_kind=RegLossKind.KL, l2_coeff=0.0)


class TestLossAndGradsErrors:
    @pytest.mark.parametrize("field", ["users", "items", "labels", "teacher_targets"])
    def test_batch_fields_cannot_be_reassigned_or_written(self, field):
        # Unchecked, labels = [7.0] on this 3-row batch gave a negative data term with no
        # error, and teacher_targets = [5.0] was clamped silently.  Frozen fields alone
        # still let obs.labels[0] = 7.0 move data_term from 0.891 to 1.327 with no error.
        net = zero_net(3, 3)
        given = {"users": np.array([0, 1, 2]), "items": np.array([0, 1, 2]),
                 "labels": np.array([1.0, 0.0, 1.0])}
        obs = ObservedBatch(**given)
        unobs = UnobservedBatch(np.array([0, 1]), np.array([1, 2]), np.array([0.25, 0.75]))
        before = loss_and_grads(net, obs, unobs, gamma_reg=1.0)[0]
        batch = unobs if field == "teacher_targets" else obs
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(batch, field, np.array([7.0]))
        with pytest.raises(ValueError, match="read-only"):
            getattr(batch, field)[0] = 7.0
        assert loss_and_grads(net, obs, unobs, gamma_reg=1.0)[0] == before
        # The batch holds read-only views; the caller's own arrays stay writeable.
        assert all(a.flags.writeable for a in given.values())

    def test_nonfinite_parameter_loss_raises_with_term(self):
        net = zero_net()
        net.weights[0][0, 0] = np.inf
        obs = ObservedBatch(np.array([0]), np.array([0]), np.array([1.0]))
        # The planted inf meets zero embeddings in the first matmul.
        with pytest.raises(NonFiniteLossError) as exc, np.errstate(invalid="ignore"):
            loss_and_grads(net, obs, l2_coeff=1.0)
        assert exc.value.term in ("reg_term", "total", "data_term")

    def test_off_grid_unobserved_row_counts_observed_rows_first(self):
        obs = observed(interaction(0, 0, 5, Source.BIASED), interaction(1, 1, 2, Source.BIASED))
        with pytest.raises(ValueError, match=r"^row 3: id out of range: user=2, item=0"):
            loss_and_grads(zero_net(), obs, unobserved([(0, 1), (2, 0)], [0.5, 0.5]),
                           gamma_reg=1.0)

    @pytest.mark.parametrize("unobs, gamma", [
        (unobserved([(0, 1)], [0.5]), 0.0),
        (None, 0.5),
        (unobserved([], []), 0.5),
    ], ids=["rows-at-gamma-0", "none-at-gamma-0.5", "empty-at-gamma-0.5"])
    def test_unobserved_rows_exactly_when_gamma_positive(self, monkeypatch, unobs, gamma):
        # At gamma 0, rows ran through the forward and backprop for nothing; at gamma > 0
        # with no rows, the student silently trained the teacher's objective.
        def no_forward(*args, **kwargs):
            raise AssertionError("the pairing is checked before the forward")
        monkeypatch.setattr(losses, "forward_cached", no_forward)
        rows = 0 if unobs is None else unobs.users.size
        message = (f"gamma_reg must be > 0 exactly when the unobserved batch has rows, "
                   f"got gamma_reg={gamma} with {rows} unobserved rows")
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            loss_and_grads(zero_net(), observed(interaction(0, 0, 5, Source.BIASED)), unobs,
                           gamma_reg=gamma, reg_kind=RegLossKind.MSE)

    @pytest.mark.parametrize("unobs", [None, unobserved([(0, 1)], [0.5])])
    def test_observed_batch_required(self, unobs):
        # Neither an L2-only nor a distillation-only call is an objective.
        with pytest.raises(ValueError, match="requires a nonempty observed batch"):
            loss_and_grads(zero_net(), None, unobs, gamma_reg=1.0, l2_coeff=0.5)
