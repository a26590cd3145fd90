import numpy as np
import pytest

from densitydescent.errors import NumericError
from densitydescent.estimator import (FeaturePool, FlowTrainConfig, flow_loss,
                                      flow_train_step, fit_density, pool_indices,
                                      sample_feature_pool)
from densitydescent.flow import flow_inverse, init_flow, randomize_conditioners
from densitydescent.latent import init_latent, marginal_loglik
from densitydescent.optim import Adam
from densitydescent.semisup import init_model

LOG_2PI = np.log(2 * np.pi)


class TestFlowLoss:
    def test_single_labeled_feature_at_component_mode(self):
        flow = init_flow(2, hidden=8, seed=0)
        latent = init_latent(3, 2, seed=1)
        v = latent.means[1][::-1].copy()[None, :]   # identity flow maps it onto mu_1
        loss = flow_loss(FeaturePool(v, np.array([1]), np.empty((0, 2))), flow, latent)
        assert float(loss.data) == pytest.approx(LOG_2PI)
        assert float(loss.data) == pytest.approx(1.837877, abs=1e-6)

    def test_unlabeled_only_reduces_to_mean_negative_marginal(self):
        flow = randomize_conditioners(init_flow(4, hidden=16, seed=2), seed=3)
        latent = init_latent(2, 4, seed=4)
        v = np.random.default_rng(5).standard_normal((12, 4))
        loss = flow_loss(FeaturePool(np.empty((0, 4)), np.empty(0, dtype=int), v),
                         flow, latent)
        expected = -float(np.mean(marginal_loglik(v, flow, latent).data))
        assert float(loss.data) == pytest.approx(expected, rel=1e-12)

    def test_empty_union_rejected(self):
        flow = init_flow(2, hidden=8, seed=6)
        latent = init_latent(2, 2, seed=7)
        with pytest.raises(ValueError):
            flow_loss(FeaturePool(np.empty((0, 2)), np.empty(0, dtype=int), np.empty((0, 2))),
                      flow, latent)

    def test_normalizes_by_combined_count(self):
        flow = init_flow(2, hidden=8, seed=8)
        latent = init_latent(2, 2, seed=9)
        rng = np.random.default_rng(10)
        vl, vu = rng.standard_normal((3, 2)), rng.standard_normal((5, 2))
        labels = np.array([0, 1, 0])
        both = flow_loss(FeaturePool(vl, labels, vu), flow, latent)
        part_l = flow_loss(FeaturePool(vl, labels, np.empty((0, 2))), flow, latent)
        part_u = flow_loss(FeaturePool(np.empty((0, 2)), np.empty(0, dtype=int), vu),
                           flow, latent)
        assert float(both.data) == pytest.approx(
            (3 * float(part_l.data) + 5 * float(part_u.data)) / 8, rel=1e-12)


class TestPoolSampling:
    """``pool_indices`` draws a pool's rows; the caller gathers them into a
    ``FeaturePool``, as ``fit_density`` and ``semisup._loop`` do."""

    def test_budget_two_with_one_each(self):
        il, iu = pool_indices(1, 1, budget=2, rng=np.random.default_rng(0))
        pool = FeaturePool(labeled=np.ones((1, 3))[il], labels=np.array([0])[il],
                           unlabeled=2 * np.ones((1, 3))[iu])
        assert pool.total == 2
        np.testing.assert_array_equal(pool.labeled, np.ones((1, 3)))
        np.testing.assert_array_equal(pool.unlabeled, 2 * np.ones((1, 3)))

    def test_empty_side_returns_the_other_side_s_rows(self):
        il, iu = pool_indices(0, 4, budget=8, rng=np.random.default_rng(1))
        pool = FeaturePool(labeled=np.empty((0, 3))[il], labels=np.empty(0, dtype=int)[il],
                           unlabeled=np.ones((4, 3))[iu])
        assert pool.unlabeled.shape == (4, 3) and pool.labeled.shape == (0, 3)

    @pytest.mark.parametrize("sizes", [(0, 7), (7, 0)], ids=["labeled", "unlabeled"])
    def test_empty_side_takes_no_random_draw(self, sizes):
        # callers draw and gather each side alike, empty or not: they rely
        # on rng.choice(0, size=0) giving an empty index and leaving the
        # generator as a twin that drew only the other side
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        empty = sizes.index(0)
        idx = pool_indices(*sizes, budget=8, rng=rng)
        assert idx[empty].dtype == np.int64 and idx[empty].shape == (0,)
        np.testing.assert_array_equal(idx[1 - empty], twin.choice(7, size=4, replace=False))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_budget_split_caps_at_available(self):
        il, iu = pool_indices(3, 100, budget=20, rng=np.random.default_rng(2))
        assert len(il) == 3 and len(iu) == 10

    def test_draw_is_without_replacement(self):
        feats = np.arange(40, dtype=float).reshape(20, 2)
        il, iu = pool_indices(20, 20, budget=20, rng=np.random.default_rng(3))
        assert len(np.unique(feats[il], axis=0)) == 10
        assert len(np.unique(iu)) == 10

    def test_odd_budget_rejected(self):
        with pytest.raises(ValueError):
            pool_indices(2, 2, budget=3, rng=np.random.default_rng(0))

    def test_teacher_features_are_detached_and_teacher_untouched(self):
        teacher = init_model(2, 8, 4, 2, seed=4)
        snapshot = teacher.flat.tobytes()
        rng = np.random.default_rng(5)
        x_l = rng.standard_normal((6, 2))
        x_u = rng.standard_normal((10, 2))
        pool = sample_feature_pool(teacher, x_l, np.zeros(6, dtype=int), x_u,
                                   budget=8, rng=rng)
        pool.labeled += 100.0  # mutating the pool must not touch the teacher
        assert teacher.flat.tobytes() == snapshot
        assert pool.labeled.shape == (4, 4) and pool.unlabeled.shape == (4, 4)


def _fit_setup(seed=0):
    flow = init_flow(2, hidden=16, seed=seed)
    latent = init_latent(2, 2, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    feats = rng.standard_normal((64, 2)) + np.array([1.0, -1.0])
    labels = rng.integers(0, 2, 32)
    il, iu = pool_indices(32, 32, budget=64, rng=rng)
    pool = FeaturePool(labeled=feats[:32][il], labels=labels[il], unlabeled=feats[32:][iu])
    return flow, latent, pool


class TestFlowTrainStep:
    def test_zero_learning_rate_keeps_params(self):
        flow, latent, pool = _fit_setup()
        opt = Adam(flow.flat, 0.0)
        before = [p.copy() for p in flow.params()]
        flow_train_step(pool, flow, latent, opt)
        for b, p in zip(before, flow.params()):
            np.testing.assert_array_equal(b, p)

    def test_latent_is_frozen_across_steps(self):
        flow, latent, pool = _fit_setup(3)
        means = latent.means.copy()
        logw = latent.log_weights.copy()
        opt = Adam(flow.flat, 1e-3)
        for _ in range(20):
            flow_train_step(pool, flow, latent, opt)
        np.testing.assert_array_equal(latent.means, means)
        np.testing.assert_array_equal(latent.log_weights, logw)

    def test_descent_on_fixed_batch_for_most_seeds(self):
        wins = 0
        for seed in range(20):
            flow, latent, pool = _fit_setup(seed)
            opt = Adam(flow.flat, 1e-4)
            before = float(flow_loss(pool, flow, latent).data)
            flow_train_step(pool, flow, latent, opt)
            after = float(flow_loss(pool, flow, latent).data)
            wins += after <= before
        assert wins >= 18   # >= 90% of seeds

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_diagnostics(self):
        flow, latent, pool = _fit_setup(5)
        flow.blocks[0].b2[:] = 1e308   # forces an overflow in the forward pass
        opt = Adam(flow.flat, 1e-3)
        with pytest.raises(NumericError):
            flow_train_step(pool, flow, latent, opt)

    def test_returns_loss_value(self):
        flow, latent, pool = _fit_setup(6)
        opt = Adam(flow.flat, 1e-3)
        value = flow_train_step(pool, flow, latent, opt)
        assert np.isfinite(value)


class TestFitDensity:
    def test_moving_average_decreases_on_self_consistent_target(self):
        # data drawn from the latent mixture pushed through a fixed random
        # inverse flow is exactly representable; full-batch loss must fall
        rng = np.random.default_rng(7)
        gen_flow = randomize_conditioners(init_flow(2, hidden=16, seed=8),
                                          scale=0.5, seed=9)
        latent = init_latent(2, 2, seed=10)
        comp = rng.integers(0, 2, size=256)
        z = latent.means[comp] + rng.standard_normal((256, 2))
        v = flow_inverse(z, gen_flow)
        flow = init_flow(2, hidden=16, seed=11)
        cfg = FlowTrainConfig(lr=1e-3)
        history = fit_density(FeaturePool(v[:128], comp[:128], v[128:]), flow, latent,
                              cfg, steps=500, batch=256, rng=rng)
        ma = np.convolve([h[1] for h in history], np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(ma) < 1e-9)

    def test_history_records_schedule(self):
        # the lr halves at a third and at two thirds of the run: over 9 steps
        # progress step / 9 reaches 1/3 at step 3 and 2/3 at step 6 exactly
        flow, latent, pool = _fit_setup(12)
        lr = 1e-3
        history = fit_density(pool, flow, latent, FlowTrainConfig(lr=lr), steps=9, batch=16,
                              rng=np.random.default_rng(13))
        assert [h[0] for h in history] == list(range(9))
        assert [h[2] for h in history] == [lr] * 3 + [lr / 2] * 3 + [lr / 4] * 3


class TestConfigValidation:
    def test_budget_must_be_even(self):
        with pytest.raises(Exception):
            FlowTrainConfig(sample_budget=3)

    def test_warm_start_must_be_positive(self):
        with pytest.raises(Exception):
            FlowTrainConfig(warm_start_epoch=0)

    def test_updates_per_iteration_positive(self):
        with pytest.raises(Exception):
            FlowTrainConfig(updates_per_iteration=0)
