import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitydescent.errors import ConfigError
from densitydescent.flow import init_flow, load_checkpoint, randomize_conditioners, save_checkpoint
from densitydescent.latent import (GmmLatent, class_conditional_loglik,
                                   gaussian_logpdf, init_latent, marginal_loglik,
                                   mixture_logpdf, mixture_logpdf_grad)
from densitydescent.oracle import mc_normalization

LOG_2PI = np.log(2 * np.pi)


class TestInitLatent:
    def test_paper_scale_component_count(self):
        latent = init_latent(21, 8, seed=0)
        assert latent.n_components == 21
        np.testing.assert_allclose(np.exp(latent.log_weights).sum(), 1.0)

    def test_single_component(self):
        latent = init_latent(1, 4, seed=1)
        assert latent.means.shape == (1, 4)
        assert latent.log_weights[0] == 0.0

    def test_seed_determinism(self):
        a, b = init_latent(5, 3, seed=42), init_latent(5, 3, seed=42)
        np.testing.assert_array_equal(a.means, b.means)

    @pytest.mark.parametrize("k,d", [(0, 4), (3, 0), (-1, 2)])
    def test_invalid_sizes(self, k, d):
        with pytest.raises(ConfigError):
            init_latent(k, d)


class TestGaussianLogpdf:
    def test_at_mode_2d(self):
        mu = np.array([[0.3, -1.2]])
        assert gaussian_logpdf(mu, mu).data[0] == pytest.approx(-LOG_2PI)
        assert gaussian_logpdf(mu, mu).data[0] == pytest.approx(-1.837877, abs=1e-6)

    def test_standard_normal_mode_1d(self):
        val = gaussian_logpdf(np.zeros((1, 1)), np.zeros(1)).data[0]
        assert val == pytest.approx(-0.918939, abs=1e-6)

    def test_unit_offset(self):
        val = gaussian_logpdf(np.array([[1.0, 0.0]]), np.zeros(2)).data[0]
        assert val == pytest.approx(-1.837877 - 0.5, abs=1e-6)

    def test_batch_rows(self):
        z = np.random.default_rng(0).standard_normal((7, 3))
        mu = np.random.default_rng(1).standard_normal(3)
        out = gaussian_logpdf(z, mu).data
        expected = -0.5 * 3 * LOG_2PI - 0.5 * ((z - mu) ** 2).sum(axis=1)
        np.testing.assert_allclose(out, expected)


class TestMixtureLogpdf:
    def test_single_component_equals_gaussian(self):
        latent = init_latent(1, 3, seed=2)
        z = np.random.default_rng(3).standard_normal((10, 3))
        np.testing.assert_allclose(mixture_logpdf(z, latent).data,
                                   gaussian_logpdf(z, latent.means[0]).data,
                                   atol=1e-9)

    def test_identical_components_collapse(self):
        mu = np.random.default_rng(4).standard_normal(2)
        latent = GmmLatent(means=np.stack([mu, mu]),
                           log_weights=np.log([0.5, 0.5]))
        z = np.random.default_rng(5).standard_normal((6, 2))
        np.testing.assert_allclose(mixture_logpdf(z, latent).data,
                                   gaussian_logpdf(z, mu).data, atol=1e-9)

    def test_hand_evaluated_1d_two_component(self):
        latent = GmmLatent(means=np.array([[-3.0], [3.0]]),
                           log_weights=np.log([0.5, 0.5]))
        val = mixture_logpdf(np.zeros((1, 1)), latent).data[0]
        assert val == pytest.approx(-5.418939, abs=1e-6)

    def test_well_separated_components_stay_finite(self):
        latent = GmmLatent(means=np.array([[-300.0, 0.0], [300.0, 0.0]]),
                           log_weights=np.log([0.5, 0.5]))
        val = mixture_logpdf(np.array([[-300.0, 0.0]]), latent).data[0]
        assert np.isfinite(val)
        assert val == pytest.approx(-LOG_2PI + np.log(0.5), abs=1e-9)


class TestMixtureLogpdfGrad:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_the_written_out_formula(self, k):
        # the mixture's terms, their max-shifted log-sum-exp and the gradient
        # softmax(comp) @ mu - z, each written out: the same bits
        latent = init_latent(k, 2, seed=30 + k)
        z = np.random.default_rng(40 + k).standard_normal((64, 2)) * 3.0
        mu = latent.means
        const = latent.log_weights - 0.5 * np.einsum("kd,kd->k", mu, mu) - 0.5 * 2 * LOG_2PI
        comp = z @ mu.T + (z * z).sum(axis=1, keepdims=True) * (-0.5) + const
        m = comp.max(axis=1, keepdims=True)
        e = np.exp(comp - m)
        ll, grad = mixture_logpdf_grad(z, latent)
        assert np.array_equal(ll, m[:, 0] + np.log(e.sum(axis=1)))
        assert np.array_equal(grad, e / e.sum(axis=1, keepdims=True) @ mu - z)


class TestLatentConstant:
    def test_same_bits_however_the_latent_is_built(self, tmp_path):
        latent = init_latent(3, 4, seed=50)
        save_checkpoint(tmp_path / "c.npz", init_flow(4, hidden=8, seed=51), latent)
        loaded = load_checkpoint(tmp_path / "c.npz")[1]
        built = GmmLatent(means=latent.means.copy(), log_weights=latent.log_weights.copy())
        assert latent.const.shape == (3,)
        for other in (loaded, built):
            assert other.const.tobytes() == latent.const.tobytes()


class TestFlowLikelihoods:
    def test_class_conditional_identity_flow_at_mean(self):
        flow = init_flow(2, hidden=8, seed=6)
        latent = init_latent(3, 2, seed=7)
        v = latent.means[2:3, ::-1].copy()   # reversal maps it onto mu_2
        val = class_conditional_loglik(v, [2], flow, latent).data[0]
        assert val == pytest.approx(-LOG_2PI)

    def test_marginal_identity_flow_k1(self):
        flow = init_flow(2, hidden=8, seed=8)
        latent = init_latent(1, 2, seed=9)
        v = latent.means[:1, ::-1].copy()
        assert marginal_loglik(v, flow, latent).data[0] == pytest.approx(-1.837877, abs=1e-6)

    def test_class_conditional_equals_marginal_when_k1(self):
        flow = randomize_conditioners(init_flow(4, hidden=16, seed=10), seed=11)
        latent = init_latent(1, 4, seed=12)
        v = np.random.default_rng(13).standard_normal((8, 4))
        np.testing.assert_allclose(
            class_conditional_loglik(v, np.zeros(8, dtype=int), flow, latent).data,
            marginal_loglik(v, flow, latent).data, atol=1e-9)

    def test_composition_matches_standalone_ops(self):
        from densitydescent.flow import flow_forward
        flow = randomize_conditioners(init_flow(4, hidden=16, seed=14), seed=15)
        latent = init_latent(5, 4, seed=16)
        v = np.random.default_rng(17).standard_normal((6, 4))
        labels = np.array([0, 1, 2, 3, 4, 0])
        z, logdet = flow_forward(v, flow)
        manual = gaussian_logpdf(z.data, latent.means[labels]).data + logdet.data
        np.testing.assert_allclose(
            class_conditional_loglik(v, labels, flow, latent).data, manual, atol=1e-12)

    def test_invalid_class_index(self):
        flow = init_flow(2, hidden=8, seed=18)
        latent = init_latent(2, 2, seed=19)
        with pytest.raises(ValueError):
            class_conditional_loglik(np.zeros((1, 2)), [2], flow, latent)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 1000), k=st.integers(0, 3))
    def test_marginal_dominates_weighted_component(self, seed, k):
        flow = randomize_conditioners(init_flow(4, hidden=8, seed=1), seed=2)
        latent = init_latent(4, 4, seed=3)
        v = np.random.default_rng(seed).uniform(-3, 3, size=(1, 4))
        marg = marginal_loglik(v, flow, latent).data[0]
        cond = class_conditional_loglik(v, [k], flow, latent).data[0]
        assert marg >= cond + latent.log_weights[k] - 1e-10

    def test_translation_symmetry_at_init(self):
        # identity flow: the marginal depends only on distances to the means
        flow = init_flow(2, hidden=8, seed=20)
        latent = init_latent(1, 2, seed=21)
        mu = latent.means[0]
        offset = np.array([0.6, -0.8])           # |offset| = 1
        rot = np.array([1.0, 0.0])
        v1 = (mu + offset)[None, ::-1].copy()
        v2 = (mu + rot)[None, ::-1].copy()
        a = marginal_loglik(v1, flow, latent).data[0]
        b = marginal_loglik(v2, flow, latent).data[0]
        assert a == pytest.approx(b, abs=1e-12)


def test_normalization_at_init_mc():
    flow = init_flow(2, hidden=4, seed=22)
    latent = init_latent(2, 2, seed=23)
    mass, se, warn = mc_normalization(flow, latent, ((-8, 8), (-8, 8)),
                                      400_000, seed=24)
    assert 0.97 <= mass <= 1.03
    assert not warn
