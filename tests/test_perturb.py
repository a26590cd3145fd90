import numpy as np
import pytest

from densitydescent import diffcore as dc
from densitydescent.errors import ConfigError, NumericError
from densitydescent.estimator import FeaturePool, FlowTrainConfig, fit_density
from densitydescent.flow import init_flow
from densitydescent.latent import init_latent, marginal_loglik
from densitydescent.oracle import finite_diff_grad
from densitydescent.perturb import (DROPOUT_RATE, PerturbConfig,
                                    channel_dropout_perturbation,
                                    density_descent_perturbation, density_gradient,
                                    dropped_channels, generate_perturbation,
                                    uniform_noise_perturbation, vat_perturbation)
from densitydescent.semisup import MAX_FEATURE_DIM, init_model
from leaf_twin import leaf_twin
from reference.student import decode, softmax_cross_entropy, tape_vat_perturbation


def trained_2d_model(seed=0):
    rng = np.random.default_rng(seed)
    flow = init_flow(2, hidden=32, seed=seed)
    latent = init_latent(2, 2, seed=seed + 1)
    comp = rng.integers(0, 2, size=400)
    pts = np.array([[-1.5, 0.0], [1.5, 0.5]])[comp] + 0.4 * rng.standard_normal((400, 2))
    fit_density(FeaturePool(pts[:200], comp[:200], pts[200:]), flow, latent,
                FlowTrainConfig(), steps=400, batch=128, rng=rng)
    return flow, latent, pts


class TestDensityGradient:
    def test_quadratic_potential_identity_flow(self):
        # identity flow + single component: -log p is a quadratic in the
        # reversed coordinates, so the gradient un-permutes to (a, 0)
        flow = init_flow(2, hidden=8, seed=0)
        latent = init_latent(1, 2, seed=1)
        a = 0.73
        v = latent.means[0][::-1] + np.array([a, 0.0])
        g = density_gradient(v[None], flow, latent)[0]
        np.testing.assert_allclose(g, [a, 0.0], atol=1e-12)

    def test_zero_at_mode(self):
        flow = init_flow(2, hidden=8, seed=2)
        latent = init_latent(1, 2, seed=3)
        g = density_gradient(latent.means[0][::-1][None], flow, latent)[0]
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_matches_finite_differences_on_trained_model(self):
        flow, latent, pts = trained_2d_model(4)
        rng = np.random.default_rng(5)
        for v in pts[rng.choice(len(pts), 10, replace=False)]:
            g = density_gradient(v[None], flow, latent)[0]
            fd = finite_diff_grad(
                lambda w: -float(marginal_loglik(w[None], flow, latent).data[0]), v,
                h=1e-4)
            assert np.abs(g - fd).max() / max(1.0, np.abs(fd).max()) < 1e-3

    def test_batch_rows_match_single_calls(self):
        flow, latent, pts = trained_2d_model(6)
        batch = pts[:5]
        gb = density_gradient(batch, flow, latent)
        for i, v in enumerate(batch):
            np.testing.assert_allclose(gb[i], density_gradient(v[None], flow, latent)[0],
                                       atol=1e-12)


class TestDdfpPerturbation:
    def test_norm_contract(self):
        flow, latent, pts = trained_2d_model(7)
        delta, fallbacks = density_descent_perturbation(pts[:100], 0.37, flow, latent)
        norms = np.linalg.norm(delta, axis=1)
        assert fallbacks == 0
        np.testing.assert_allclose(norms, 0.37, atol=1e-12)

    def test_zero_gradient_falls_back_to_zero(self):
        flow = init_flow(2, hidden=8, seed=8)
        latent = init_latent(1, 2, seed=9)
        mode = latent.means[0][::-1].copy()
        delta, fallbacks = density_descent_perturbation(mode[None], 0.5, flow, latent)
        assert fallbacks == 1
        np.testing.assert_array_equal(delta, np.zeros((1, 2)))

    def test_descent_on_held_out_features(self):
        flow, latent, pts = trained_2d_model(10)
        held = pts[:200]
        sigma = float(held.std())
        delta, _ = density_descent_perturbation(held, 0.01 * sigma, flow, latent)
        lp0 = marginal_loglik(held, flow, latent).data
        lp1 = marginal_loglik(held + delta, flow, latent).data
        assert np.mean(lp1 < lp0) >= 0.95

    def test_rejects_nonpositive_eps(self):
        flow = init_flow(2, hidden=8, seed=11)
        latent = init_latent(1, 2, seed=12)
        with pytest.raises(ValueError):
            density_descent_perturbation(np.ones(2), 0.0, flow, latent)


class TestBaselinePerturbations:
    def test_uniform_noise_norm_equals_eps(self):
        rng = np.random.default_rng(2)
        delta = uniform_noise_perturbation((50, 8), 1.3, rng)
        np.testing.assert_allclose(np.linalg.norm(delta, axis=1), 1.3, atol=1e-12)

    def test_channel_dropout_zeroes_exactly_half(self):
        rng = np.random.default_rng(3)
        v = np.random.default_rng(4).standard_normal((40, 8)) + 5.0
        delta = channel_dropout_perturbation(v, 0.5, rng)
        out = v + delta
        assert np.all((out == 0).sum(axis=1) == 4)
        kept = out != 0
        np.testing.assert_array_equal(out[kept], v[kept])

    def test_dropout_rate_drops_some_but_not_all_channels(self):
        # at every feature_dim a config accepts (even, up to the cap), the
        # fixed rate must drop a channel and keep one: dropping none leaves
        # the feature as it is, dropping all zeroes it
        for d in range(2, MAX_FEATURE_DIM + 1, 2):
            assert 1 <= dropped_channels(DROPOUT_RATE, d) < d, d

    def test_dropout_determinism(self):
        v = np.random.default_rng(5).standard_normal((10, 6))
        d1 = channel_dropout_perturbation(v, 0.5, np.random.default_rng(77))
        d2 = channel_dropout_perturbation(v, 0.5, np.random.default_rng(77))
        np.testing.assert_array_equal(d1, d2)

    def test_uniform_determinism(self):
        d1 = uniform_noise_perturbation((5, 4), 1.0, np.random.default_rng(78))
        d2 = uniform_noise_perturbation((5, 4), 1.0, np.random.default_rng(78))
        np.testing.assert_array_equal(d1, d2)

    def test_vat_determinism(self):
        model = init_model(2, 8, 4, 2, seed=20)
        v = np.random.default_rng(21).standard_normal((8, 4))
        d1 = vat_perturbation(v, 0.5, *_decoder(model), np.random.default_rng(79))
        d2 = vat_perturbation(v, 0.5, *_decoder(model), np.random.default_rng(79))
        np.testing.assert_array_equal(d1, d2)

    def test_vat_direction_beats_random_direction(self):
        # the adversarial direction should raise the classifier KL more than
        # a random direction of equal norm on most samples
        model = init_model(2, 16, 4, 3, seed=6)
        rng = np.random.default_rng(7)
        v = rng.standard_normal((100, 4))
        eps = 0.5
        delta = vat_perturbation(v, eps, *_decoder(model), np.random.default_rng(8))

        def kl(base, pert):
            p = _soft(decode(model, dc.tensor(base)).data)
            q = _soft(decode(model, dc.tensor(pert)).data)
            return (p * (np.log(p + 1e-300) - np.log(q + 1e-300))).sum(axis=1)

        rand_dir = rng.standard_normal(v.shape)
        rand_dir *= eps / np.linalg.norm(rand_dir, axis=1, keepdims=True)
        frac = np.mean(kl(v, v + delta) >= kl(v, v + rand_dir))
        assert frac >= 0.8

    def test_vat_norm_contract(self):
        model = init_model(2, 16, 4, 2, seed=9)
        v = np.random.default_rng(10).standard_normal((20, 4))
        delta = vat_perturbation(v, 0.9, *_decoder(model), np.random.default_rng(11))
        np.testing.assert_allclose(np.linalg.norm(delta, axis=1), 0.9, atol=1e-12)


def _decoder(model):
    return model.dec_w, model.dec_b


class TestVatMatchesTape:
    @pytest.mark.parametrize("dim,classes,rows", [
        (1, 2, 1), (2, 2, 7), (4, 3, 64), (5, 5, 129), (8, 4, 33)])
    @pytest.mark.parametrize("power_iters", [1, 2, 3])
    def test_bitwise_equal_to_tape(self, dim, classes, rows, power_iters):
        model = init_model(2, 8, dim, classes, seed=dim * 10 + classes)
        data = np.random.default_rng(rows)
        # uneven weights and non-zero biases, as after training
        model.dec_w[...] *= 3.0
        model.dec_b[...] = data.standard_normal(classes)
        v = data.standard_normal((rows, dim)) * 2.0
        for xi in (1e-2, 0.5):
            ref = tape_vat_perturbation(v, 0.7, lambda u: decode(model, u),
                                        np.random.default_rng(3), xi, power_iters)
            out = vat_perturbation(v, 0.7, *_decoder(model), np.random.default_rng(3),
                                   xi, power_iters)
            assert out.shape == v.shape
            assert np.array_equal(out, ref)

    def test_configured_kind_matches_tape_at_its_defaults(self):
        # generate_perturbation reads perturb.VAT_XI and VAT_POWER_ITERS; the
        # reference's own defaults (xi=1e-2, power_iters=1) are the paper's
        model = init_model(2, 8, 4, 3, seed=5)
        data = np.random.default_rng(6)
        model.dec_w[...] *= 3.0
        model.dec_b[...] = data.standard_normal(3)
        v = data.standard_normal((40, 4)) * 2.0
        cfg = PerturbConfig(kind="vat-lite")
        out, fallbacks = generate_perturbation(v, cfg, np.random.default_rng(7),
                                               decoder=_decoder(model))
        ref = tape_vat_perturbation(v, cfg.eps * v.std(), lambda u: decode(model, u),
                                    np.random.default_rng(7))
        assert fallbacks == 0
        assert np.array_equal(out, ref)

    def test_non_finite_feature_is_numeric_error(self):
        model = init_model(2, 8, 4, 2, seed=1)
        v = np.zeros((3, 4))
        v[1, 2] = np.nan
        with pytest.raises(NumericError):
            vat_perturbation(v, 0.5, *_decoder(model), np.random.default_rng(0))


def per_row_channel_dropout(v, rate, rng):
    """Channel dropout with one ``rng.choice`` per row: the reference
    ``channel_dropout_perturbation`` must match bit for bit, generator
    state included."""
    n, d = v.shape
    k = int(round(rate * d))
    delta = np.zeros_like(v)
    for i in range(n):
        drop = rng.choice(d, size=k, replace=False)
        delta[i, drop] = -v[i, drop]
    return delta


class TestChannelDropoutMatchesPerRowChoice:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16, 1024])
    def test_bitwise_equal_with_same_stream(self, dim):
        data = np.random.default_rng(dim)
        for rate in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            for rows in (1, 7, 64):
                shape = (rows, dim)
                ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
                # two calls in a row: the second starts where the first left off
                for v in (data.standard_normal(shape), data.standard_normal(shape)):
                    ref = per_row_channel_dropout(v, rate, ref_rng)
                    out = channel_dropout_perturbation(v, rate, rng)
                    case = f"rate={rate} shape={shape}"
                    assert out.shape == v.shape, case
                    assert np.array_equal(out, ref), case
                    assert rng.bit_generator.state == ref_rng.bit_generator.state, case


def _soft(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestGenerateDispatch:
    def test_detachment_from_flow_parameters(self):
        flow, latent, pts = trained_2d_model(12)
        model = init_model(2, 8, 2, 2, seed=13)
        cfg = PerturbConfig(kind="density-descending", eps=0.5)
        feats = dc.tensor(pts[:16])
        delta, _ = generate_perturbation(feats.data, cfg, np.random.default_rng(0),
                                         flow_model=flow, latent=latent)
        loss = dc.sum(softmax_cross_entropy(
            decode(model, feats + dc.tensor(delta)), np.zeros(16, dtype=int)))
        grads = dc.grad(loss, leaf_twin(flow).params())
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_relative_eps_resolution(self):
        cfg = PerturbConfig(kind="uniform-noise", eps=0.5)
        feats = np.random.default_rng(14).standard_normal((30, 4)) * 2.0
        delta, _ = generate_perturbation(feats, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(np.linalg.norm(delta, axis=1), 0.5 * feats.std())

    def test_missing_dependencies_rejected(self):
        v = np.zeros((2, 4))
        with pytest.raises(ValueError):
            generate_perturbation(v, PerturbConfig(kind="density-descending"),
                                  np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_perturbation(v, PerturbConfig(kind="vat-lite"),
                                  np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PerturbConfig(kind="banana")
        with pytest.raises(ConfigError):
            PerturbConfig(eps=-1.0)
