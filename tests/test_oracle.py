import numpy as np
import pytest

from densitydescent.errors import NumericError
from densitydescent.flow import (flow_forward, init_flow, kernel_forward,
                                 randomize_conditioners)
from densitydescent.latent import init_latent, marginal_loglik
from densitydescent.oracle import (finite_diff_grad, grid_density_dump,
                                   lu_logabsdet, mc_normalization,
                                   numeric_jacobian_logdet)


class TestLuLogAbsDet:
    def test_known_diagonal(self):
        assert lu_logabsdet(np.diag([2.0, 2.0, 2.0])) == pytest.approx(3 * np.log(2))

    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            _, expected = np.linalg.slogdet(m)
            assert lu_logabsdet(m) == pytest.approx(expected, rel=1e-10)

    def test_permutation_has_zero_logdet(self):
        p = np.eye(5)[::-1]
        assert lu_logabsdet(p) == pytest.approx(0.0, abs=1e-12)

    def test_singular_raises(self):
        with pytest.raises(NumericError):
            lu_logabsdet(np.zeros((3, 3)))


class TestNumericJacobianLogdet:
    def test_identity_flow_is_zero(self):
        flow = init_flow(4, hidden=8, seed=0)
        v = np.random.default_rng(1).standard_normal(4)
        assert numeric_jacobian_logdet(flow, v) == pytest.approx(0.0, abs=1e-9)

    def test_pure_scaling_map(self):
        val = numeric_jacobian_logdet(lambda w: 2.0 * w, np.zeros(3))
        assert val == pytest.approx(3 * np.log(2), rel=1e-8)

    def test_agrees_with_analytic_logdet_on_random_flows(self):
        for d in (4, 6, 8):
            flow = randomize_conditioners(init_flow(d, hidden=16, seed=d),
                                          scale=0.6, seed=d + 1)
            rng = np.random.default_rng(d + 2)
            for _ in range(3):
                v = rng.standard_normal(d)
                _, logdet = flow_forward(v[None], flow)
                numeric = numeric_jacobian_logdet(flow, v)
                rel = abs(float(logdet.data[0]) - numeric) / max(1e-12, abs(numeric))
                assert rel < 1e-4

    def test_dimension_cap(self):
        flow = init_flow(18, hidden=4, seed=0)
        with pytest.raises(ValueError):
            numeric_jacobian_logdet(flow, np.zeros(18))

    def test_rejects_bad_step(self):
        # a zero step once gave nan and a negative one a value, with no error
        flow = randomize_conditioners(init_flow(2, hidden=16, seed=1), seed=2)
        for h in (0.0, -1e-4):
            with pytest.raises(ValueError):
                numeric_jacobian_logdet(flow, np.array([0.3, -0.2]), h=h)


class TestFiniteDiffGrad:
    def test_quadratic_is_exact(self):
        v = np.array([1.0, -2.0, 0.5])
        g = finite_diff_grad(lambda w: float((w ** 2).sum()), v, h=1e-4)
        np.testing.assert_allclose(g, 2 * v, atol=1e-8)

    def test_zero_at_stationary_point(self):
        g = finite_diff_grad(lambda w: float((w ** 2).sum()), np.zeros(4), h=1e-4)
        np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_agrees_with_density_gradient(self):
        from densitydescent.perturb import density_gradient
        flow = randomize_conditioners(init_flow(2, hidden=16, seed=3), seed=4)
        latent = init_latent(2, 2, seed=5)
        v = np.random.default_rng(6).standard_normal(2)
        fd = finite_diff_grad(
            lambda w: -float(marginal_loglik(w[None], flow, latent).data[0]), v)
        np.testing.assert_allclose(density_gradient(v[None], flow, latent)[0], fd,
                                   atol=1e-6)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda w: 0.0, np.zeros(2), h=-1.0)

    def test_jacobian_equals_the_column_loop(self):
        flow = randomize_conditioners(init_flow(4, hidden=16, seed=11), scale=0.6, seed=12)

        def fn(w):
            return kernel_forward(w[None], flow, keep=False)[0][0]

        v, h = np.random.default_rng(13).standard_normal(4), 1e-4
        # the loop numeric_jacobian_logdet ran before it called finite_diff_grad
        jac = np.empty((4, 4))
        for j in range(4):
            vp = v.copy()
            vm = v.copy()
            vp[j] += h
            vm[j] -= h
            jac[:, j] = (np.asarray(fn(vp)) - np.asarray(fn(vm))) / (2.0 * h)
        out = finite_diff_grad(fn, v, h)
        assert out.shape == jac.shape
        assert out.tobytes() == jac.tobytes()


class TestMcNormalization:
    def test_identity_flow_mass_is_one(self):
        flow = init_flow(2, hidden=4, seed=7)
        latent = init_latent(1, 2, seed=8)
        mass, se, warn = mc_normalization(flow, latent, ((-8, 8), (-8, 8)),
                                          200_000, seed=9)
        assert mass == pytest.approx(1.0, abs=0.03)
        assert not warn

    def test_zero_samples_rejected(self):
        flow = init_flow(2, hidden=4, seed=0)
        latent = init_latent(1, 2, seed=0)
        with pytest.raises(ValueError):
            mc_normalization(flow, latent, ((-8, 8), (-8, 8)), 0)

    def test_narrow_box_warns_and_underestimates(self):
        flow = init_flow(2, hidden=4, seed=10)
        latent = init_latent(1, 2, seed=11)
        mass, _, warn = mc_normalization(flow, latent,
                                         ((-0.5, 0.5), (-0.5, 0.5)), 50_000, seed=12)
        assert warn
        assert mass < 0.9

    def test_wrong_dimension_rejected(self):
        flow = init_flow(4, hidden=4, seed=0)
        latent = init_latent(1, 4, seed=0)
        with pytest.raises(ValueError):
            mc_normalization(flow, latent, ((-8, 8), (-8, 8)), 100)

    def test_standard_error_scales_with_samples(self):
        flow = init_flow(2, hidden=4, seed=13)
        latent = init_latent(2, 2, seed=14)
        _, se4, _ = mc_normalization(flow, latent, ((-8, 8), (-8, 8)), 10_000, seed=15)
        _, se6, _ = mc_normalization(flow, latent, ((-8, 8), (-8, 8)), 1_000_000,
                                     seed=16)
        ratio = se4 / se6
        assert 5.0 < ratio < 20.0    # ideal sqrt(100) = 10, within a factor 2


class TestGridDump:
    def test_resolution_two_cell_centers(self):
        flow = init_flow(2, hidden=4, seed=17)
        latent = init_latent(1, 2, seed=18)
        dump = grid_density_dump(flow, latent, ((0, 1), (0, 1)), 2)
        assert dump.x.size == 4
        assert (dump.x[0], dump.y[0]) == (0.25, 0.25)
        assert (dump.x[-1], dump.y[-1]) == (0.75, 0.75)
        assert set(zip(dump.x, dump.y)) == {(0.25, 0.25), (0.75, 0.25),
                                            (0.25, 0.75), (0.75, 0.75)}

    def test_values_match_marginal_loglik_bitwise(self):
        flow = randomize_conditioners(init_flow(2, hidden=8, seed=19), seed=20)
        latent = init_latent(2, 2, seed=21)
        dump = grid_density_dump(flow, latent, ((-3, 3), (-3, 3)), 5)
        pts = np.column_stack([dump.x, dump.y])
        np.testing.assert_array_equal(dump.logp,
                                      marginal_loglik(pts, flow, latent).data)

    def test_argmax_near_latent_mean_preimage_for_identity_flow(self):
        flow = init_flow(2, hidden=4, seed=22)
        latent = init_latent(1, 2, seed=23)
        dump = grid_density_dump(flow, latent, ((-4, 4), (-4, 4)), 64)
        best = np.argmax(dump.logp)
        peak = np.array([dump.x[best], dump.y[best]])
        preimage = latent.means[0][::-1]     # identity flow inverts the reversal
        cell = 8.0 / 64
        assert np.abs(peak - preimage).max() <= cell
