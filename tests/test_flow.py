import numpy as np
import pytest

from densitydescent import diffcore as dc
from densitydescent.errors import ConfigError
from densitydescent.estimator import FlowTrainConfig, fit_density
from densitydescent.flow import (CouplingBlock, coupling_forward, coupling_inverse,
                                 flow_forward, flow_inverse, init_flow,
                                 load_checkpoint, randomize_conditioners,
                                 save_checkpoint)
from densitydescent.latent import init_latent
from densitydescent.oracle import numeric_jacobian_logdet


def random_flow(d, seed=0, scale=0.6, hidden=32, n_blocks=2):
    return randomize_conditioners(
        init_flow(d, n_blocks=n_blocks, hidden=hidden, seed=seed),
        scale=scale, seed=seed + 1)


class TestCouplingBlock:
    def test_zero_conditioner_is_identity(self):
        flow = init_flow(6, hidden=8, seed=0)
        v = np.random.default_rng(0).standard_normal((10, 6))
        out, logdet = coupling_forward(v, flow.blocks[0])
        np.testing.assert_array_equal(out.data, v)
        np.testing.assert_array_equal(logdet.data, np.zeros(10))

    def test_inverse_roundtrip(self):
        flow = random_flow(16)
        v = np.random.default_rng(1).standard_normal((1000, 16))
        out, _ = coupling_forward(v, flow.blocks[0])
        back = coupling_inverse(out.data, flow.blocks[0])
        assert np.abs(back - v).max() < 1e-10

    def test_logdet_matches_numeric_jacobian(self):
        flow = random_flow(4)
        flow.blocks = flow.blocks[:1]
        v = np.random.default_rng(2).standard_normal(4)
        _, logdet = coupling_forward(v, flow.blocks[0])
        numeric = numeric_jacobian_logdet(flow, v)
        assert abs(float(logdet.data) - numeric) / max(1e-12, abs(numeric)) < 1e-4

    def test_scale_clamp_bounds(self):
        flow = random_flow(4, scale=50.0)  # huge weights force saturation
        v = np.random.default_rng(3).standard_normal((200, 4))
        from densitydescent.flow import _conditioner
        s, _ = _conditioner(flow.blocks[0], dc.tensor(v[:, :2]))
        assert np.abs(s.data).max() <= flow.s_max

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            coupling_forward(np.zeros(5), CouplingBlock(
                w1=dc.tensor(np.zeros((2, 4))), b1=dc.tensor(np.zeros(4)),
                w2=dc.tensor(np.zeros((4, 5))), b2=dc.tensor(np.zeros(5)), s_max=2.0))


class TestFlowModel:
    def test_identity_init_is_pure_reversal(self):
        flow = init_flow(8, hidden=16, seed=4)
        v = np.random.default_rng(4).standard_normal((20, 8))
        z, logdet = flow_forward(v, flow)
        np.testing.assert_array_equal(z.data, v[:, ::-1])
        np.testing.assert_array_equal(logdet.data, np.zeros(20))
        np.testing.assert_array_equal(flow_inverse(v, flow), v[:, ::-1])

    def test_identity_roundtrip_of_latent_mean_is_exact(self):
        flow = init_flow(4, hidden=8, seed=5)
        latent = init_latent(3, 4, seed=6)
        mu = latent.means[1:2]
        z, _ = flow_forward(mu, flow)
        back = flow_inverse(z.data, flow)
        np.testing.assert_array_equal(back, mu)

    @pytest.mark.parametrize("d", [2, 8, 16])
    def test_roundtrip_random_flow(self, d):
        flow = random_flow(d, seed=d)
        v = np.random.default_rng(d).standard_normal((500, d))
        z, _ = flow_forward(v, flow)
        assert np.abs(flow_inverse(z.data, flow) - v).max() < 1e-9

    def test_total_logdet_matches_numeric_jacobian_d6(self):
        flow = random_flow(6, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(5):
            v = rng.standard_normal(6)
            _, logdet = flow_forward(v, flow)
            numeric = numeric_jacobian_logdet(flow, v)
            assert abs(float(logdet.data) - numeric) / max(1e-12, abs(numeric)) < 1e-4

    def test_single_vector_and_batch_agree(self):
        flow = random_flow(4, seed=11)
        v = np.random.default_rng(11).standard_normal(4)
        z_single, ld_single = flow_forward(v, flow)
        z_batch, ld_batch = flow_forward(v[None, :], flow)
        np.testing.assert_array_equal(z_single.data, z_batch.data[0])
        assert float(ld_single.data) == float(ld_batch.data[0])
        assert ld_single.data.shape == ()

    def test_dimension_mismatch_rejected(self):
        flow = init_flow(4, hidden=8, seed=0)
        with pytest.raises(ValueError):
            flow_forward(np.zeros((3, 6)), flow)
        # the inverse takes (N, d) batches only: a lone vector is refused too
        for shape in [(3, 6), (4,), (1, 1, 4)]:
            with pytest.raises(ValueError, match=r"expected an \(N, 4\) batch"):
                flow_inverse(np.zeros(shape), flow)

    def test_odd_dimension_rejected_at_config_time(self):
        with pytest.raises(ConfigError):
            init_flow(7)

    def test_deeper_stack_knob(self):
        flow = random_flow(4, seed=12, n_blocks=4)
        v = np.random.default_rng(12).standard_normal((50, 4))
        z, _ = flow_forward(v, flow)
        assert np.abs(flow_inverse(z.data, flow) - v).max() < 1e-9

    def test_inverse_of_trained_flow_on_latent_samples_is_finite(self):
        rng = np.random.default_rng(13)
        flow = init_flow(2, hidden=16, seed=13)
        latent = init_latent(2, 2, seed=14)
        pts = rng.standard_normal((400, 2)) * 0.4 + np.array([1.0, -0.5])
        fit_density(pts[:200], np.zeros(200, dtype=int), pts[200:], flow, latent,
                    FlowTrainConfig(), steps=100, batch=64, rng=rng)
        comp = rng.integers(0, 2, size=100)
        z = latent.means[comp] + rng.standard_normal((100, 2))
        v = flow_inverse(z, flow)
        assert np.isfinite(v).all()


class TestCheckpoint:
    def test_roundtrip_is_lossless(self, tmp_path):
        flow = random_flow(6, seed=21)
        latent = init_latent(4, 6, seed=22)
        path = tmp_path / "model.npz"
        save_checkpoint(path, flow, latent)
        flow2, latent2 = load_checkpoint(path)
        assert flow2.d == flow.d and flow2.s_max == flow.s_max
        assert flow2.hidden == flow.hidden and flow2.seed == flow.seed
        for b1, b2 in zip(flow.blocks, flow2.blocks):
            for p, q in zip(b1.params(), b2.params()):
                np.testing.assert_array_equal(p, q)
        np.testing.assert_array_equal(latent.means, latent2.means)
        np.testing.assert_array_equal(latent.log_weights, latent2.log_weights)
        assert latent2.seed == latent.seed

    def test_checkpoint_reproduces_densities(self, tmp_path):
        from densitydescent.latent import marginal_loglik
        flow = random_flow(4, seed=23)
        latent = init_latent(2, 4, seed=24)
        path = tmp_path / "model.npz"
        save_checkpoint(path, flow, latent)
        flow2, latent2 = load_checkpoint(path)
        v = np.random.default_rng(25).standard_normal((50, 4))
        np.testing.assert_array_equal(marginal_loglik(v, flow, latent).data,
                                      marginal_loglik(v, flow2, latent2).data)
