"""Parity of the analytic flow kernel with the tape.

The flow step and the density gradient run on hand-derived numpy forward
and VJP code; the tape route (``flow_loss``, ``flow_forward``,
``marginal_loglik`` with ``dc.grad``) is the reference. Both run in
float64, so the tolerance is 1e-10 relative to the largest reference entry.
"""

import numpy as np
import pytest

from densitydescent import diffcore as dc
from densitydescent.errors import NumericError
from densitydescent.estimator import FeaturePool, flow_loss, flow_train_step
from densitydescent.flow import (flow_forward, init_flow, kernel_backward,
                                 kernel_forward, randomize_conditioners)
from densitydescent.latent import init_latent, marginal_loglik
from densitydescent.optim import Adam
from densitydescent.perturb import density_gradient

RTOL = 1e-10

# (blocks, hidden, rows, d): the benchmark, fit-density and criterion 5
# shapes at d = 2, plus a wider feature dimension
SHAPES = [(2, 256, 64, 2), (2, 128, 256, 2), (4, 256, 256, 2), (2, 64, 48, 8)]
POOLS = ["labeled", "unlabeled", "mixed"]


def assert_close(actual, reference):
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape
    scale = max(float(np.abs(reference).max()), 1e-300)
    assert float(np.abs(actual - reference).max()) <= RTOL * scale


def random_flow(blocks, hidden, d, seed):
    flow = init_flow(d, blocks, hidden, seed=seed)
    return randomize_conditioners(flow, scale=1.0, seed=seed + 1)


class RecordingOptimizer:
    """Stands in for Adam: keeps the gradients instead of applying them."""

    lr = 1e-3

    def __init__(self):
        self.grads = None

    def step(self, grads):
        self.grads = grads


def make_pool(kind, rows, d, n_classes, rng):
    n_l = {"labeled": rows, "unlabeled": 0, "mixed": rows // 2}[kind]
    labeled = rng.standard_normal((n_l, d)) * 1.5
    labels = rng.integers(0, n_classes, n_l)
    unlabeled = rng.standard_normal((rows - n_l, d)) * 1.5
    return FeaturePool(labeled=labeled, labels=labels, unlabeled=unlabeled)


@pytest.mark.parametrize("pool_kind", POOLS)
@pytest.mark.parametrize("blocks,hidden,rows,d", SHAPES)
def test_flow_step_matches_tape(blocks, hidden, rows, d, pool_kind):
    flow = random_flow(blocks, hidden, d, seed=blocks + hidden + d)
    latent = init_latent(3, d, seed=5)
    pool = make_pool(pool_kind, rows, d, 3, np.random.default_rng(rows))
    loss = flow_loss(pool.labeled, pool.labels, pool.unlabeled, flow, latent)
    reference = dc.grad(loss, flow.params())

    opt = RecordingOptimizer()
    value = flow_train_step(pool, flow, latent, opt)
    assert value == pytest.approx(float(loss.data), rel=RTOL, abs=0.0)
    assert len(opt.grads) == 4 * blocks
    for g, ref in zip(opt.grads, reference):
        assert_close(g, ref)


@pytest.mark.parametrize("blocks,hidden,rows,d", SHAPES)
def test_density_gradient_matches_tape(blocks, hidden, rows, d):
    flow = random_flow(blocks, hidden, d, seed=2 * blocks + hidden + d)
    latent = init_latent(2, d, seed=6)
    v = np.random.default_rng(d).standard_normal((rows, d)) * 1.5
    leaf = dc.tensor(v.copy())
    reference, = dc.grad(-dc.sum(marginal_loglik(leaf, flow, latent)), [leaf])
    assert_close(density_gradient(v, flow, latent), reference)

    single = dc.tensor(v[0].copy())
    reference, = dc.grad(-marginal_loglik(single, flow, latent), [single])
    g = density_gradient(v[0], flow, latent)
    assert g.shape == (d,)
    assert_close(g, reference)


@pytest.mark.parametrize("blocks,d", [(2, 2), (3, 6)])
def test_backward_matches_tape_for_any_cotangent(blocks, d):
    # the VJP of (z, logdet) against arbitrary per-row cotangents
    flow = random_flow(blocks, 32, d, seed=11)
    rng = np.random.default_rng(12)
    v = rng.standard_normal((10, d))
    gz, gld = rng.standard_normal((10, d)), rng.standard_normal(10)
    leaf = dc.tensor(v.copy())
    z_t, ld_t = flow_forward(leaf, flow)
    objective = dc.sum(z_t * dc.tensor(gz)) + dc.sum(ld_t * dc.tensor(gld))
    reference = dc.grad(objective, [leaf] + flow.params())

    z, logdet, saved = kernel_forward(v, flow)
    assert_close(z, z_t.data)
    assert_close(logdet, ld_t.data)
    gv, grads = kernel_backward(flow, saved, gz, gld, params=True)
    for g, ref in zip([gv] + grads, reference):
        assert_close(g, ref)
    gv_only, none = kernel_backward(flow, saved, gz, gld)
    assert none is None
    np.testing.assert_array_equal(gv_only, gv)


def test_flow_step_updates_like_tape_adam():
    # one Adam step from the kernel gradients lands on the tape's parameters
    flow_k = random_flow(2, 64, 2, seed=21)
    flow_t = random_flow(2, 64, 2, seed=21)
    latent = init_latent(2, 2, seed=22)
    pool = make_pool("mixed", 40, 2, 2, np.random.default_rng(23))
    flow_train_step(pool, flow_k, latent, Adam(flow_k.params(), lr=1e-2))
    loss = flow_loss(pool.labeled, pool.labels, pool.unlabeled, flow_t, latent)
    Adam(flow_t.params(), lr=1e-2).step(dc.grad(loss, flow_t.params()))
    for pk, pt in zip(flow_k.params(), flow_t.params()):
        assert_close(pk.data, pt.data)


def test_kernel_rejects_wrong_dimension():
    flow = init_flow(4, hidden=8, seed=0)
    with pytest.raises(ValueError):
        kernel_forward(np.zeros((3, 2)), flow)
    with pytest.raises(ValueError):
        density_gradient(np.zeros((2, 3, 4)), flow, init_latent(2, 4, seed=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_density_gradient_overflow_raises_numeric_error():
    flow = random_flow(2, 16, 2, seed=31)
    flow.blocks[0].b2.data[:] = 1e308   # forces an overflow in the forward pass
    latent = init_latent(2, 2, seed=32)
    v = np.random.default_rng(33).standard_normal((8, 2))
    with pytest.raises(NumericError):
        density_gradient(v, flow, latent)
    with pytest.raises(NumericError):
        density_gradient(v[0], flow, latent)
