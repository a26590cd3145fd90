"""Parity of the analytic flow kernel with the tape.

The flow step, the density gradient and forward-only log-density evaluation
run on hand-derived numpy forward and VJP code; the tape route (``flow_loss``, ``flow_forward``,
``marginal_loglik`` with ``dc.grad``) is the reference. Both run in
float64, so the tolerance is 1e-10 relative to the largest reference entry.
"""

import tracemalloc

import numpy as np
import pytest

from densitydescent import diffcore as dc
from densitydescent.errors import NumericError
from densitydescent.estimator import FeaturePool, flow_loss, flow_train_step
from densitydescent.flow import (flow_forward, init_flow, kernel_backward, kernel_forward,
                                 randomize_conditioners)
from densitydescent.latent import (BLOCK_ROWS, init_latent, marginal_logpdf,
                                   marginal_loglik)
from densitydescent.optim import Adam
from densitydescent.oracle import mc_normalization
from densitydescent.perturb import density_gradient
from leaf_twin import leaf_twin

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
    twin = leaf_twin(flow)
    loss = flow_loss(pool.labeled, pool.labels, pool.unlabeled, twin, latent)
    reference = dc.grad(loss, twin.params())

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
    assert_close(density_gradient(v[0][None], flow, latent)[0], reference)


@pytest.mark.parametrize("blocks,d", [(2, 2), (3, 6)])
def test_backward_matches_tape_for_any_cotangent(blocks, d):
    # the VJP of (z, logdet) against arbitrary per-row cotangents
    flow = random_flow(blocks, 32, d, seed=11)
    rng = np.random.default_rng(12)
    v = rng.standard_normal((10, d))
    gz, gld = rng.standard_normal((10, d)), rng.standard_normal(10)
    leaf = dc.tensor(v.copy())
    twin = leaf_twin(flow)
    z_t, ld_t = flow_forward(leaf, twin)
    objective = dc.sum(z_t * dc.tensor(gz)) + dc.sum(ld_t * dc.tensor(gld))
    reference = dc.grad(objective, [leaf] + twin.params())

    z, logdet, saved = kernel_forward(v, flow)
    assert_close(z, z_t.data)
    assert_close(logdet, ld_t.data)
    gv, grads = kernel_backward(flow, saved, gz, gld, params=True)
    for g, ref in zip([gv] + grads, reference):
        assert_close(g, ref)
    # backward only reads saved, so a second pull-back gives the same bits
    gv_again, grads_again = kernel_backward(flow, saved, gz, gld, params=True)
    for g_again, g in zip([gv_again] + grads_again, [gv] + grads):
        np.testing.assert_array_equal(g_again, g)
    gv_only, none = kernel_backward(flow, saved, gz, gld)
    assert none is None
    np.testing.assert_array_equal(gv_only, gv)


def test_flow_step_updates_like_tape_adam():
    # one Adam step from the kernel gradients lands on the tape's parameters
    flow_k = random_flow(2, 64, 2, seed=21)
    flow_t = random_flow(2, 64, 2, seed=21)
    latent = init_latent(2, 2, seed=22)
    pool = make_pool("mixed", 40, 2, 2, np.random.default_rng(23))
    flow_train_step(pool, flow_k, latent, Adam(flow_k.flat, lr=1e-2))
    twin_t = leaf_twin(flow_t)
    loss = flow_loss(pool.labeled, pool.labels, pool.unlabeled, twin_t, latent)
    Adam(flow_t.flat, lr=1e-2).step(dc.grad(loss, twin_t.params()))
    for pk, pt in zip(flow_k.params(), flow_t.params()):
        assert_close(pk, pt)


def test_kernel_rejects_wrong_dimension():
    flow = init_flow(4, hidden=8, seed=0)
    with pytest.raises(ValueError):
        kernel_forward(np.zeros((3, 2)), flow)
    with pytest.raises(ValueError):
        density_gradient(np.zeros((2, 3, 4)), flow, init_latent(2, 4, seed=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_density_gradient_overflow_raises_numeric_error():
    flow = random_flow(2, 16, 2, seed=31)
    flow.blocks[0].b2[:] = 1e308   # forces an overflow in the forward pass
    latent = init_latent(2, 2, seed=32)
    v = np.random.default_rng(33).standard_normal((8, 2))
    with pytest.raises(NumericError):
        density_gradient(v, flow, latent)


def test_marginal_logpdf_bitwise_inside_one_block():
    flow = random_flow(2, 64, 2, seed=41)
    latent = init_latent(3, 2, seed=42)
    v = np.random.default_rng(43).standard_normal((BLOCK_ROWS, 2)) * 3.0
    np.testing.assert_array_equal(marginal_logpdf(v, flow, latent),
                                  marginal_loglik(v, flow, latent).data)


@pytest.mark.parametrize("rows", [2 * BLOCK_ROWS + 1, 0])
@pytest.mark.parametrize("d", [2, 8])
def test_marginal_logpdf_across_blocks(rows, d):
    flow = random_flow(2, 32, d, seed=44 + d)
    latent = init_latent(2, d, seed=45)
    v = np.random.default_rng(46).standard_normal((rows, d)) * 2.0
    out = marginal_logpdf(v, flow, latent)
    reference = marginal_loglik(v, flow, latent).data
    assert out.shape == (rows,)
    if rows:
        scale = float(np.abs(reference).max())
        assert float(np.abs(out - reference).max()) <= 1e-12 * scale


def test_mc_normalization_memory_is_flat_in_samples():
    # on the tape, each 100k-row chunk kept every hidden-256 activation alive
    # (about 1.2 GB at its peak); the row-blocked kernel needs a few blocks.
    # The bound is twice the 4.2 MB peak measured with 512-row blocks.
    flow = random_flow(2, 256, 2, seed=47)
    latent = init_latent(2, 2, seed=48)
    tracemalloc.start()
    try:
        mc_normalization(flow, latent, ((-8, 8), (-8, 8)), 200_000, seed=49)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8.4 * 2**20


@pytest.mark.parametrize("d", [2, 8])
def test_marginal_logpdf_keeps_one_block_of_activations(d):
    # a forward-only pass needs one coupling block's (rows, hidden)
    # activations at a time, not every block's until the row block ends
    hidden = 256
    flow = random_flow(2, hidden, d, seed=50 + d)
    latent = init_latent(2, d, seed=51)
    v = np.random.default_rng(52).standard_normal((BLOCK_ROWS, d))
    marginal_logpdf(v, flow, latent)    # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        marginal_logpdf(v, flow, latent)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * BLOCK_ROWS * hidden * 8


class LoopAdam:
    """The per-array Adam loop that the flat-buffer ``Adam`` replaced."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params, self.lr, self.eps = list(params), lr, eps
        self.beta1, self.beta2 = betas
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def test_flat_adam_matches_per_array_loop_bitwise():
    flow, twin = random_flow(2, 64, 2, seed=51), random_flow(2, 64, 2, seed=51)
    latent = init_latent(2, 2, seed=52)
    opt, ref = Adam(flow.flat, lr=1e-2), LoopAdam(twin.params(), lr=1e-2)
    rng = np.random.default_rng(53)
    for _ in range(50):
        pool = make_pool("mixed", 40, 2, 2, rng)
        flow_train_step(pool, flow, latent, opt)
        flow_train_step(pool, twin, latent, ref)
    for p, q in zip(flow.params(), twin.params()):
        np.testing.assert_array_equal(p, q)
