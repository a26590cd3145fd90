"""Each model's parameters are views into one float64 vector, ``flat``.

The optimizers and the EMA update step that vector as a whole, so every
named array must stay a view of it, laid out in ``params()`` order, through
construction, cloning, checkpoint loading and training.
"""

import hashlib
from dataclasses import replace

import numpy as np

from densitydescent.data import make_dataset
from densitydescent.flow import (init_flow, load_checkpoint, randomize_conditioners,
                                 save_checkpoint)
from densitydescent.latent import init_latent
from densitydescent.optim import Adam, MomentumSGD
from densitydescent.semisup import init_model, params_digest, train_ssl
from recipe import two_moons_benchmark


def small_flow():
    return randomize_conditioners(init_flow(4, 3, 8, seed=1), scale=0.5, seed=2)


def assert_tiles_flat(model):
    """The params are views of ``flat``, back to back in ``params()`` order."""
    flat = model.flat
    assert flat.dtype == np.float64 and flat.ndim == 1
    base = flat.__array_interface__["data"][0]
    offset = 0
    for p in model.params():
        assert np.shares_memory(p, flat)
        assert p.__array_interface__["data"][0] - base == offset
        offset += p.nbytes
    assert offset == flat.nbytes
    assert np.array_equal(np.concatenate([p.ravel() for p in model.params()]), flat)


def assert_disjoint(a, b):
    assert not np.shares_memory(a.flat, b.flat)
    for p in a.params():
        for q in b.params():
            assert not np.shares_memory(p, q)


def test_fresh_and_cloned_student_tile_their_vector():
    model = init_model(3, 7, 4, 3, seed=0)
    assert_tiles_flat(model)
    clone = model.clone()
    assert_tiles_flat(clone)
    assert np.array_equal(clone.flat, model.flat)
    assert_disjoint(clone, model)


def test_fresh_and_loaded_flow_tile_their_vector(tmp_path):
    flow = small_flow()
    assert_tiles_flat(flow)
    path = tmp_path / "flow.npz"
    save_checkpoint(path, flow, init_latent(2, 4, seed=3))
    loaded, _ = load_checkpoint(path)
    assert_tiles_flat(loaded)
    assert np.array_equal(loaded.flat, flow.flat)


def test_optimizer_step_moves_views_and_vector():
    rng = np.random.default_rng(4)
    for model, opt_class in ((init_model(2, 5, 2, 2, seed=5), MomentumSGD),
                             (small_flow(), Adam)):
        before = [p.copy() for p in model.params()]
        flat_before = model.flat.copy()
        opt = opt_class(model.flat, lr=0.1)
        opt.step([rng.standard_normal(p.shape) for p in model.params()])
        assert not np.array_equal(model.flat, flat_before)
        for b, p in zip(before, model.params()):
            assert not np.array_equal(b, p)
        assert_tiles_flat(model)


def test_teacher_shares_no_memory_with_student():
    cfg, spec = two_moons_benchmark()
    cfg = replace(cfg, epochs=2)
    result = train_ssl(cfg, make_dataset(replace(spec, n=120), seed=6))
    for model in (result.student, result.teacher, result.flow_model):
        assert_tiles_flat(model)
    assert_disjoint(result.teacher, result.student)
    assert not np.array_equal(result.teacher.flat, result.student.flat)


def test_digest_of_vector_is_digest_of_arrays():
    for model in (init_model(2, 6, 4, 2, seed=7), small_flow()):
        joined = b"".join(p.tobytes() for p in model.params())
        expected = hashlib.sha256(joined).hexdigest()
        assert params_digest([model.flat]) == expected
        assert params_digest(model.params()) == expected


def test_benchmark_checkpoint_comparison_on_plain_arrays(tmp_path):
    # the benchmark's round-trip check compares ``a.data`` with ``b.data``
    # over ``params()``; on an ndarray ``.data`` is a memoryview, which numpy
    # reads back as the same float64 array
    flow, latent = small_flow(), init_latent(2, 4, seed=8)
    path = tmp_path / "flow.npz"
    save_checkpoint(path, flow, latent)
    loaded, _ = load_checkpoint(path)

    def same(a_model, b_model):
        return all(np.array_equal(a.data, b.data)
                   for a, b in zip(a_model.params(), b_model.params()))

    assert same(flow, loaded)
    w = loaded.blocks[1].w2
    w[3, 1] = np.nextafter(w[3, 1], np.inf)
    assert not same(flow, loaded)
