"""The hand-derived student step against the tape.

``student_step`` must give the losses and the six parameter gradients of
``dc.grad`` on ``unified_loss`` (``reference.student.tape_reference``)
exactly, not merely closely: train_ssl's outputs are byte-stable across the
switch only if every sum is taken in the tape's order.
"""

from dataclasses import replace

import numpy as np
import pytest

from densitydescent import diffcore as dc
from densitydescent.data import make_dataset
from densitydescent.perturb import KINDS
from densitydescent.semisup import PseudoLabelBatch, init_model, student_step, train_ssl
from leaf_twin import leaf_twin, param_views
from recipe import two_moons_benchmark
from reference.student import encode, tape_reference


def make_case(n_l=8, n_s=16, hidden=64, feature_dim=2, k=2, mask="mixed",
              seed=0):
    rng = np.random.default_rng(seed)
    model = init_model(2, hidden, feature_dim, k, seed=seed + 1)
    x_l = rng.standard_normal((n_l, 2))
    y_l = rng.integers(0, k, n_l)
    x_s = rng.standard_normal((n_s, 2))
    masks = {"mixed": (rng.random(n_s) > 0.4).astype(float),
             "zero": np.zeros(n_s), "one": np.ones(n_s)}
    pseudo = PseudoLabelBatch(labels=rng.integers(0, k, n_s), mask=masks[mask])
    delta = 0.3 * rng.standard_normal((n_s, feature_dim))
    return model, x_l, y_l, x_s, pseudo, delta


def assert_step_equals_tape(model, x_l, y_l, x_s, pseudo, delta, lam,
                            warming=False):
    seen = []

    def perturb(v):
        seen.append(v.copy())
        return delta

    use_perturb = x_s is not None and delta is not None and not warming
    step = student_step(model, x_l, y_l, x_s, pseudo,
                        perturb if use_perturb else None, lam)
    l_sup, l_im, l_ft, loss, grads = tape_reference(
        leaf_twin(model), x_l, y_l, x_s, pseudo, delta, lam, warming)

    assert step.l_sup == float(l_sup.data)
    assert step.loss == float(loss.data)
    if x_s is None:
        assert step.l_im is None
    else:
        assert step.l_im == float(l_im.data)
    if use_perturb and lam > 0:
        assert step.l_ft == float(l_ft.data)
        assert len(seen) == 1
        assert np.array_equal(seen[0], encode(model, x_s).data)
    else:
        assert step.l_ft is None
    assert len(grads) == 6
    for hand, tape in zip(param_views(step.grad, model), grads):
        assert np.array_equal(hand, tape)


@pytest.mark.parametrize("lam", [1.0, 0.5, 2.0])
def test_full_objective(lam):
    assert_step_equals_tape(*make_case(), lam)


def test_lambda_zero_drops_the_feature_term():
    assert_step_equals_tape(*make_case(seed=3), 0.0)


def test_warming_estimator():
    # before the flow's first step the feature loss is a constant zero
    assert_step_equals_tape(*make_case(seed=4), 1.0, warming=True)


def test_supervised_only():
    model, x_l, y_l, *_ = make_case(seed=5)
    assert_step_equals_tape(model, x_l, y_l, None, None, None, 1.0)


@pytest.mark.parametrize("mask", ["zero", "one"])
def test_uniform_pseudo_label_mask(mask):
    assert_step_equals_tape(*make_case(mask=mask, seed=6), 1.0)


def test_single_labeled_row():
    assert_step_equals_tape(*make_case(n_l=1, seed=7), 1.0)


def test_non_default_widths():
    assert_step_equals_tape(*make_case(hidden=7, feature_dim=4, k=3, seed=8), 1.0)


def test_zero_mask_gives_supervised_gradient():
    model, x_l, y_l, x_s, pseudo, delta = make_case(mask="zero", seed=9)
    full = student_step(model, x_l, y_l, x_s, pseudo, lambda v: delta, 1.0)
    sup = student_step(model, x_l, y_l)
    assert full.l_im == 0.0 and full.l_ft == 0.0
    assert np.array_equal(full.grad, sup.grad)
    assert not np.shares_memory(full.grad, sup.grad)


@pytest.mark.parametrize("kind", KINDS)
def test_train_ssl_needs_no_tape_gradient(kind, monkeypatch):
    # every perturbation kind, vat-lite's classifier probe included, and the
    # student step take their gradients by hand: no tape is replayed
    def no_tape(*args, **kwargs):
        raise AssertionError("tape gradient taken")

    monkeypatch.setattr(dc, "grad", no_tape)
    monkeypatch.setattr(dc.Tape, "record", no_tape)
    cfg, spec = two_moons_benchmark()
    cfg = replace(cfg, epochs=3, tau=0.6, perturb=replace(cfg.perturb, kind=kind))
    ds = make_dataset(replace(spec, n=200), seed=1)
    result = train_ssl(cfg, ds)
    assert result.flow_steps > 0 and result.rows[-1]["L_ft"] > 0
