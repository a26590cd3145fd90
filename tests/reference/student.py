"""The student's tape reference.

``semisup.student_step`` and ``perturb.vat_perturbation`` compute their
gradients by hand. Here the same objectives are built on the ``diffcore``
tape: the student's encoder and decoder forwards, its three losses and the
two tape primitives that only they use. ``tape_reference`` and
``tape_vat_perturbation`` take the gradients with ``dc.grad``, and the tests
require the hand-derived values to equal them bit for bit.

The forwards wrap each parameter array in a fresh tensor. Tape gradients
with respect to the parameters need a model whose arrays are leaf tensors:
``leaf_twin(model)`` (``tests/leaf_twin.py``).
"""

from __future__ import annotations

import numpy as np

from densitydescent import diffcore as dc
from densitydescent.latent import logsumexp_softmax
from densitydescent.perturb import _normalize_rows
from densitydescent.semisup import PseudoLabelBatch

# ---------------------------------------------------------------------------
# primitives


def mean(x: dc.Tensor, axis: int | None = None) -> dc.Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return dc.mul(dc.sum(x, axis=axis), dc.as_tensor(1.0 / n))


def softmax_cross_entropy(logits: dc.Tensor, labels) -> dc.Tensor:
    """Per-sample cross-entropy between softmax(logits) and integer labels.

    logits: (N, K); labels: (N,) ints in [0, K). Returns the (N,) vector of
    losses so callers can mask/weight before reducing.
    """
    ld = logits.data
    if ld.ndim != 2:
        raise ValueError("softmax_cross_entropy expects (N, K) logits")
    lab = np.asarray(labels, dtype=np.int64)
    n, k = ld.shape
    if lab.shape != (n,):
        raise ValueError("labels must align with the logit rows")
    if lab.min(initial=0) < 0 or lab.max(initial=0) >= k:
        raise ValueError("label outside [0, n_classes)")
    m = ld.max(axis=1, keepdims=True)
    e = np.exp(ld - m)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    ce = lse - ld[np.arange(n), lab]
    soft = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        gr = soft.copy()
        gr[np.arange(n), lab] -= 1.0
        return (gr * np.asarray(g)[:, None],)

    return dc.Tensor(ce, (logits,), vjp)


# ---------------------------------------------------------------------------
# the student's forwards and losses


def encode(model, x) -> dc.Tensor:
    """The encoder h of a ``semisup.Model``: the features of ``x``."""
    h = dc.tanh(dc.matmul(dc.as_tensor(x), dc.as_tensor(model.enc_w1)) + model.enc_b1)
    return dc.matmul(h, dc.as_tensor(model.enc_w2)) + model.enc_b2


def decode(model, v) -> dc.Tensor:
    """The decoder g of a ``semisup.Model``: the logits of features ``v``."""
    return dc.matmul(dc.as_tensor(v), dc.as_tensor(model.dec_w)) + model.dec_b


def sup_loss(logits: dc.Tensor, labels: np.ndarray) -> dc.Tensor:
    """Mean cross-entropy over the labeled batch."""
    return mean(softmax_cross_entropy(logits, labels))


def masked_consistency_loss(logits: dc.Tensor, pseudo: PseudoLabelBatch) -> dc.Tensor:
    """Cross-entropy vs pseudo labels, masked entries zeroed, mean over batch.

    The image-level term applies it to predictions on the strong view, the
    feature-level term to predictions on the perturbed features."""
    ce = softmax_cross_entropy(logits, pseudo.labels)
    n = ce.shape[0]
    return dc.sum(ce * dc.as_tensor(pseudo.mask)) * (1.0 / n)


def unified_loss(l_sup: dc.Tensor, l_im: dc.Tensor | None,
                 l_ft: dc.Tensor | None, lambda_ft: float) -> dc.Tensor:
    """L = L_sup + L_im + lambda_ft * L_ft, skipping absent terms."""
    total = l_sup
    if l_im is not None:
        total = total + l_im
    if l_ft is not None and lambda_ft > 0:
        total = total + lambda_ft * l_ft
    return total


# ---------------------------------------------------------------------------
# the references of the hand-derived gradients


def tape_reference(model, x_l, y_l, x_s, pseudo, delta, lam, warming=False):
    """Losses and gradients by the tape, built in train_ssl's order."""
    l_sup = sup_loss(decode(model, encode(model, x_l)), y_l)
    l_im = l_ft = None
    if x_s is not None:
        v_s = encode(model, x_s)
        l_im = masked_consistency_loss(decode(model, v_s), pseudo)
        if warming:
            l_ft = dc.as_tensor(0.0)
        elif delta is not None:
            l_ft = masked_consistency_loss(decode(model, v_s + dc.tensor(delta)), pseudo)
    loss = unified_loss(l_sup, l_im, l_ft, lam)
    return l_sup, l_im, l_ft, loss, dc.grad(loss, model.params())


def tape_vat_perturbation(v, eps, logits_fn, rng, xi=1e-2, power_iters=1):
    """The VAT probe as a tape gradient: the reference ``vat_perturbation``
    must match bit for bit."""
    mat = np.asarray(v, dtype=np.float64)
    p = logsumexp_softmax(logits_fn(dc.tensor(mat)).data)[1]
    direction, _ = _normalize_rows(rng.standard_normal(mat.shape))
    for _ in range(power_iters):
        r = dc.tensor(xi * direction)
        logits = logits_fn(dc.tensor(mat) + r)
        log_q = logits - dc.logsumexp(logits, axis=1, keepdims=True)
        objective = -dc.sum(dc.as_tensor(p) * log_q)
        g, = dc.grad(objective, [r])
        direction, _ = _normalize_rows(g)
    return eps * direction
