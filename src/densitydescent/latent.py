"""Gaussian-mixture latent distribution with one component per class.

Component means are drawn once from a standard normal and then frozen;
covariances are identity matrices (stored implicitly, so every Gaussian
evaluation reduces to a squared distance) and the mixture weights are
uniform and never trained. All mixture math stays in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .errors import ConfigError

LOG_2PI = float(np.log(2.0 * np.pi))

# rows per pass of ``marginal_logpdf``: bounds its working memory (the
# hidden activations of one pass) whatever the number of points. BLAS picks
# its matmul kernel by row count, so the last bits of the output depend on
# this value. At 4096 rows the conditioner's (4096, 256) @ (256, 2) product
# is large enough for OpenBLAS to split it across its helper threads. With
# OPENBLAS_NUM_THREADS=2 and the other core busy, as it is while ``verify``'s
# worker runs there, one such call took 2.3 ms against 0.42 ms for the same
# rows as eight 512-row calls, whose time does not depend on the thread
# count (2-core Xeon, OpenBLAS 0.3.31). So 512-row passes stay on the
# calling thread, as training's 64-256-row batches do.
BLOCK_ROWS = 512


@dataclass(frozen=True)
class GmmLatent:
    means: np.ndarray        # (K, d), frozen after init
    log_weights: np.ndarray  # (K,), log mixture weights
    seed: int = 0

    @property
    def n_components(self) -> int:
        return self.means.shape[0]


def init_latent(n_components: int, dim: int, seed: int = 0) -> GmmLatent:
    """Draw component means from N(0, I); the weights are uniform."""
    if n_components < 1 or dim < 1:
        raise ConfigError(
            f"need n_components >= 1 and dim >= 1, got K={n_components}, d={dim}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_components, dim))
    log_w = np.full(n_components, -np.log(n_components))
    return GmmLatent(means=means, log_weights=log_w, seed=seed)


def gaussian_logpdf(z, mean) -> dc.Tensor:
    """log N(z | mean, I) = -d/2 log(2 pi) - ||z - mean||^2 / 2.

    z may be a vector, a batch, or a graph tensor; mean may be a single
    vector or per-row means aligned with a batch.
    """
    zt = dc.as_tensor(z)
    mu = np.asarray(mean, dtype=np.float64)
    d = zt.shape[-1]
    diff = zt - dc.as_tensor(mu)
    if diff.ndim == 1:
        q = dc.sum(diff * diff)
    else:
        q = dc.sum(diff * diff, axis=1)
    return q * (-0.5) + (-0.5 * d * LOG_2PI)


def _row_const(latent: GmmLatent) -> np.ndarray:
    """Per-component constant of the expanded log-density:
    log pi_k - ||mu_k||^2 / 2 - d/2 log(2 pi)."""
    mu = latent.means
    d = mu.shape[1]
    return latent.log_weights - 0.5 * np.einsum("kd,kd->k", mu, mu) - 0.5 * d * LOG_2PI


def mixture_logpdf(z, latent: GmmLatent) -> dc.Tensor:
    """log sum_k pi_k N(z | mu_k, I), evaluated with logsumexp.

    Expands the squared distance so a batch against all K components is one
    matrix product; equal to stacking ``gaussian_logpdf`` per component up
    to float roundoff.
    """
    zt = dc.as_tensor(z)
    single = zt.ndim == 1
    if single:
        zt = dc.reshape(zt, (1, zt.shape[0]))
    cross = dc.matmul(zt, dc.as_tensor(latent.means.T))  # (N, K)
    sq = dc.sum(zt * zt, axis=1, keepdims=True)          # (N, 1)
    comp = cross + sq * (-0.5) + dc.as_tensor(_row_const(latent))
    out = dc.logsumexp(comp, axis=1)
    return dc.reshape(out, ()) if single else out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (N, K) array, max-shifted for stability."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=1, keepdims=True)


def _mixture_comp_ll(z: np.ndarray, latent: GmmLatent) -> tuple[np.ndarray, np.ndarray]:
    """Per-component log-terms (N, K) of an (N, d) array and their logsumexp,
    the mixture log-density; the same arithmetic as ``mixture_logpdf``."""
    comp = z @ latent.means.T + (z * z).sum(axis=1, keepdims=True) * (-0.5) \
        + _row_const(latent)
    m = comp.max(axis=1, keepdims=True)
    return comp, m[:, 0] + np.log(np.exp(comp - m).sum(axis=1))


def mixture_logpdf_grad(z: np.ndarray, latent: GmmLatent) -> tuple[np.ndarray, np.ndarray]:
    """``mixture_logpdf`` of an (N, d) array and its z-gradient.

    The gradient is softmax(comp) @ mu - z: the responsibility-weighted pull
    toward the component means.
    """
    comp, ll = _mixture_comp_ll(z, latent)
    return ll, softmax(comp) @ latent.means - z


def gaussian_logpdf_grad(z: np.ndarray, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``gaussian_logpdf`` of an (N, d) array against per-row means, and its
    z-gradient -(z - mean)."""
    diff = z - mean
    ll = (diff * diff).sum(axis=1) * (-0.5) + (-0.5 * z.shape[1] * LOG_2PI)
    return ll, -diff


def component_means(labels, latent: GmmLatent) -> np.ndarray:
    """Each label's component mean; rejects indices outside [0, K)."""
    lab = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if lab.size and (lab.min() < 0 or lab.max() >= latent.n_components):
        raise ValueError(
            f"class index outside [0, {latent.n_components}): {lab.min()}..{lab.max()}")
    return latent.means[lab]


def class_conditional_loglik(v, labels, flow_model, latent: GmmLatent) -> dc.Tensor:
    """log p(v | y=k): likelihood under the class's own latent component.

    ``labels`` is one class index for a single vector or an aligned vector
    of indices for a batch (0-based).
    """
    from .flow import flow_forward

    mu = component_means(labels, latent)
    z, logdet = flow_forward(v, flow_model)
    if z.ndim == 1:
        mu = mu[0]
    return gaussian_logpdf(z, mu) + logdet


def marginal_loglik(v, flow_model, latent: GmmLatent) -> dc.Tensor:
    """log p(v) through the full mixture; differentiable w.r.t. v."""
    from .flow import flow_forward

    z, logdet = flow_forward(v, flow_model)
    return mixture_logpdf(z, latent) + logdet


def marginal_logpdf(v: np.ndarray, flow_model, latent: GmmLatent) -> np.ndarray:
    """log p(v) of an (N, d) array, forward only, ``BLOCK_ROWS`` rows at a time.

    Runs the analytic kernel's coupling step instead of the tape and drops
    each coupling block's activations as soon as the block has run, so one
    (``BLOCK_ROWS``, hidden) array is live at a time and memory stays flat
    in N. Inside one block the values equal ``marginal_loglik`` bit for
    bit; across blocks they can differ in the last digits, since the matrix
    products are blocked differently.
    """
    from .flow import _coupling_np, _rows_np

    x = _rows_np(v, flow_model)
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], BLOCK_ROWS):
        z = x[start:start + BLOCK_ROWS]
        logdet = None
        for i, block in enumerate(flow_model.blocks):
            if i:
                z = z[:, flow_model.perm]
            z, ld = _coupling_np(block, z)[:2]
            logdet = ld if logdet is None else logdet + ld
        out[start:start + BLOCK_ROWS] = _mixture_comp_ll(z, latent)[1] + logdet
    return out
