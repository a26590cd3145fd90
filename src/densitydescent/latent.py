"""Gaussian-mixture latent distribution with one component per class.

Component means are drawn once from a standard normal and then frozen;
covariances are identity matrices (stored implicitly, so every Gaussian
evaluation reduces to a squared distance) and the mixture weights are
uniform and never trained. All mixture math stays in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    # per-component constant of the expanded log-density, set when built:
    # log pi_k - ||mu_k||^2 / 2 - d/2 log(2 pi)
    const: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = self.means
        object.__setattr__(self, "const", self.log_weights - 0.5 * np.einsum("kd,kd->k", mu, mu)
                           - 0.5 * mu.shape[1] * LOG_2PI)

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
    """log N(z | mean, I) = -d/2 log(2 pi) - ||z - mean||^2 / 2 per row.

    z is an (N, d) array or graph tensor; mean is one vector or per-row
    means aligned with it.
    """
    zt = dc.as_batch(z)
    diff = zt - dc.as_tensor(np.asarray(mean, dtype=np.float64))
    return dc.sum(diff * diff, axis=1) * (-0.5) + (-0.5 * zt.shape[1] * LOG_2PI)


def mixture_logpdf(z, latent: GmmLatent) -> dc.Tensor:
    """log sum_k pi_k N(z | mu_k, I), evaluated with logsumexp.

    Expands the squared distance so a batch against all K components is one
    matrix product; equal to stacking ``gaussian_logpdf`` per component up
    to float roundoff. z is an (N, d) array or graph tensor.
    """
    zt = dc.as_batch(z)
    cross = dc.matmul(zt, dc.as_tensor(latent.means.T))  # (N, K)
    sq = dc.sum(zt * zt, axis=1, keepdims=True)          # (N, 1)
    comp = cross + sq * (-0.5) + dc.as_tensor(latent.const)
    return dc.logsumexp(comp, axis=1)


def logsumexp_softmax(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-sum-exp of an (N, K) array and its softmax, both from
    one max-shifted exponential."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=1, keepdims=True)
    return m[:, 0] + np.log(s[:, 0]), e / s


def _mixture_terms(z: np.ndarray, latent: GmmLatent) -> tuple[np.ndarray, np.ndarray]:
    """The mixture log-density of an (N, d) array and each row's component
    responsibilities; the same arithmetic as ``mixture_logpdf``."""
    return logsumexp_softmax(z @ latent.means.T + (z * z).sum(axis=1, keepdims=True) * (-0.5)
                             + latent.const)


def mixture_logpdf_grad(z: np.ndarray, latent: GmmLatent) -> tuple[np.ndarray, np.ndarray]:
    """``mixture_logpdf`` of an (N, d) array and its z-gradient.

    The gradient is softmax(comp) @ mu - z: the responsibility-weighted pull
    toward the component means.
    """
    ll, resp = _mixture_terms(z, latent)
    return ll, resp @ latent.means - z


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
    """log p(v | y=k) of each row of an (N, d) batch under its class's own
    latent component; ``labels`` holds one 0-based class index per row."""
    from .flow import flow_forward

    mu = component_means(labels, latent)
    z, logdet = flow_forward(v, flow_model)
    return gaussian_logpdf(z, mu) + logdet


def marginal_loglik(v, flow_model, latent: GmmLatent) -> dc.Tensor:
    """log p(v) of an (N, d) batch through the full mixture; differentiable in v."""
    from .flow import flow_forward

    z, logdet = flow_forward(v, flow_model)
    return mixture_logpdf(z, latent) + logdet


def marginal_logpdf(v: np.ndarray, flow_model, latent: GmmLatent) -> np.ndarray:
    """log p(v) of an (N, d) array, forward only, ``BLOCK_ROWS`` rows at a time.

    Runs the analytic kernel instead of the tape, keeping no activations
    (``kernel_forward(..., keep=False)``), so one (``BLOCK_ROWS``, hidden)
    array is live at a time and memory stays flat in N. Inside one block
    the values equal ``marginal_loglik`` bit for bit; across blocks they
    can differ in the last digits, since the matrix products are blocked
    differently.
    """
    from .flow import kernel_forward

    x = np.asarray(v, dtype=np.float64)
    out = np.empty(len(x))
    for start in range(0, len(x), BLOCK_ROWS):
        z, logdet, _ = kernel_forward(x[start:start + BLOCK_ROWS], flow_model, keep=False)
        out[start:start + BLOCK_ROWS] = _mixture_terms(z, latent)[0] + logdet
    return out
