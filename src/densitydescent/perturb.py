"""Feature perturbations: density-descending plus the baseline kinds.

The density-descending direction is the gradient of the negative marginal
log-likelihood under the frozen estimator, L2-normalized per feature and
scaled to the step size. Every perturbation is returned as a plain array,
i.e. a constant with respect to all model parameters; gradients of any loss
built on an injected perturbation never reach the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diffcore as dc
from .errors import ConfigError, NumericError
from .flow import FlowModel, kernel_backward, kernel_forward
from .latent import GmmLatent, mixture_logpdf_grad, softmax

KINDS = ("density-descending", "uniform-noise", "channel-dropout", "vat-lite")
GRAD_FLOOR = 1e-12


@dataclass
class PerturbConfig:
    kind: str = "density-descending"
    eps: float = 4.0                 # full-scale default step size
    eps_relative: bool = False       # if True, eps is in units of feature std
    dropout_rate: float = 0.5
    vat_xi: float = 1e-2
    vat_power_iters: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown perturbation kind {self.kind!r}; one of {KINDS}")
        if self.eps <= 0:
            raise ConfigError("perturbation step size must be positive")
        if not 0.0 < self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in (0, 1)")
        if self.vat_xi <= 0 or self.vat_power_iters < 1:
            raise ConfigError("vat_xi must be positive and vat_power_iters >= 1")


@dataclass
class PerturbStats:
    eps: float = 0.0
    fallbacks: int = 0


def resolve_eps(cfg: PerturbConfig, feats: np.ndarray) -> float:
    """Absolute step size: cfg.eps, or cfg.eps times the feature std."""
    if not cfg.eps_relative:
        return cfg.eps
    sigma = float(np.asarray(feats, dtype=np.float64).std())
    return cfg.eps * sigma


def density_gradient(v, model: FlowModel, latent: GmmLatent) -> np.ndarray:
    """Gradient of -log p(v) w.r.t. v through the full marginal.

    Works on a single vector or a batch (rows are independent samples, so
    each row's gradient is that of its own log-density). Computed with the
    analytic flow kernel; ``marginal_loglik`` on the tape is the reference.
    """
    arr = np.array(v, dtype=np.float64)
    single = arr.ndim == 1
    z, logdet, saved = kernel_forward(arr[None, :] if single else arr, model)
    ll, gz = mixture_logpdf_grad(z, latent)
    ll += logdet
    if not np.isfinite(ll).all():
        bad = np.flatnonzero(~np.isfinite(ll))[:5]
        raise NumericError(
            f"non-finite log-density in forward pass at rows {bad.tolist()}, "
            f"v={np.atleast_2d(arr)[bad].tolist()}")
    g, _ = kernel_backward(model, saved, -gz, -1.0)
    if not np.isfinite(g).all():
        bad = np.argwhere(~np.isfinite(g).all(axis=1)).ravel()[:5]
        raise NumericError(
            f"non-finite density gradient at rows {bad.tolist()}, "
            f"v={np.atleast_2d(arr)[bad].tolist()}")
    return g[0] if single else g


def _normalize_rows(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows plus a mask of rows whose norm sat below the floor."""
    two_d = g.ndim == 2
    mat = g if two_d else g[None, :]
    norms = np.linalg.norm(mat, axis=1)
    small = norms <= GRAD_FLOOR
    safe = np.where(small, 1.0, norms)
    unit = mat / safe[:, None]
    unit[small] = 0.0
    return (unit if two_d else unit[0]), small


def density_descent_perturbation(v, eps: float, model: FlowModel,
                      latent: GmmLatent) -> tuple[np.ndarray, int]:
    """Step of length eps along the density-descending unit direction.

    Features with an (effectively) zero gradient fall back to a zero
    perturbation; the count of such events is returned alongside.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = density_gradient(v, model, latent)
    unit, small = _normalize_rows(g)
    return eps * unit, int(small.sum())


def inject(v: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Perturbation injection: plain addition after a shape check."""
    v = np.asarray(v, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if v.shape != delta.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {delta.shape}")
    return v + delta


def uniform_noise_perturbation(shape, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform[-1,1] direction, L2-normalized per feature, scaled to eps."""
    noise = rng.uniform(-1.0, 1.0, size=shape)
    unit, _ = _normalize_rows(noise)
    return eps * unit


def channel_dropout_perturbation(v: np.ndarray, rate: float,
                                 rng: np.random.Generator) -> np.ndarray:
    """Zero out a fixed fraction of the channels of each feature.

    Returned as a delta (``-v`` on the dropped channels) so injection via
    addition reproduces the masked feature. Exactly round(rate*d) channels
    are dropped per row.
    """
    arr = np.asarray(v, dtype=np.float64)
    two_d = arr.ndim == 2
    mat = arr if two_d else arr[None, :]
    n, d = mat.shape
    k = int(round(rate * d))
    delta = np.zeros_like(mat)
    for i in range(n):
        drop = rng.choice(d, size=k, replace=False)
        delta[i, drop] = -mat[i, drop]
    return delta if two_d else delta[0]


def vat_perturbation(v: np.ndarray, eps: float,
                     logits_fn: Callable[[dc.Tensor], dc.Tensor],
                     rng: np.random.Generator, xi: float = 1e-2,
                     power_iters: int = 1) -> np.ndarray:
    """Single-head adversarial direction via power iteration.

    Starts from a random unit direction, probes the classifier at v + xi*d,
    and replaces d with the normalized gradient of the cross-entropy against
    the unperturbed prediction. The returned step has length eps.
    """
    arr = np.asarray(v, dtype=np.float64)
    two_d = arr.ndim == 2
    mat = arr if two_d else arr[None, :]
    base_logits = logits_fn(dc.tensor(mat)).data
    p = softmax(base_logits)
    direction, _ = _normalize_rows(rng.standard_normal(mat.shape))
    for _ in range(power_iters):
        r = dc.tensor(xi * direction)
        logits = logits_fn(dc.tensor(mat) + r)
        log_q = logits - dc.logsumexp(logits, axis=1, keepdims=True)
        objective = -dc.sum(dc.as_tensor(p) * log_q)
        g, = dc.grad(objective, [r])
        direction, _ = _normalize_rows(g)
    delta = eps * direction
    return delta if two_d else delta[0]


def generate_perturbation(v: np.ndarray, cfg: PerturbConfig, rng: np.random.Generator,
                          flow_model: FlowModel | None = None,
                          latent: GmmLatent | None = None,
                          logits_fn: Callable | None = None,
                          ) -> tuple[np.ndarray, PerturbStats]:
    """Dispatch over the configured kind; returns (delta, stats)."""
    eps = resolve_eps(cfg, v)
    stats = PerturbStats(eps=eps)
    if cfg.kind == "density-descending":
        if flow_model is None or latent is None:
            raise ValueError("density-descending perturbation needs flow and latent")
        delta, stats.fallbacks = density_descent_perturbation(v, eps, flow_model, latent)
    elif cfg.kind == "uniform-noise":
        delta = uniform_noise_perturbation(np.shape(v), eps, rng)
    elif cfg.kind == "channel-dropout":
        delta = channel_dropout_perturbation(v, cfg.dropout_rate, rng)
    elif cfg.kind == "vat-lite":
        if logits_fn is None:
            raise ValueError("vat-lite perturbation needs the student classifier")
        delta = vat_perturbation(v, eps, logits_fn, rng, cfg.vat_xi, cfg.vat_power_iters)
    else:  # pragma: no cover - kinds validated at config time
        raise ConfigError(f"unknown perturbation kind {cfg.kind!r}")
    return delta, stats
