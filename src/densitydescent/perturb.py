"""Feature perturbations: density-descending plus the baseline kinds.

The density-descending direction is the gradient of the negative marginal
log-likelihood under the frozen estimator, L2-normalized per feature and
scaled to the step size. Every perturbation is returned as a plain array,
i.e. a constant with respect to all model parameters; gradients of any loss
built on an injected perturbation never reach the flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, check_fields, knob
from .flow import FlowModel, kernel_backward, kernel_forward
from .latent import GmmLatent, mixture_logpdf_grad, softmax

KINDS = ("density-descending", "uniform-noise", "channel-dropout", "vat-lite")
GRAD_FLOOR = 1e-12


@dataclass
class PerturbConfig:
    kind: str = knob("density-descending", choices=KINDS)
    eps: float = knob(0.25, gt=0)
    eps_relative: bool = True        # if True, eps is in units of feature std
    dropout_rate: float = knob(0.5, gt=0, lt=1)
    vat_xi: float = knob(1e-2, gt=0)
    vat_power_iters: int = knob(1, ge=1)

    def __post_init__(self):
        check_fields(self, "perturb")


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
    analytic flow kernel; the tests compare it with a tape gradient of the
    same log-density, and ``verify`` with central differences of
    ``marginal_logpdf``.
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


def uniform_noise_perturbation(shape, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform[-1,1] direction, L2-normalized per feature, scaled to eps."""
    noise = rng.uniform(-1.0, 1.0, size=shape)
    unit, _ = _normalize_rows(noise)
    return eps * unit


def dropped_channels(rate: float, d: int) -> int:
    """Number of channels that channel dropout zeroes in a d-channel feature."""
    return int(round(rate * d))


def channel_dropout_perturbation(v: np.ndarray, rate: float,
                                 rng: np.random.Generator) -> np.ndarray:
    """Zero out a fixed fraction of the channels of each feature.

    Returned as a delta (``-v`` on the dropped channels) so injection via
    addition reproduces the masked feature. Exactly round(rate*d) channels
    are dropped per row.

    Every row's channels are drawn in one call, from the stream that one
    ``rng.choice(d, size=k, replace=False)`` per row consumes (for d <= 10000;
    ``ssl.feature_dim`` is capped at 1024). ``choice`` runs Floyd's algorithm,
    k bounded draws with draw t in [0, d-k+t], keeping d-k+t instead when the
    draw is already taken, then a Fisher-Yates shuffle of k-1 draws in [0, i]
    for i = k-1..1. The shuffle only reorders a row's set, so its draws are
    consumed and not applied.
    """
    arr = np.asarray(v, dtype=np.float64)
    two_d = arr.ndim == 2
    mat = arr if two_d else arr[None, :]
    n, d = mat.shape
    k = dropped_channels(rate, d)
    highs = np.concatenate([np.arange(d - k, d), np.arange(k - 1, 0, -1)])
    draws = rng.integers(0, np.tile(highs, n), endpoint=True).reshape(n, highs.size)
    rows = np.arange(n)
    taken = np.zeros((n, d), dtype=bool)
    for t in range(k):
        pick = np.where(taken[rows, draws[:, t]], d - k + t, draws[:, t])
        taken[rows, pick] = True
    delta = np.zeros_like(mat)
    delta[taken] = -mat[taken]
    return delta if two_d else delta[0]


def vat_perturbation(v: np.ndarray, eps: float, dec_w: np.ndarray,
                     dec_b: np.ndarray, rng: np.random.Generator,
                     xi: float = 1e-2, power_iters: int = 1) -> np.ndarray:
    """Single-head adversarial direction via power iteration.

    Starts from a random unit direction, probes the affine softmax decoder
    (``dec_w``, ``dec_b``) at v + xi*d, and replaces d with the normalized
    gradient of the cross-entropy against the unperturbed prediction p. With
    q = softmax((v + r) @ W + b), that gradient with respect to r is
    (q * sum(p) - p) @ W.T row-wise, each term formed in the order the tape
    reference forms it, so the bits equal a tape gradient of the same
    objective. The returned step has length eps.
    """
    arr = np.asarray(v, dtype=np.float64)
    two_d = arr.ndim == 2
    mat = arr if two_d else arr[None, :]
    p = softmax(mat @ dec_w + dec_b)
    p_mass = p.sum(axis=1, keepdims=True)
    direction, _ = _normalize_rows(rng.standard_normal(mat.shape))
    for _ in range(power_iters):
        q = softmax((mat + xi * direction) @ dec_w + dec_b)
        g = (q * p_mass - p) @ dec_w.T
        if not np.isfinite(g).all():
            raise NumericError("non-finite VAT probe gradient")
        direction, _ = _normalize_rows(g)
    delta = eps * direction
    return delta if two_d else delta[0]


def generate_perturbation(v: np.ndarray, cfg: PerturbConfig, rng: np.random.Generator,
                          flow_model: FlowModel | None = None,
                          latent: GmmLatent | None = None,
                          decoder: tuple[np.ndarray, np.ndarray] | None = None
                          ) -> tuple[np.ndarray, int]:
    """Dispatch over the configured kind; returns (delta, fallbacks), the
    count of zero-gradient fallbacks (only density-descending has any).
    ``decoder`` is the student's (dec_w, dec_b), which the ``vat-lite`` probe
    reads."""
    eps = resolve_eps(cfg, v)
    fallbacks = 0
    if cfg.kind == "density-descending":
        if flow_model is None or latent is None:
            raise ValueError("density-descending perturbation needs flow and latent")
        delta, fallbacks = density_descent_perturbation(v, eps, flow_model, latent)
    elif cfg.kind == "uniform-noise":
        delta = uniform_noise_perturbation(np.shape(v), eps, rng)
    elif cfg.kind == "channel-dropout":
        delta = channel_dropout_perturbation(v, cfg.dropout_rate, rng)
    else:  # "vat-lite": PerturbConfig admits no kind outside KINDS
        if decoder is None:
            raise ValueError("vat-lite perturbation needs the student decoder")
        delta = vat_perturbation(v, eps, *decoder, rng, cfg.vat_xi, cfg.vat_power_iters)
    return delta, fallbacks
