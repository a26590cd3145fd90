"""Online training of the flow density estimator on detached features.

The estimator is an observer: it reads teacher features with gradients
severed, maximizes their likelihood under the frozen class-anchored latent
mixture, and never sends gradients back into the main model. Only the flow
parameters move; means, covariances and mixture weights stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .errors import NumericError, Valid, check_fields, knob
from .flow import FlowModel, kernel_backward, kernel_forward
from .latent import (GmmLatent, class_conditional_loglik, component_means,
                     gaussian_logpdf_grad, marginal_loglik, mixture_logpdf_grad)
from .optim import Adam, step_decay


@dataclass
class FlowTrainConfig:
    # a beta of 1 freezes Adam's moment estimate and zeroes its bias
    # correction; a decay factor of zero or less stops or reverses the fit
    lr: float = knob(1e-3, gt=0)
    beta1: float = knob(0.9, ge=0, lt=1)
    beta2: float = knob(0.999, ge=0, lt=1)
    adam_eps: float = knob(1e-8, gt=0)
    decay_fractions: tuple[float, ...] = knob((1.0 / 3.0, 2.0 / 3.0), length=Valid(le=8))
    decay_gamma: float = knob(0.5, gt=0)
    sample_budget: int = knob(2048, ge=2, even=True)   # 2 pools; 20000 at full scale
    warm_start_epoch: int = knob(2, ge=1)        # estimator begins at this main-model epoch
    updates_per_iteration: int = knob(1, ge=1)   # flow steps per main-model iteration

    def __post_init__(self):
        check_fields(self, "flow_train")


@dataclass
class FeaturePool:
    """Teacher features detached from the main model's parameter graph."""
    labeled: np.ndarray          # (M, d)
    labels: np.ndarray           # (M,)
    unlabeled: np.ndarray        # (N, d)
    empty_side_warnings: int = 0

    @property
    def total(self) -> int:
        return len(self.labeled) + len(self.unlabeled)


def flow_loss(labeled: np.ndarray, labels: np.ndarray, unlabeled: np.ndarray,
              model: FlowModel, latent: GmmLatent) -> dc.Tensor:
    """Mean negative log-likelihood over both feature pools.

    Labeled features are scored against their own class component,
    unlabeled ones against the full mixture; the sum is normalized by the
    combined count.
    """
    n_l = len(labeled)
    n_u = len(unlabeled)
    if n_l + n_u == 0:
        raise ValueError("flow_loss needs at least one feature")
    total = None
    if n_l:
        total = dc.sum(class_conditional_loglik(labeled, labels, model, latent))
    if n_u:
        s_u = dc.sum(marginal_loglik(unlabeled, model, latent))
        total = s_u if total is None else total + s_u
    return total * (-1.0 / (n_l + n_u))


def subsample_pool(labeled: np.ndarray, labels: np.ndarray, unlabeled: np.ndarray,
                   budget: int, rng: np.random.Generator) -> FeaturePool:
    """Draw budget/2 features from each pool (all available if fewer).

    An empty source pool contributes nothing and bumps the warning count.
    """
    if budget < 2 or budget % 2 != 0:
        raise ValueError("budget must be even and >= 2")
    half = budget // 2
    warnings = 0
    if len(labeled):
        take = min(half, len(labeled))
        idx = rng.choice(len(labeled), size=take, replace=False)
        sel_l, sel_y = labeled[idx], labels[idx]
    else:
        warnings += 1
        sel_l = np.empty((0, unlabeled.shape[1] if len(unlabeled) else 0))
        sel_y = np.empty(0, dtype=np.int64)
    if len(unlabeled):
        take = min(half, len(unlabeled))
        idx = rng.choice(len(unlabeled), size=take, replace=False)
        sel_u = unlabeled[idx]
    else:
        warnings += 1
        sel_u = np.empty((0, labeled.shape[1] if len(labeled) else 0))
    return FeaturePool(labeled=sel_l, labels=sel_y, unlabeled=sel_u,
                       empty_side_warnings=warnings)


def sample_feature_pool(teacher, x_labeled: np.ndarray, y_labeled: np.ndarray,
                        x_unlabeled: np.ndarray, budget: int,
                        rng: np.random.Generator) -> FeaturePool:
    """Encode batches with the teacher (numpy forward, no tape) and subsample
    a detached pool."""
    feats_l = teacher.features(x_labeled) if len(x_labeled) else np.empty((0, 0))
    feats_u = teacher.features(x_unlabeled) if len(x_unlabeled) else np.empty((0, 0))
    return subsample_pool(feats_l, np.asarray(y_labeled, dtype=np.int64),
                          feats_u, budget, rng)


def flow_train_step(pool: FeaturePool, model: FlowModel, latent: GmmLatent,
                    opt: Adam) -> float:
    """One Adam step on the flow parameters only; returns the loss value.

    Computes ``flow_loss`` and its parameter gradients with the analytic
    kernel, both pools in one batch: labeled rows take the gradient of their
    own component, unlabeled rows that of the mixture.
    """
    n_l = len(pool.labeled)
    n = pool.total
    if n == 0:
        raise ValueError("flow_loss needs at least one feature")
    x = np.concatenate([a for a in (pool.labeled, pool.unlabeled) if len(a)])
    z, logdet, saved = kernel_forward(x, model)
    ll_l, gz_l = gaussian_logpdf_grad(z[:n_l], component_means(pool.labels, latent))
    ll_u, gz_u = mixture_logpdf_grad(z[n_l:], latent)
    total = (ll_l + logdet[:n_l]).sum() + (ll_u + logdet[n_l:]).sum()
    value = float(total * (-1.0 / n))
    if not np.isfinite(value):
        raise NumericError(
            f"non-finite flow loss (lr={opt.lr:g}, pool={pool.total}, "
            f"labeled_mean={_safe_mean(pool.labeled):g}, "
            f"unlabeled_mean={_safe_mean(pool.unlabeled):g})")
    gz = np.concatenate([gz_l, gz_u]) * (-1.0 / n)
    _, grads = kernel_backward(model, saved, gz, -1.0 / n, params=True)
    if any(not np.isfinite(g).all() for g in grads):
        raise NumericError(f"non-finite flow gradient (lr={opt.lr:g}, pool={pool.total})")
    opt.step(grads)
    return value


def _safe_mean(arr: np.ndarray) -> float:
    return float(arr.mean()) if arr.size else 0.0


@dataclass
class FitResult:
    history: list[tuple[int, float, float]] = field(default_factory=list)  # (step, loss, lr)

    @property
    def losses(self) -> list[float]:
        return [h[1] for h in self.history]


def fit_density(labeled: np.ndarray, labels: np.ndarray, unlabeled: np.ndarray,
                model: FlowModel, latent: GmmLatent, cfg: FlowTrainConfig,
                steps: int, batch: int, rng: np.random.Generator) -> FitResult:
    """Offline fitting loop: subsample a pool and take one Adam step, ``steps`` times.

    The learning rate follows the step-decay schedule over the run.
    """
    opt = Adam(model.flat, lr=cfg.lr, betas=(cfg.beta1, cfg.beta2), eps=cfg.adam_eps)
    result = FitResult()
    for step in range(steps):
        opt.lr = step_decay(cfg.lr, step / max(steps, 1), cfg.decay_fractions,
                            cfg.decay_gamma)
        pool = subsample_pool(labeled, labels, unlabeled, batch, rng)
        loss = flow_train_step(pool, model, latent, opt)
        result.history.append((step, loss, opt.lr))
    return result
