"""Online training of the flow density estimator on detached features.

The estimator is an observer: it reads teacher features with gradients
severed, maximizes their likelihood under the frozen class-anchored latent
mixture, and never sends gradients back into the main model. Only the flow
parameters move; means, covariances and mixture weights stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .errors import ConfigError, NumericError, Valid, check_fields, knob
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
        # every lr the step decay can set, as ``step_decay`` computes it
        with np.errstate(over="ignore"):
            lrs = self.lr * np.float64(self.decay_gamma) ** np.arange(
                len(self.decay_fractions) + 1)
        if not np.isfinite(lrs).all():
            raise ConfigError(f"flow_train.decay_gamma: lr {self.lr!r} times "
                              f"{self.decay_gamma!r} ** {len(self.decay_fractions)} (one "
                              f"factor per decay fraction) is not a finite float")


@dataclass
class FeaturePool:
    """Teacher features detached from the main model's parameter graph. A
    side may be empty (M or N 0); the flow step needs one row in all."""
    labeled: np.ndarray          # (M, d)
    labels: np.ndarray           # (M,)
    unlabeled: np.ndarray        # (N, d)

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


def pool_indices(n_labeled: int, n_unlabeled: int, budget: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``subsample_pool`` takes from pools of these sizes: budget/2
    of each, drawn without replacement (all if fewer), one ``rng.choice`` per
    side. An empty pool's draw takes no random number and gives an empty
    index. The draws depend on the sizes only, not on the features."""
    if budget < 2 or budget % 2 != 0:
        raise ValueError("budget must be even and >= 2")
    half = budget // 2
    return tuple(rng.choice(n, size=min(half, n), replace=False)
                 for n in (n_labeled, n_unlabeled))


def subsample_pool(labeled: np.ndarray, labels: np.ndarray, unlabeled: np.ndarray,
                   budget: int, rng: np.random.Generator) -> FeaturePool:
    """Draw budget/2 features from each pool (all available if fewer); an
    empty source pool gives an empty side of its own width."""
    idx_l, idx_u = pool_indices(len(labeled), len(unlabeled), budget, rng)
    return FeaturePool(labeled=labeled[idx_l], labels=labels[idx_l],
                       unlabeled=unlabeled[idx_u])


def sample_feature_pool(teacher, x_labeled: np.ndarray, y_labeled: np.ndarray,
                        x_unlabeled: np.ndarray, budget: int,
                        rng: np.random.Generator) -> FeaturePool:
    """Encode batches with the teacher (numpy forward, no tape) and subsample
    a detached pool."""
    return subsample_pool(teacher.features(x_labeled), np.asarray(y_labeled, dtype=np.int64),
                          teacher.features(x_unlabeled), budget, rng)


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
    x = np.concatenate([pool.labeled, pool.unlabeled])
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


class FlowTrainer:
    """The flow's one optimizer and lr policy, for offline fits and online
    runs alike: Adam over the flow parameters only, its lr set by the
    step-decay schedule at the fraction of the run done."""

    def __init__(self, model: FlowModel, latent: GmmLatent, cfg: FlowTrainConfig):
        self.model, self.latent, self.cfg = model, latent, cfg
        self.opt = Adam(model.flat, cfg.lr, (cfg.beta1, cfg.beta2), cfg.adam_eps)

    def step(self, pool: FeaturePool, progress: float) -> float:
        """One ``flow_train_step`` on ``pool`` at the lr of ``progress``;
        returns its loss."""
        cfg = self.cfg
        self.opt.lr = step_decay(cfg.lr, progress, cfg.decay_fractions, cfg.decay_gamma)
        return flow_train_step(pool, self.model, self.latent, self.opt)


def fit_density(labeled: np.ndarray, labels: np.ndarray, unlabeled: np.ndarray,
                model: FlowModel, latent: GmmLatent, cfg: FlowTrainConfig,
                steps: int, batch: int, rng: np.random.Generator
                ) -> list[tuple[int, float, float]]:
    """Offline fitting loop: subsample a pool and take one ``FlowTrainer``
    step at ``step / steps``, ``steps`` times. Returns each step's
    (step, loss, lr), the rows of ``loss.csv``."""
    trainer = FlowTrainer(model, latent, cfg)
    history = []
    for step in range(steps):
        pool = subsample_pool(labeled, labels, unlabeled, batch, rng)
        history.append((step, trainer.step(pool, step / steps), trainer.opt.lr))
    return history
