"""In-place optimizers over lists of leaf tensors."""

from __future__ import annotations

import numpy as np

from .diffcore import Tensor


class Adam:
    """Adam with bias correction; ``lr`` is mutable for schedules."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.t = 0
        # both moments of every parameter live in one flat buffer each, so a
        # step is one set of vector ops instead of a loop over small arrays
        ends = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self._spans = list(zip(ends[:-1], ends[1:]))
        self.m = np.zeros(ends[-1])
        self.v = np.zeros(ends[-1])

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        g = np.concatenate([np.ravel(gi) for gi in grads])
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        for p, (a, b) in zip(self.params, self._spans):
            p.data -= update[a:b].reshape(p.data.shape)


class MomentumSGD:
    """Heavy-ball SGD: v <- mu*v + g; p <- p - lr*v."""

    def __init__(self, params: list[Tensor], lr: float, momentum: float = 0.9):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        for p, g, v in zip(self.params, grads, self.v):
            v *= self.momentum
            v += g
            p.data -= self.lr * v


def poly_decay(lr0: float, step: int, total: int, power: float = 0.9) -> float:
    """Polynomial decay from lr0 to ~0 across ``total`` steps."""
    frac = min(max(step, 0), max(total, 1)) / max(total, 1)
    return lr0 * (1.0 - frac) ** power


def step_decay(lr0: float, progress: float, milestones: tuple[float, ...],
               gamma: float) -> float:
    """Multiply lr0 by gamma at each milestone fraction of the run."""
    passed = 0
    for frac in milestones:
        if progress >= frac:
            passed += 1
    return lr0 * gamma ** passed
