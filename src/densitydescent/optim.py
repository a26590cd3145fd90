"""In-place optimizers over a model's parameter vector ``flat``, of which its
named arrays are views: a step is a few whole-vector ufuncs, giving the bits
a loop over the arrays would."""

from __future__ import annotations

import numpy as np


def pack(arrays) -> list[np.ndarray]:
    """A fresh float64 vector holding ``arrays`` end to end, followed by one
    view of it per array, shaped like that array."""
    flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
    ends = np.cumsum([0] + [np.size(a) for a in arrays]).tolist()
    return [flat] + [flat[i:j].reshape(np.shape(a))
                     for a, i, j in zip(arrays, ends, ends[1:])]


def _flat_grad(flat: np.ndarray, grads: list[np.ndarray]) -> np.ndarray:
    g = np.concatenate([np.ravel(gi) for gi in grads])
    if g.shape != flat.shape:
        raise ValueError("gradient list does not match the parameter vector")
    return g


class Adam:
    """Adam with bias correction; ``lr`` is mutable for schedules."""

    def __init__(self, flat: np.ndarray, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.flat = flat
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)

    def step(self, grads: list[np.ndarray]) -> None:
        g = _flat_grad(self.flat, grads)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        self.flat -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class MomentumSGD:
    """Heavy-ball SGD: v <- mu*v + g; p <- p - lr*v."""

    def __init__(self, flat: np.ndarray, lr: float, momentum: float = 0.9):
        self.flat = flat
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.v = np.zeros_like(flat)

    def step(self, grads: list[np.ndarray]) -> None:
        g = _flat_grad(self.flat, grads)
        self.v *= self.momentum
        self.v += g
        self.flat -= self.lr * self.v


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
