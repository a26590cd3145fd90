"""In-place optimizers over a model's parameter vector ``flat``, of which its
named arrays are views. A step takes the gradient as one vector laid out like
``flat`` and is a few whole-vector ufuncs, giving the bits a loop over the
arrays would."""

from __future__ import annotations

import numpy as np


def pack(arrays) -> list[np.ndarray]:
    """A fresh float64 vector holding ``arrays`` end to end, followed by one
    view of it per array, shaped like that array."""
    flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
    ends = np.cumsum([0] + [np.size(a) for a in arrays]).tolist()
    return [flat] + [flat[i:j].reshape(np.shape(a))
                     for a, i, j in zip(arrays, ends, ends[1:])]


def tanh_net(x: np.ndarray, w1, b1, w2, b2) -> tuple[np.ndarray, np.ndarray]:
    """The two-layer tanh net of the student's encoder and of each coupling
    block's conditioner: the hidden activations h = tanh(x @ w1 + b1) and
    the output h @ w2 + b2, for an (N, inputs) float64 array ``x``."""
    # with one input column the first layer is an outer product:
    # broadcasting gives the matmul's bits, as there is nothing to sum
    first = np.multiply if x.shape[1] == 1 else np.matmul
    h = first(x, w1)
    h += b1
    np.tanh(h, out=h)   # one (rows, hidden) array, not three
    return h, h @ w2 + b2


def tanh_net_vjp(x: np.ndarray, h: np.ndarray, g: np.ndarray, w1, w2,
                 params: bool = True, inputs: bool = False):
    """Pull ``g``, the gradient at ``tanh_net``'s output, back through it:
    with ``params`` the gradients of (w1, b1, w2, b2) as a list, else None,
    and with ``inputs`` dL/dx, else None. ``h`` is the forward's and is only
    read; two (rows, hidden) temporaries are live at the peak, freed on return."""
    dh = h * h
    np.subtract(1.0, dh, out=dh)   # tanh' = 1 - h^2, in place
    gpre = g @ w2.T
    gpre *= dh
    grads = [x.T @ gpre, gpre.sum(axis=0), h.T @ g, g.sum(axis=0)] if params else None
    return grads, (gpre @ w1.T if inputs else None)


# Adam's standard constants (Kingma & Ba), for the flow
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# the flow's step decay: lr halves at a third and at two thirds of the run
DECAY_FRACTIONS = (1.0 / 3.0, 2.0 / 3.0)
DECAY_GAMMA = 0.5
# the student's SGD momentum and poly-decay power, the standard values of
# semantic-segmentation training
SGD_MOMENTUM = 0.9
POLY_POWER = 0.9


class Adam:
    """Adam with bias correction; ``lr`` is mutable for schedules."""

    def __init__(self, flat: np.ndarray, lr: float):
        self.flat = flat
        self.lr = float(lr)
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)

    def step(self, g: np.ndarray) -> None:
        self.t += 1
        b1, b2 = ADAM_BETAS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        self.flat -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


class MomentumSGD:
    """Heavy-ball SGD: v <- mu*v + g; p <- p - lr*v, with mu ``SGD_MOMENTUM``."""

    def __init__(self, flat: np.ndarray, lr: float):
        self.flat = flat
        self.lr = float(lr)
        self.v = np.zeros_like(flat)

    def step(self, g: np.ndarray) -> None:
        self.v *= SGD_MOMENTUM
        self.v += g
        self.flat -= self.lr * self.v


def poly_decay(lr0: float, step: int, total: int) -> float:
    """Polynomial decay from lr0 to ~0 across ``total`` steps."""
    frac = min(max(step, 0), max(total, 1)) / max(total, 1)
    return lr0 * (1.0 - frac) ** POLY_POWER


def step_decay(lr0: float, progress: float) -> float:
    """Multiply lr0 by ``DECAY_GAMMA`` at each ``DECAY_FRACTIONS`` milestone
    of the run."""
    passed = 0
    for frac in DECAY_FRACTIONS:
        if progress >= frac:
            passed += 1
    return lr0 * DECAY_GAMMA ** passed
