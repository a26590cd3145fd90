"""Tape-based reverse-mode autodiff over dense float64 arrays.

A deliberately small primitive set: enough for affine coupling nets,
Gaussian-mixture log-densities, logsumexp and softmax classifiers.
Everything is float64, CPU-only, single-threaded per tape. Broadcasting
is supported only as far as matrix/vector alignment needs it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

_IDS = itertools.count()


class Tensor:
    """One node of the computation graph, wrapping a float64 ndarray.

    Leaf tensors have no parents and no vjp. Interior nodes keep references
    to their parents plus a vector-Jacobian closure used by the backward
    pass. Creation order (``tid``) is a topological order of the graph,
    since parents always exist before their children.
    """

    __slots__ = ("data", "parents", "vjp", "tid")

    def __init__(self, data, parents: tuple = (), vjp: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = parents
        self.vjp = vjp
        self.tid = next(_IDS)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tid={self.tid})"

    def __add__(self, other):
        return add(self, as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))


def tensor(data) -> Tensor:
    """Create a leaf tensor (copies nothing if already float64)."""
    return Tensor(data)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if squeezed:
        g = g.sum(axis=squeezed, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor(out, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for the 2-D/1-D combinations the artifact needs."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ValueError(f"matmul supports 1-D/2-D operands, got {ad.ndim}-D @ {bd.ndim}-D")
    out = ad @ bd

    def vjp(g):
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        return g * bd, g * ad  # 1-D dot

    return Tensor(out, (a, b), vjp)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return Tensor(y, (x,), lambda g: (g * (1.0 - y * y),))


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    return Tensor(y, (x,), lambda g: (g * y,))


def log(x: Tensor) -> Tensor:
    return Tensor(np.log(x.data), (x,), lambda g: (g / x.data,))


def logsumexp(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp via max subtraction; gradient is the softmax."""
    m = np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = np.sum(e, axis=axis, keepdims=True)
    soft = e / s
    full = m + np.log(s)
    if keepdims:
        out = full
    elif axis is None:
        out = full.reshape(())
    else:
        out = np.squeeze(full, axis=axis)

    def vjp(g):
        gg = np.asarray(g, dtype=np.float64)
        if gg.shape != full.shape:
            gg = gg.reshape(full.shape) if axis is None else np.expand_dims(gg, axis)
        return (soft * gg,)

    return Tensor(out, (x,), vjp)


def sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    out = np.sum(x.data, axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def vjp(g):
        gg = np.asarray(g, dtype=np.float64)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, shape),)

    return Tensor(out, (x,), vjp)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return mul(sum(x, axis=axis), as_tensor(1.0 / n))


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return Tensor(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def take_cols(x: Tensor, idx) -> Tensor:
    """Gather columns (2-D) or elements (1-D); backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.intp)
    two_d = x.data.ndim == 2
    out = x.data[:, idx] if two_d else x.data[idx]

    def vjp(g):
        z = np.zeros_like(x.data)
        if two_d:
            np.add.at(z, (slice(None), idx), g)
        else:
            np.add.at(z, idx, g)
        return (z,)

    return Tensor(out, (x,), vjp)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis."""
    na = a.data.shape[-1]
    out = np.concatenate([a.data, b.data], axis=-1)

    def vjp(g):
        return g[..., :na], g[..., na:]

    return Tensor(out, (a, b), vjp)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
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

    return Tensor(ce, (logits,), vjp)


# ---------------------------------------------------------------------------
# backward pass


class Tape:
    """Ordered record of the graph nodes reachable from one output.

    The node list is sorted by creation id, so iterating it in reverse
    replays the primitives in the exact reverse order of recording.
    Gradients of a node reached through several uses are summed.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def record(cls, root: Tensor) -> "Tape":
        seen = {id(root)}
        stack, nodes = [root], [root]
        while stack:
            node = stack.pop()
            for p in node.parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    nodes.append(p)
                    stack.append(p)
        nodes.sort(key=lambda t: t.tid)
        return cls(nodes)

    def backward(self, root: Tensor, seed: np.ndarray) -> dict[int, np.ndarray]:
        table: dict[int, np.ndarray] = {id(root): np.asarray(seed, dtype=np.float64)}
        for node in reversed(self.nodes):
            g = table.get(id(node))
            if g is None or node.vjp is None:
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                cur = table.get(id(parent))
                table[id(parent)] = pg if cur is None else cur + pg
        return table


def grad(objective: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar objective with respect to each leaf in ``wrt``.

    Returns one array per entry, matching its shape; unreachable leaves get
    zeros. Raises on non-scalar objectives, on non-finite forward values and
    on an entry of ``wrt`` that is not a Tensor: a plain array is never a
    node of the graph, so its gradient would read as zeros.
    """
    for w in wrt:
        if not isinstance(w, Tensor):
            raise TypeError(f"grad: wrt entries must be Tensors, got {type(w).__name__}")
    if objective.size != 1:
        raise ValueError(f"objective must be scalar, got shape {objective.shape}")
    if not np.isfinite(objective.data).all():
        raise NumericError("non-finite objective in forward pass")
    tape = Tape.record(objective)
    table = tape.backward(objective, np.ones_like(objective.data))
    out = []
    for w in wrt:
        g = table.get(id(w))
        out.append(np.zeros_like(w.data) if g is None else np.array(g, dtype=np.float64))
    return out


def finite_check(fn: Callable[..., Tensor], wrt: Sequence[Tensor], h: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` rebuilds the scalar objective from the given leaf tensors; their
    ``data`` buffers are perturbed in place one coordinate at a time.
    Relative error per coordinate is |g_a - g_fd| / max(1, |g_fd|).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    analytic = grad(fn(*wrt), wrt)
    worst = 0.0
    for w, ga in zip(wrt, analytic):
        flat = w.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(fn(*wrt).data)
            flat[i] = orig - h
            fm = float(fn(*wrt).data)
            flat[i] = orig
            gfd = (fp - fm) / (2.0 * h)
            err = abs(gflat[i] - gfd) / max(1.0, abs(gfd))
            if err > worst:
                worst = err
    return worst
