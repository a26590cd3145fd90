"""Invertible feature-to-latent map built from affine coupling blocks.

Each block passes the first half of the channels through unchanged, and
applies an elementwise affine transform to the second half whose scale and
shift are produced by a small two-layer conditioner net reading the first
half. Between consecutive blocks the channel order is reversed, so with two
blocks every channel is transformed at least once. The Jacobian of a block
is triangular, so the log-determinant is just the sum of the (clamped) log
scales; the permutation contributes zero.

Conditioner nonlinearity is tanh and raw scales are soft-clamped through
``s_max * tanh(raw / s_max)``: both keep the map smooth everywhere, which
the finite-difference verification tolerances require, and the clamp bounds
each scale factor inside (e^-s_max, e^s_max) so the inverse stays stable.
Conditioner output layers start at zero, making the freshly built flow an
exact identity (up to the channel reversal).

The map exists twice. ``flow_forward`` builds tape nodes, so any scalar
built on it can be differentiated with ``diffcore.grad``; inference and the
tests use it. ``kernel_forward`` and ``kernel_backward`` run the same
arithmetic in plain numpy with a hand-derived vector-Jacobian product; the
two gradient hot paths (the online flow step and the density gradient) use
them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .errors import ConfigError
from .latent import GmmLatent

CHECKPOINT_FORMAT = 1


@dataclass
class CouplingBlock:
    w1: dc.Tensor  # (d/2, hidden)
    b1: dc.Tensor  # (hidden,)
    w2: dc.Tensor  # (hidden, d) -> first d/2 raw scales, last d/2 shifts
    b2: dc.Tensor  # (d,)
    s_max: float

    def params(self) -> list[dc.Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class FlowModel:
    blocks: list[CouplingBlock]
    d: int
    hidden: int
    s_max: float
    seed: int

    @property
    def perm(self) -> np.ndarray:
        """Fixed channel permutation applied between blocks: index reversal."""
        return np.arange(self.d)[::-1]

    def params(self) -> list[dc.Tensor]:
        out: list[dc.Tensor] = []
        for b in self.blocks:
            out.extend(b.params())
        return out


def init_flow(d: int, n_blocks: int = 2, hidden: int = 256, s_max: float = 2.0,
              seed: int = 0) -> FlowModel:
    """Build an identity-initialized flow; rejects odd feature dimensions."""
    if d < 2 or d % 2 != 0:
        raise ConfigError(f"feature dimension must be even and >= 2, got {d}")
    if n_blocks < 1:
        raise ConfigError("need at least one coupling block")
    if hidden < 1 or s_max <= 0:
        raise ConfigError("hidden width must be >= 1 and s_max > 0")
    rng = np.random.default_rng(seed)
    half = d // 2
    blocks = []
    for _ in range(n_blocks):
        w1 = rng.standard_normal((half, hidden)) * np.sqrt(1.0 / half)
        blocks.append(CouplingBlock(
            w1=dc.tensor(w1),
            b1=dc.tensor(np.zeros(hidden)),
            w2=dc.tensor(np.zeros((hidden, d))),
            b2=dc.tensor(np.zeros(d)),
            s_max=float(s_max),
        ))
    return FlowModel(blocks=blocks, d=d, hidden=hidden, s_max=float(s_max), seed=seed)


def randomize_conditioners(model: FlowModel, scale: float = 0.5, seed: int = 0) -> FlowModel:
    """Overwrite all conditioner layers with random values (in place).

    Produces a non-identity flow with nontrivial log-determinant, used by
    verification runs and tests that need 'as-if-trained' parameters.
    """
    rng = np.random.default_rng(seed)
    half = model.d // 2
    for b in model.blocks:
        b.w1.data[...] = rng.standard_normal(b.w1.shape) * np.sqrt(1.0 / half)
        b.b1.data[...] = rng.standard_normal(b.b1.shape) * 0.1
        b.w2.data[...] = rng.standard_normal(b.w2.shape) * (scale / np.sqrt(model.hidden))
        b.b2.data[...] = rng.standard_normal(b.b2.shape) * (0.1 * scale)
    return model


def _conditioner(block: CouplingBlock, va: dc.Tensor) -> tuple[dc.Tensor, dc.Tensor]:
    """Map the pass-through half to (clamped log-scale, shift)."""
    h = dc.tanh(dc.matmul(va, block.w1) + block.b1)
    raw = dc.matmul(h, block.w2) + block.b2
    d = raw.shape[-1]
    half = d // 2
    s_raw = dc.take_cols(raw, np.arange(half))
    t = dc.take_cols(raw, np.arange(half, d))
    s = dc.tanh(s_raw * (1.0 / block.s_max)) * block.s_max
    return s, t


def _as_batch(v) -> tuple[dc.Tensor, bool]:
    t = dc.as_tensor(v)
    if t.ndim == 1:
        return dc.reshape(t, (1, t.shape[0])), True
    if t.ndim != 2:
        raise ValueError(f"expected vector or (N, d) batch, got shape {t.shape}")
    return t, False


def coupling_forward(v, block: CouplingBlock):
    """One block forward: (v_a, v_b) -> (v_a, v_b * exp(s(v_a)) + t(v_a)).

    Returns the transformed vector/batch and the per-sample log-determinant
    (scalar for a single vector).
    """
    t2, single = _as_batch(v)
    d = t2.shape[1]
    if d % 2 != 0:
        raise ConfigError(f"coupling blocks need an even dimension, got {d}")
    half = d // 2
    va = dc.take_cols(t2, np.arange(half))
    vb = dc.take_cols(t2, np.arange(half, d))
    s, t = _conditioner(block, va)
    out = dc.concat_cols(va, vb * dc.exp(s) + t)
    logdet = dc.sum(s, axis=1)
    if single:
        return dc.reshape(out, (d,)), dc.reshape(logdet, ())
    return out, logdet


def coupling_inverse(v_out, block: CouplingBlock) -> np.ndarray:
    """Exact algebraic inverse of ``coupling_forward`` (numpy in/out)."""
    arr = np.asarray(v_out, dtype=np.float64)
    single = arr.ndim == 1
    v2 = arr[None, :] if single else arr
    half = v2.shape[1] // 2
    va = v2[:, :half]
    _, u, t = _conditioner_np(block, va)
    vb = (v2[:, half:] - t) * np.exp(-(u * block.s_max))
    out = np.concatenate([va, vb], axis=1)
    return out[0] if single else out


def flow_forward(v, model: FlowModel):
    """Full forward map v -> z with total log-determinant.

    Applies block 1, the fixed channel reversal, block 2 (and so on for
    deeper stacks). Differentiable w.r.t. both the input and all block
    parameters; the permutation contributes nothing to the log-det.
    """
    t2, single = _as_batch(v)
    if t2.shape[1] != model.d:
        raise ValueError(f"expected dimension {model.d}, got {t2.shape[1]}")
    total = None
    z = t2
    for i, block in enumerate(model.blocks):
        if i:
            z = dc.take_cols(z, model.perm)
        z, ld = coupling_forward(z, block)
        total = ld if total is None else total + ld
    if single:
        return dc.reshape(z, (model.d,)), dc.reshape(total, ())
    return z, total


def flow_inverse(z, model: FlowModel) -> np.ndarray:
    """Exact inverse of ``flow_forward`` (numpy in/out)."""
    arr = np.asarray(z, dtype=np.float64)
    single = arr.ndim == 1
    v = arr[None, :] if single else arr
    if v.shape[1] != model.d:
        raise ValueError(f"expected dimension {model.d}, got {v.shape[1]}")
    for i in range(len(model.blocks) - 1, -1, -1):
        v = coupling_inverse(v, model.blocks[i])
        if i:
            v = v[:, model.perm]
    return v[0] if single else v


# ---------------------------------------------------------------------------
# analytic kernel: the same map in plain numpy, with a hand-derived VJP


def _conditioner_np(block: CouplingBlock, va: np.ndarray):
    """Numpy ``_conditioner``: hidden activations h, u = tanh(s_raw / s_max)
    (so the clamped log-scale is s = s_max * u) and the shift t."""
    h = va @ block.w1.data
    h += block.b1.data
    np.tanh(h, out=h)
    raw = h @ block.w2.data + block.b2.data
    half = raw.shape[1] // 2
    u = np.tanh(raw[:, :half] * (1.0 / block.s_max))
    return h, u, raw[:, half:]


def kernel_forward(v: np.ndarray, model: FlowModel):
    """``flow_forward`` on an (N, d) array without graph nodes.

    Returns z, the per-row log-determinant and, per block, the activations
    ``kernel_backward`` reads: (v_a, v_b, h, u, exp(s)).
    """
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.d:
        raise ValueError(f"expected an (N, {model.d}) batch, got shape {x.shape}")
    half = model.d // 2
    saved = []
    logdet = None
    for i, block in enumerate(model.blocks):
        if i:
            x = x[:, model.perm]
        va, vb = x[:, :half], x[:, half:]
        h, u, t = _conditioner_np(block, va)
        s = u * block.s_max
        es = np.exp(s)
        x = np.concatenate([va, vb * es + t], axis=1)
        ld = s.sum(axis=1)
        logdet = ld if logdet is None else logdet + ld
        saved.append((va, vb, h, u, es))
    return x, logdet, saved


def kernel_backward(model: FlowModel, saved, gz: np.ndarray, glogdet,
                    params: bool = False):
    """VJP of ``kernel_forward``: (dL/dz, dL/dlogdet) -> dL/dv.

    ``glogdet`` is a scalar or one value per row; each block's log-scales
    receive it unchanged, since the log-det is their plain sum. Block
    Jacobians are triangular: v_a passes through and v_b only scales, so
    dL/dv_b = dL/dy_b * exp(s) and everything else flows through the
    conditioner. With ``params`` the parameter gradients are returned too,
    in ``model.params()`` order; otherwise the second value is None.
    """
    half = model.d // 2
    gld = np.reshape(glogdet, (-1, 1))
    g = gz
    grads: list[np.ndarray] = []
    for i in range(len(model.blocks) - 1, -1, -1):
        block = model.blocks[i]
        va, vb, h, u, es = saved[i]
        gy_b = g[:, half:]
        gs = gy_b * vb * es + gld
        graw = np.concatenate([gs * (1.0 - u * u), gy_b], axis=1)
        dh = h * h                           # tanh' = 1 - h^2, built in place
        np.subtract(1.0, dh, out=dh)
        gpre = graw @ block.w2.data.T
        gpre *= dh
        if params:
            grads[:0] = [va.T @ gpre, gpre.sum(axis=0), h.T @ graw, graw.sum(axis=0)]
        g = np.concatenate([g[:, :half] + gpre @ block.w1.data.T, gy_b * es], axis=1)
        if i:
            g = g[:, model.perm]   # the reversal is its own inverse
    return g, (grads if params else None)


# ---------------------------------------------------------------------------
# checkpoint io (npz: float64 arrays are stored losslessly)


def save_checkpoint(path, model: FlowModel, latent: GmmLatent) -> None:
    """Serialize flow parameters plus the latent mixture to one .npz file."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "d": model.d,
        "hidden": model.hidden,
        "s_max": model.s_max,
        "seed": model.seed,
        "n_blocks": len(model.blocks),
        "latent_seed": latent.seed,
    }
    arrays = {"latent_means": latent.means, "latent_log_weights": latent.log_weights}
    for i, b in enumerate(model.blocks):
        arrays[f"block{i}_w1"] = b.w1.data
        arrays[f"block{i}_b1"] = b.b1.data
        arrays[f"block{i}_w2"] = b.w2.data
        arrays[f"block{i}_b2"] = b.b2.data
    np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_checkpoint(path) -> tuple[FlowModel, GmmLatent]:
    try:
        archive = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise ConfigError(f"checkpoint not found: {path}")
    with archive as z:
        meta = json.loads(str(z["__meta__"]))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format {meta.get('format')!r}")
        blocks = []
        for i in range(meta["n_blocks"]):
            blocks.append(CouplingBlock(
                w1=dc.tensor(z[f"block{i}_w1"]),
                b1=dc.tensor(z[f"block{i}_b1"]),
                w2=dc.tensor(z[f"block{i}_w2"]),
                b2=dc.tensor(z[f"block{i}_b2"]),
                s_max=float(meta["s_max"]),
            ))
        model = FlowModel(blocks=blocks, d=int(meta["d"]), hidden=int(meta["hidden"]),
                          s_max=float(meta["s_max"]), seed=int(meta["seed"]))
        latent = GmmLatent(means=z["latent_means"], log_weights=z["latent_log_weights"],
                           seed=int(meta["latent_seed"]))
    return model, latent
