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

The map exists twice. ``kernel_forward`` and ``kernel_backward`` run it in
plain numpy with a hand-derived vector-Jacobian product, the conditioner's
net through ``optim.tanh_net`` and ``optim.tanh_net_vjp``, which the
student's encoder shares; the online flow step, the density gradient and
``verify`` use them, and forward-only callers (``latent.marginal_logpdf``,
``verify``'s invertibility and log-det checks) run ``kernel_forward``
without keeping the activations. Every pass allocates fresh arrays; the
allocator setting made when the package is imported keeps their pages from
being faulted in anew each step. ``flow_forward`` builds the same arithmetic
as tape nodes, the reference the tests check the kernel against; it wraps
the parameter arrays in tensors, so tape gradients with respect to them need
a copy of the model whose arrays are leaf tensors.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .errors import ConfigError, Valid, check_fields, knob
from .latent import GmmLatent
from .optim import pack, tanh_net, tanh_net_vjp

CHECKPOINT_FORMAT = 1
PARAM_NAMES = ("w1", "b1", "w2", "b2")   # a block's parameters, in ``params()`` order

# Upper bounds on ``flow.hidden`` and ``ssl.hidden``, far above every shipped
# width (256), and on ``flow.blocks``, far above every shipped depth (2): an
# absurd size fails as a config error instead of when numpy allocates.
MAX_WIDTH = 4096
MAX_BLOCKS = 64


@dataclass
class FlowArch:
    """The flow's shape: a run config's ``flow`` section, and the sizes
    ``init_flow`` checks for every flow it builds, checkpoints included."""
    blocks: int = knob(2, ge=1, le=MAX_BLOCKS)
    hidden: int = knob(256, ge=1, le=MAX_WIDTH)
    s_max: float = knob(2.0, gt=0)   # a NaN read from a checkpoint fails too

    def __post_init__(self):
        check_fields(self, "flow")


@dataclass
class CouplingBlock:
    w1: np.ndarray  # (d/2, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, d) -> first d/2 raw scales, last d/2 shifts
    b2: np.ndarray  # (d,)
    s_max: float

    def params(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class FlowModel:
    """Coupling blocks whose parameters are views into ``flat``, in ``params()`` order."""
    flat: np.ndarray
    blocks: list[CouplingBlock]
    d: int
    hidden: int
    s_max: float
    seed: int

    @property
    def perm(self) -> np.ndarray:
        """Fixed channel permutation applied between blocks: index reversal."""
        return np.arange(self.d)[::-1]

    def params(self) -> list[np.ndarray]:
        return [p for b in self.blocks for p in b.params()]


def init_flow(d: int, n_blocks: int = FlowArch.blocks, hidden: int = FlowArch.hidden,
              s_max: float = FlowArch.s_max, seed: int = 0) -> FlowModel:
    """Build an identity-initialized flow. The sizes are checked by building
    a ``FlowArch``; an odd feature dimension or a negative seed is rejected."""
    Valid(ge=2, even=True).check("feature dimension", d)
    FlowArch(n_blocks, hidden, s_max)
    Valid(ge=0).check("seed", seed)
    rng = np.random.default_rng(seed)
    half = d // 2
    arrays = []
    for _ in range(n_blocks):
        arrays += [rng.standard_normal((half, hidden)) * np.sqrt(1.0 / half),
                   np.zeros(hidden), np.zeros((hidden, d)), np.zeros(d)]
    flat, *views = pack(arrays)
    blocks = [CouplingBlock(*views[i:i + 4], s_max=float(s_max))
              for i in range(0, len(views), 4)]
    return FlowModel(flat, blocks, d=d, hidden=hidden, s_max=float(s_max), seed=seed)


def randomize_conditioners(model: FlowModel, scale: float = 0.5, seed: int = 0) -> FlowModel:
    """Overwrite all conditioner layers with random values (in place).

    Produces a non-identity flow with nontrivial log-determinant, used by
    verification runs and tests that need 'as-if-trained' parameters.
    """
    rng = np.random.default_rng(seed)
    half = model.d // 2
    for b in model.blocks:
        b.w1[...] = rng.standard_normal(b.w1.shape) * np.sqrt(1.0 / half)
        b.b1[...] = rng.standard_normal(b.b1.shape) * 0.1
        b.w2[...] = rng.standard_normal(b.w2.shape) * (scale / np.sqrt(model.hidden))
        b.b2[...] = rng.standard_normal(b.b2.shape) * (0.1 * scale)
    return model


def _conditioner(block: CouplingBlock, va: dc.Tensor) -> tuple[dc.Tensor, dc.Tensor]:
    """Map the pass-through half to (clamped log-scale, shift)."""
    h = dc.tanh(dc.matmul(va, dc.as_tensor(block.w1)) + block.b1)
    raw = dc.matmul(h, dc.as_tensor(block.w2)) + block.b2
    d = raw.shape[-1]
    half = d // 2
    s_raw = dc.take_cols(raw, np.arange(half))
    t = dc.take_cols(raw, np.arange(half, d))
    s = dc.tanh(s_raw * (1.0 / block.s_max)) * block.s_max
    return s, t


def coupling_forward(v, block: CouplingBlock):
    """One block forward on an (N, d) batch: (v_a, v_b) -> (v_a, v_b * exp(s(v_a)) + t(v_a)).

    Returns the transformed batch and the per-row log-determinant.
    """
    t2 = dc.as_batch(v)
    d = t2.shape[1]
    if d % 2 != 0:
        raise ConfigError(f"coupling blocks need an even dimension, got {d}")
    half = d // 2
    va = dc.take_cols(t2, np.arange(half))
    vb = dc.take_cols(t2, np.arange(half, d))
    s, t = _conditioner(block, va)
    return dc.concat_cols(va, vb * dc.exp(s) + t), dc.sum(s, axis=1)


def coupling_inverse(v_out: np.ndarray, block: CouplingBlock) -> np.ndarray:
    """Exact algebraic inverse of ``coupling_forward`` on an (N, d) array."""
    half = v_out.shape[1] // 2
    va = v_out[:, :half]
    _, raw = tanh_net(va, block.w1, block.b1, block.w2, block.b2)
    u = np.tanh(raw[:, :half] * (1.0 / block.s_max))
    vb = (v_out[:, half:] - raw[:, half:]) * np.exp(-(u * block.s_max))
    return np.concatenate([va, vb], axis=1)


def flow_forward(v, model: FlowModel):
    """Full forward map of an (N, d) batch v -> z with per-row log-determinant.

    Applies block 1, the fixed channel reversal, block 2 (and so on for
    deeper stacks). Differentiable w.r.t. both the input and all block
    parameters; the permutation contributes nothing to the log-det.
    """
    z = dc.as_tensor(v)
    if z.ndim != 2 or z.shape[1] != model.d:
        raise ValueError(f"expected an (N, {model.d}) batch, got shape {z.shape}")
    total = None
    for i, block in enumerate(model.blocks):
        if i:
            z = dc.take_cols(z, model.perm)
        z, ld = coupling_forward(z, block)
        total = ld if total is None else total + ld
    return z, total


def flow_inverse(z, model: FlowModel) -> np.ndarray:
    """Exact inverse of ``flow_forward`` on an (N, d) array (numpy in/out)."""
    v = np.asarray(z, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != model.d:
        raise ValueError(f"expected an (N, {model.d}) batch, got shape {v.shape}")
    for i in range(len(model.blocks) - 1, -1, -1):
        v = coupling_inverse(v, model.blocks[i])
        if i:
            v = v[:, model.perm]
    return v


# ---------------------------------------------------------------------------
# analytic kernel: the same map in plain numpy, with a hand-derived VJP


def _coupling_np(block: CouplingBlock, x: np.ndarray):
    """One block of ``kernel_forward`` on an (N, d) array: the output, the
    per-row log-determinant and the activations ``kernel_backward`` reads,
    (v_a, v_b, h, u, exp(s)), where s = s_max * u is the clamped log-scale."""
    half = x.shape[1] // 2
    va, vb = x[:, :half], x[:, half:]
    h, raw = tanh_net(va, block.w1, block.b1, block.w2, block.b2)
    u = np.tanh(raw[:, :half] * (1.0 / block.s_max))
    s = u * block.s_max
    es = np.exp(s)
    return (np.concatenate([va, vb * es + raw[:, half:]], axis=1), s.sum(axis=1),
            (va, vb, h, u, es))


def kernel_forward(v: np.ndarray, model: FlowModel, keep: bool = True):
    """``flow_forward`` on an (N, d) array without graph nodes.

    Returns z, the per-row log-determinant and, per block, the activations
    ``kernel_backward`` reads: (v_a, v_b, h, u, exp(s)), one (N, hidden)
    array among them. Without ``keep`` the list is empty and each block's
    activations are dropped before the next block runs, so a forward-only
    caller holds one block's at a time rather than all of them.
    """
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.d:
        raise ValueError(f"expected an (N, {model.d}) batch, got shape {x.shape}")
    saved = []
    logdet = None
    for i, block in enumerate(model.blocks):
        if i:
            x = x[:, model.perm]
        x, ld, acts = _coupling_np(block, x)
        logdet = ld if logdet is None else logdet + ld
        if keep:
            saved.append(acts)
        del acts
    return x, logdet, saved


def kernel_backward(model: FlowModel, saved, gz: np.ndarray, glogdet,
                    params: bool = False) -> np.ndarray:
    """VJP of ``kernel_forward``: (dL/dz, dL/dlogdet) -> dL/dv, or with
    ``params`` the parameter gradient in its place.

    ``glogdet`` is a scalar or one value per row; each block's log-scales
    receive it unchanged, since the log-det is their plain sum. Block
    Jacobians are triangular: v_a passes through and v_b only scales, so
    dL/dv_b = dL/dy_b * exp(s) and everything else flows through the
    conditioner. The parameter gradient is one fresh vector laid out like
    ``model.flat``, and its pull-back stops at the first block's parameters,
    forming no dL/dv. ``saved`` is only read, so the same activations can be
    pulled back more than once.
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
        wgrads, gva = tanh_net_vjp(va, h, graw, block.w1, block.w2,
                                   params=params, inputs=not params or i > 0)
        if params:
            grads[:0] = wgrads
            if not i:
                return np.concatenate(grads, axis=None)
        g = np.concatenate([g[:, :half] + gva, gy_b * es], axis=1)
        if i:
            g = g[:, model.perm]   # the reversal is its own inverse
    return g


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
        arrays.update({f"block{i}_{name}": getattr(b, name) for name in PARAM_NAMES})
    np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_checkpoint(path) -> tuple[FlowModel, GmmLatent]:
    """Read a ``save_checkpoint`` file. A file that is not one, lacks an
    entry, holds an array that is not of real numbers or whose shape
    disagrees with its stored ``d``, ``hidden`` and ``n_blocks``, stores
    sizes ``init_flow`` rejects, or holds a latent with no component or a
    non-finite latent entry is a ConfigError. Flow parameters may take any
    value: an infinite one saturates the flow."""
    try:
        archive = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise ConfigError(f"checkpoint not found: {path}")
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path}: not a .npz checkpoint")
    with archive as z:
        def entry(key: str, shape: tuple | None = None, finite: bool = False) -> np.ndarray:
            if key not in z.files:
                raise ConfigError(f"{path}: checkpoint has no {key!r} entry")
            value = z[key]
            if shape is None:
                return value
            if value.dtype.kind not in "iuf":
                raise ConfigError(f"{path}: {key!r} holds {value.dtype} values, "
                                  f"not real numbers")
            if value.shape != shape:
                raise ConfigError(f"{path}: {key!r} has shape {value.shape}, but the "
                                  f"stored sizes call for {shape}")
            if finite and not np.isfinite(value).all():
                raise ConfigError(f"{path}: {key!r} holds a non-finite value")
            return value

        meta_text = str(entry("__meta__"))
        try:
            meta = json.loads(meta_text)
            fmt = meta["format"]
            d, hidden, n_blocks = int(meta["d"]), int(meta["hidden"]), int(meta["n_blocks"])
            s_max, seed, latent_seed = (float(meta["s_max"]), int(meta["seed"]),
                                        int(meta["latent_seed"]))
        except (ValueError, KeyError, TypeError) as e:
            raise ConfigError(f"{path}: unreadable checkpoint metadata ({e!r})")
        if fmt != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format {fmt!r}")
        shapes = dict(zip(PARAM_NAMES, [(d // 2, hidden), (hidden,), (hidden, d), (d,)]))
        # shape-check every entry first: init_flow allocates whatever the sizes say
        stored = [entry(f"block{i}_{name}", shapes[name])
                  for i in range(n_blocks) for name in PARAM_NAMES]
        try:
            model = init_flow(d, n_blocks, hidden, s_max, seed)
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}")
        for view, value in zip(model.params(), stored):
            view[...] = value
        k = entry("latent_log_weights").size
        if k < 1:
            raise ConfigError(f"{path}: 'latent_log_weights' is empty, and the latent "
                              f"needs at least one component")
        latent = GmmLatent(means=entry("latent_means", (k, d), finite=True),
                           log_weights=entry("latent_log_weights", (k,), finite=True),
                           seed=latent_seed)
    return model, latent
