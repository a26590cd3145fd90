"""Brute-force numerical verifiers, independent of the analytic paths.

These functions deliberately avoid every backward pass and the analytic
log-determinant: Jacobians come from central differences of the forward map
(the analytic kernel's, for a flow), determinants from a locally implemented
pivoted elimination, and normalization from plain Monte Carlo. They exist so
that every analytic quantity in the package has a second, dumber route to
the same number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError
from .flow import FlowModel, kernel_forward
from .latent import GmmLatent, marginal_logpdf

Bounds = tuple[tuple[float, float], tuple[float, float]]

# Rows per Monte-Carlo draw in ``mc_normalization``: the samples are drawn
# chunk by chunk, so the estimate for a seed depends on this size.
MC_CHUNK = 100_000


def lu_logabsdet(matrix: np.ndarray) -> float:
    """log|det| of a small square matrix via partial-pivot elimination."""
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    total = 0.0
    for col in range(n):
        piv = int(np.argmax(np.abs(a[col:, col]))) + col
        p = a[piv, col]
        if abs(p) < 1e-300:
            raise NumericError("numerically singular matrix in log-det")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
        total += float(np.log(abs(p)))
        if col + 1 < n:
            a[col + 1:, col:] -= np.outer(a[col + 1:, col] / p, a[col, col:])
    return total


def numeric_jacobian_logdet(map_or_model, v: np.ndarray, h: float = 1e-4) -> float:
    """log|det J| of a map at v from a central-difference Jacobian.

    Accepts a FlowModel (evaluated through ``kernel_forward``, ignoring the
    analytic log-det it also returns) or any vector-to-vector callable.
    Costs 2d forward passes; restricted to d <= 16.
    """
    v = np.asarray(v, dtype=np.float64)
    d = v.shape[0]
    if d > 16:
        raise ValueError("numeric Jacobian limited to d <= 16")
    if isinstance(map_or_model, FlowModel):
        def fn(w):
            return kernel_forward(w[None], map_or_model, keep=False)[0][0]
    else:
        fn = map_or_model
    jac = np.empty((d, d))
    for j in range(d):
        vp = v.copy()
        vm = v.copy()
        vp[j] += h
        vm[j] -= h
        jac[:, j] = (np.asarray(fn(vp)) - np.asarray(fn(vm))) / (2.0 * h)
    return lu_logabsdet(jac)


def finite_diff_grad(fn: Callable[[np.ndarray], float], v: np.ndarray,
                     h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    if h <= 0:
        raise ValueError("h must be positive")
    v = np.asarray(v, dtype=np.float64)
    g = np.empty_like(v)
    for i in range(v.size):
        vp = v.copy()
        vm = v.copy()
        vp.flat[i] += h
        vm.flat[i] -= h
        g.flat[i] = (float(fn(vp)) - float(fn(vm))) / (2.0 * h)
    return g


def mc_normalization(model: FlowModel, latent: GmmLatent, bounds: Bounds,
                     n_samples: int, seed: int = 0) -> tuple[float, float, bool]:
    """Uniform Monte-Carlo estimate of the density mass inside a 2-D box.

    Returns (mass, standard_error, boundary_warning). The warning flags
    configurations where the density on the box edge is large enough that
    more than ~1% of the mass plausibly lies outside (heuristic: max edge
    density times perimeter times a unit decay length).
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if model.d != 2:
        raise ValueError("mc_normalization is restricted to d = 2")
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    area = (x_hi - x_lo) * (y_hi - y_lo)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(MC_CHUNK, n_samples - done)
        pts = np.empty((m, 2))
        pts[:, 0] = rng.uniform(x_lo, x_hi, size=m)
        pts[:, 1] = rng.uniform(y_lo, y_hi, size=m)
        dens = np.exp(marginal_logpdf(pts, model, latent))
        total += float(dens.sum())
        total_sq += float((dens * dens).sum())
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    mass = area * mean
    stderr = area * np.sqrt(var / n_samples)

    edge = _boundary_points(bounds, per_side=100)
    edge_max = float(np.exp(marginal_logpdf(edge, model, latent)).max())
    perimeter = 2.0 * ((x_hi - x_lo) + (y_hi - y_lo))
    warn = edge_max * perimeter > 0.01
    return mass, float(stderr), warn


def _boundary_points(bounds: Bounds, per_side: int) -> np.ndarray:
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    xs = np.linspace(x_lo, x_hi, per_side)
    ys = np.linspace(y_lo, y_hi, per_side)
    return np.concatenate([
        np.column_stack([xs, np.full(per_side, y_lo)]),
        np.column_stack([xs, np.full(per_side, y_hi)]),
        np.column_stack([np.full(per_side, x_lo), ys]),
        np.column_stack([np.full(per_side, x_hi), ys]),
    ])


@dataclass
class GridDump:
    """Log-density at the cell centers of a 2-D grid."""
    x: np.ndarray
    y: np.ndarray
    logp: np.ndarray


def grid_density_dump(model: FlowModel, latent: GmmLatent, bounds: Bounds,
                      resolution: int) -> GridDump:
    """Evaluate the marginal log-density at cell centers of a 2-D grid.

    Cells are visited row-major with x varying fastest inside each y row;
    centers sit at lo + (i + 0.5) * (hi - lo) / resolution.
    """
    if model.d != 2:
        raise ValueError("grid dump is restricted to d = 2")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    cx = x_lo + (np.arange(resolution) + 0.5) * (x_hi - x_lo) / resolution
    cy = y_lo + (np.arange(resolution) + 0.5) * (y_hi - y_lo) / resolution
    gx, gy = np.meshgrid(cx, cy)               # gy varies by row, gx by column
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return GridDump(x=pts[:, 0], y=pts[:, 1], logp=marginal_logpdf(pts, model, latent))
