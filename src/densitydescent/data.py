"""Synthetic 2-D datasets with labeled/unlabeled/test partitions."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, check_fields, knob

KINDS = ("moons", "circles", "blobs", "anisotropic-gmm")

# Upper bound on ``dataset.n``, about 500x the shipped configs: an absurd
# size fails as a config error instead of when numpy allocates.
MAX_SAMPLES = 1_000_000


@dataclass
class Dataset:
    x: np.ndarray                     # (N, input_dim)
    y: np.ndarray                     # (N,) int class indices
    n_classes: int
    labeled_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    unlabeled_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    test_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass
class DataSpec:
    """Declarative dataset recipe; the default is the two-moons benchmark.
    A ``labeled_per_class`` of -1 labels the whole train pool."""
    kind: str = knob("moons", choices=KINDS)
    n: int = knob(1016, ge=10, le=MAX_SAMPLES)
    noise: float = knob(0.07, ge=0)   # below 0, moons would use |noise|, blobs 5e-6
    n_classes: int = knob(2, key="classes", ge=2)
    labeled_per_class: int = knob(4, ge=1, also=(-1,))
    test_fraction: float = knob(0.5, ge=0, lt=1)
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "dataset")


def generate(kind: str, n: int, noise: float, seed: int, n_classes: int = 2) -> Dataset:
    """Sample one of the parametric generators (splits left empty).

    ``DataSpec`` checks each argument; moons and circles have two classes by
    construction, so for them any other ``n_classes`` is rejected here.
    """
    if kind in ("moons", "circles") and n_classes != 2:
        raise ConfigError(f"dataset.classes: {kind} has 2 classes, got {n_classes}")
    rng = np.random.default_rng(seed)
    if kind == "moons":
        x, y = _moons(n, noise, rng)
    elif kind == "circles":
        x, y = _circles(n, noise, rng)
    elif kind == "blobs":
        x, y = _blobs(n, noise, rng, n_classes)
    else:
        x, y = _aniso(n, noise, rng, n_classes)
    return Dataset(x=x, y=y, n_classes=n_classes)


def _moons(n: int, noise: float, rng: np.random.Generator):
    n_out = n // 2
    n_in = n - n_out
    t_out = np.linspace(0.0, np.pi, n_out)
    t_in = np.linspace(0.0, np.pi, n_in)
    outer = np.column_stack([np.cos(t_out), np.sin(t_out)])
    inner = np.column_stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)])
    x = np.vstack([outer, inner]) + noise * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)])
    return x, y


def _circles(n: int, noise: float, rng: np.random.Generator, factor: float = 0.5):
    n_out = n // 2
    n_in = n - n_out
    t_out = np.linspace(0.0, 2.0 * np.pi, n_out, endpoint=False)
    t_in = np.linspace(0.0, 2.0 * np.pi, n_in, endpoint=False)
    outer = np.column_stack([np.cos(t_out), np.sin(t_out)])
    inner = factor * np.column_stack([np.cos(t_in), np.sin(t_in)])
    x = np.vstack([outer, inner]) + noise * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)])
    return x, y


def _spread_centers(k: int, rng: np.random.Generator, min_sep: float = 4.0):
    """Rejection-sample K centers in a box with a minimum pairwise distance."""
    centers = []
    for _ in range(10_000):
        c = rng.uniform(-6.0, 6.0, size=2)
        if all(np.linalg.norm(c - prev) >= min_sep for prev in centers):
            centers.append(c)
            if len(centers) == k:
                return np.array(centers)
    raise ConfigError(f"dataset.classes: could not place {k} separated centers; "
                      f"reduce the class count")


def _blobs(n: int, noise: float, rng: np.random.Generator, k: int):
    centers = _spread_centers(k, rng)
    std = max(noise, 1e-6) * 5.0     # noise=0.1 -> comfortably separated blobs
    counts = [n // k + (1 if i < n % k else 0) for i in range(k)]
    xs, ys = [], []
    for cls, (center, cnt) in enumerate(zip(centers, counts)):
        xs.append(center + std * rng.standard_normal((cnt, 2)))
        ys.append(np.full(cnt, cls, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def _aniso(n: int, noise: float, rng: np.random.Generator, k: int):
    centers = _spread_centers(k, rng)
    scale = max(noise, 1e-6) * 5.0
    counts = [n // k + (1 if i < n % k else 0) for i in range(k)]
    xs, ys = [], []
    for cls, (center, cnt) in enumerate(zip(centers, counts)):
        a = rng.standard_normal((2, 2))
        cov = scale * scale * (a @ a.T + 0.25 * np.eye(2))
        chol = np.linalg.cholesky(cov)
        xs.append(center + rng.standard_normal((cnt, 2)) @ chol.T)
        ys.append(np.full(cnt, cls, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def partition(ds: Dataset, labeled_per_class: int, test_fraction: float,
              seed: int) -> Dataset:
    """Stratified labeled draw, fixed test split, remainder unlabeled.

    ``labeled_per_class`` may be -1 meaning "all of the train pool"
    (supervised-only mode); ``DataSpec`` checks both settings' ranges, and
    a ``test_fraction`` that leaves a class no train row is a ConfigError.
    """
    rng = np.random.default_rng(seed)
    test, labeled, unlabeled = [], [], []
    for cls in range(ds.n_classes):
        members = np.flatnonzero(ds.y == cls)
        if len(members) == 0:
            raise ConfigError(f"dataset: class {cls} has no samples; raise dataset.n")
        members = rng.permutation(members)
        n_test = int(round(test_fraction * len(members)))
        test.append(members[:n_test])
        pool = members[n_test:]
        if len(pool) == 0:
            raise ConfigError(f"dataset.test_fraction: {test_fraction:g} leaves class {cls} "
                              f"no train rows, and every class needs one")
        per_class = len(pool) if labeled_per_class == -1 else labeled_per_class
        if per_class > len(pool):
            raise ConfigError(
                f"dataset.labeled_per_class: class {cls} has {len(pool)} train "
                f"samples, requested {per_class} labeled")
        labeled.append(pool[:per_class])
        unlabeled.append(pool[per_class:])
    return replace(
        ds,
        labeled_idx=np.sort(np.concatenate(labeled)).astype(np.intp),
        unlabeled_idx=np.sort(np.concatenate(unlabeled)).astype(np.intp),
        test_idx=np.sort(np.concatenate(test)).astype(np.intp),
    )


def make_dataset(spec: DataSpec, seed: int | None = None) -> Dataset:
    """Generate and partition in one call; ``seed`` overrides the spec seed."""
    s = spec.seed if seed is None else seed
    ds = generate(spec.kind, spec.n, spec.noise, s, spec.n_classes)
    return partition(ds, spec.labeled_per_class, spec.test_fraction, s + 1)
