"""Teacher-student semi-supervised training with feature perturbations.

The student is a small encoder/decoder pair trained on three terms: a
supervised cross-entropy, a weak-to-strong image-level consistency loss
masked by teacher confidence, and a feature-level consistency loss on
perturbed student features guided by the same pseudo labels. The teacher is
an exponential moving average of the student and is never optimized
directly. A flow density estimator trains alongside as an observer on
detached teacher features and supplies the density-descending direction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffcore as dc
from .data import DataSpec, Dataset, make_dataset
from .errors import ConfigError, NumericError
from .estimator import FlowTrainConfig, flow_train_step, sample_feature_pool
from .flow import init_flow
from .latent import init_latent, softmax
from .optim import Adam, MomentumSGD, poly_decay, step_decay
from .perturb import PerturbConfig, generate_perturbation


@dataclass
class Model:
    """f = g . h: two-layer tanh encoder h and affine softmax decoder g."""
    enc_w1: dc.Tensor
    enc_b1: dc.Tensor
    enc_w2: dc.Tensor
    enc_b2: dc.Tensor
    dec_w: dc.Tensor
    dec_b: dc.Tensor

    def params(self) -> list[dc.Tensor]:
        return [self.enc_w1, self.enc_b1, self.enc_w2, self.enc_b2,
                self.dec_w, self.dec_b]

    def encode(self, x) -> dc.Tensor:
        h = dc.tanh(dc.matmul(dc.as_tensor(x), self.enc_w1) + self.enc_b1)
        return dc.matmul(h, self.enc_w2) + self.enc_b2

    def decode(self, v) -> dc.Tensor:
        return dc.matmul(dc.as_tensor(v), self.dec_w) + self.dec_b

    def forward(self, x) -> dc.Tensor:
        return self.decode(self.encode(x))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.forward(x).data)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(x).data, axis=1)

    def clone(self) -> "Model":
        return Model(*[dc.tensor(p.data.copy()) for p in self.params()])


def init_model(input_dim: int, hidden: int, feature_dim: int, n_classes: int,
               seed: int = 0) -> Model:
    rng = np.random.default_rng(seed)
    return Model(
        enc_w1=dc.tensor(rng.standard_normal((input_dim, hidden)) * np.sqrt(1.0 / input_dim)),
        enc_b1=dc.tensor(np.zeros(hidden)),
        enc_w2=dc.tensor(rng.standard_normal((hidden, feature_dim)) * np.sqrt(1.0 / hidden)),
        enc_b2=dc.tensor(np.zeros(feature_dim)),
        dec_w=dc.tensor(rng.standard_normal((feature_dim, n_classes)) * np.sqrt(1.0 / feature_dim)),
        dec_b=dc.tensor(np.zeros(n_classes)),
    )


@dataclass
class SslConfig:
    """Field defaults follow the full-scale recipe (tau 0.95, lambda 0.5,
    EMA momentum 0.999, feature dim 8); desk-scale runs override via config
    (see ``two_moons_benchmark`` and the CLI schema)."""
    epochs: int = 60
    batch_labeled: int = 8
    batch_unlabeled: int = 64
    lr: float = 0.05
    sgd_momentum: float = 0.9
    poly_power: float = 0.9
    tau: float = 0.95
    lambda_ft: float = 0.5
    ema_momentum: float = 0.999
    sigma_weak: float = 0.05
    sigma_strong: float = 0.25
    drop_prob: float = 0.1
    hidden: int = 64
    feature_dim: int = 8
    flow_blocks: int = 2
    flow_hidden: int = 256
    flow_s_max: float = 2.0
    ft_start_epoch: int | None = None   # default: warm_start_epoch + 1
    seed: int = 0
    perturb: PerturbConfig = field(default_factory=PerturbConfig)
    flow_train: FlowTrainConfig = field(default_factory=FlowTrainConfig)

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must lie in (0, 1)")
        if self.lambda_ft < 0:
            raise ConfigError("lambda_ft must be >= 0")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ConfigError("ema_momentum must lie in [0, 1]")
        if self.sigma_weak >= self.sigma_strong:
            raise ConfigError("weak jitter must be smaller than strong jitter")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ConfigError("drop_prob must lie in [0, 1)")
        if self.epochs < 1 or self.batch_unlabeled < 1 or self.batch_labeled < 1:
            raise ConfigError("epochs and batch sizes must be positive")


@dataclass
class PseudoLabelBatch:
    labels: np.ndarray   # (N,) argmax of teacher probabilities
    mask: np.ndarray     # (N,) float 0/1, confidence above tau

    @property
    def retained(self) -> float:
        return float(self.mask.mean()) if self.mask.size else 0.0


def augment_weak(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian jitter."""
    return x + sigma * rng.standard_normal(x.shape)


def augment_strong(x: np.ndarray, sigma: float, drop_prob: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Stronger jitter plus per-coordinate zeroing with probability drop_prob."""
    out = x + sigma * rng.standard_normal(x.shape)
    keep = rng.random(x.shape) >= drop_prob
    return out * keep


def pseudo_labels(probs: np.ndarray, tau: float) -> PseudoLabelBatch:
    """Hard labels from teacher probabilities, masked by max-prob > tau."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("expected (N, K) probabilities")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("probability rows must sum to 1")
    top = probs.max(axis=1)
    return PseudoLabelBatch(labels=np.argmax(probs, axis=1),
                            mask=(top > tau).astype(np.float64))


def sup_loss(logits: dc.Tensor, labels: np.ndarray) -> dc.Tensor:
    """Mean cross-entropy over the labeled batch."""
    return dc.mean(dc.softmax_cross_entropy(logits, labels))


def masked_consistency_loss(logits: dc.Tensor, pseudo: PseudoLabelBatch) -> dc.Tensor:
    """Cross-entropy vs pseudo labels, masked entries zeroed, mean over batch."""
    ce = dc.softmax_cross_entropy(logits, pseudo.labels)
    n = ce.shape[0]
    return dc.sum(ce * dc.as_tensor(pseudo.mask)) * (1.0 / n)


# the image-level loss is the masked consistency applied to predictions on
# the strong view; the feature-level loss applies the same reduction to
# predictions on perturbed features
image_consistency_loss = masked_consistency_loss


def feature_consistency_loss(features: dc.Tensor, pseudo: PseudoLabelBatch,
                             flow_model, latent, cfg: PerturbConfig,
                             decode_fn, rng: np.random.Generator,
                             flow_ready: bool = True):
    """Consistency on perturbed features, guided by the same pseudo labels.

    Returns (loss, info). Before the estimator has taken a step the loss is
    zero and info carries a warming flag.
    """
    if not flow_ready:
        return dc.as_tensor(0.0), {"warming": True, "fallbacks": 0, "eps": 0.0}
    delta, stats = generate_perturbation(
        features.data, cfg, rng, flow_model=flow_model, latent=latent,
        logits_fn=decode_fn)
    perturbed = features + dc.tensor(delta)
    loss = masked_consistency_loss(decode_fn(perturbed), pseudo)
    return loss, {"warming": False, "fallbacks": stats.fallbacks, "eps": stats.eps}


def unified_loss(l_sup: dc.Tensor, l_im: dc.Tensor | None,
                 l_ft: dc.Tensor | None, lambda_ft: float) -> dc.Tensor:
    """L = L_sup + L_im + lambda_ft * L_ft, skipping absent terms."""
    total = l_sup
    if l_im is not None:
        total = total + l_im
    if l_ft is not None and lambda_ft > 0:
        total = total + lambda_ft * l_ft
    return total


def ema_update(teacher: Model, student: Model, momentum: float) -> None:
    """teacher <- m * teacher + (1 - m) * student, parameter-wise."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must lie in [0, 1]")
    for tp, sp in zip(teacher.params(), student.params()):
        if tp.data.shape != sp.data.shape:
            raise ValueError("teacher/student parameter shapes do not match")
        tp.data = momentum * tp.data + (1.0 - momentum) * sp.data


def evaluate(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    if len(x) == 0:
        return float("nan")
    return float(np.mean(model.predict(x) == y))


def params_digest(params: list[dc.Tensor]) -> str:
    h = hashlib.sha256()
    for p in params:
        h.update(p.data.tobytes())
    return h.hexdigest()


METRIC_COLUMNS = ("epoch", "L_sup", "L_im", "L_ft", "L_flow",
                  "pseudo_retention", "test_acc")


@dataclass
class TrainResult:
    rows: list[dict] = field(default_factory=list)
    final_test_acc: float = 0.0
    isolation_violations: int = 0
    pool_warnings: int = 0
    perturb_fallbacks: int = 0
    warming_iterations: int = 0
    flow_steps: int = 0
    student: Model | None = None
    teacher: Model | None = None
    flow_model: object = None
    latent: object = None


def write_metrics_csv(result: TrainResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(METRIC_COLUMNS) + "\n")
        for row in result.rows:
            cells = [str(row["epoch"])] + [repr(float(row[c])) for c in METRIC_COLUMNS[1:]]
            fh.write(",".join(cells) + "\n")


def train_ssl(cfg: SslConfig, ds: Dataset, check_isolation: bool = False) -> TrainResult:
    """Run the full interleaved loop and return per-epoch metrics.

    Each iteration: student step on the unified objective, EMA teacher
    update, then (past the warm-start epoch) one flow step on a freshly
    sampled detached feature pool. Epochs are 1-indexed. With an empty
    unlabeled split the loop degenerates to supervised training and the
    estimator never runs.
    """
    x, y = ds.x, ds.y
    xl, yl = x[ds.labeled_idx], y[ds.labeled_idx]
    xu = x[ds.unlabeled_idx]
    xt, yt = x[ds.test_idx], y[ds.test_idx]
    if len(xl) == 0:
        raise ConfigError("training needs a labeled split")
    k = ds.n_classes

    seeds = np.random.SeedSequence(cfg.seed).spawn(5)
    s_model, s_flow, s_latent, s_loop, s_pert = [int(s.generate_state(1)[0]) for s in seeds]
    student = init_model(x.shape[1], cfg.hidden, cfg.feature_dim, k, s_model)
    teacher = student.clone()
    flow_model = init_flow(cfg.feature_dim, cfg.flow_blocks, cfg.flow_hidden,
                           cfg.flow_s_max, s_flow)
    latent = init_latent(k, cfg.feature_dim, s_latent)
    rng = np.random.default_rng(s_loop)
    prng = np.random.default_rng(s_pert)

    opt = MomentumSGD(student.params(), cfg.lr, cfg.sgd_momentum)
    fopt = Adam(flow_model.params(), cfg.flow_train.lr,
                (cfg.flow_train.beta1, cfg.flow_train.beta2), cfg.flow_train.adam_eps)

    semi = len(xu) > 0
    per_epoch = (math.ceil(len(xu) / cfg.batch_unlabeled) if semi
                 else math.ceil(len(xl) / cfg.batch_labeled))
    total_iters = cfg.epochs * per_epoch
    ft_start = (cfg.ft_start_epoch if cfg.ft_start_epoch is not None
                else cfg.flow_train.warm_start_epoch + 1)

    result = TrainResult()
    it_global = 0
    for epoch in range(1, cfg.epochs + 1):
        fopt.lr = step_decay(cfg.flow_train.lr, (epoch - 1) / cfg.epochs,
                             cfg.flow_train.decay_fractions, cfg.flow_train.decay_gamma)
        order_u = rng.permutation(len(xu)) if semi else None
        order_l = rng.permutation(len(xl))
        sums = {"L_sup": 0.0, "L_im": 0.0, "L_ft": 0.0, "L_flow": 0.0}
        retained = 0.0
        seen_u = 0
        for it in range(per_epoch):
            opt.lr = poly_decay(cfg.lr, it_global, total_iters, cfg.poly_power)
            li = _batch_indices(order_l, it, cfg.batch_labeled)
            xb_l = augment_weak(xl[li], cfg.sigma_weak, rng)
            l_sup = sup_loss(student.forward(xb_l), yl[li])
            l_im = l_ft = None
            xw = None
            pinfo = None
            if semi:
                ui = order_u[it * cfg.batch_unlabeled:(it + 1) * cfg.batch_unlabeled]
                xw = augment_weak(xu[ui], cfg.sigma_weak, rng)
                xs = augment_strong(xu[ui], cfg.sigma_strong, cfg.drop_prob, rng)
                pseudo = pseudo_labels(teacher.predict_proba(xw), cfg.tau)
                v_s = student.encode(xs)
                l_im = image_consistency_loss(student.decode(v_s), pseudo)
                if cfg.lambda_ft > 0 and epoch >= ft_start:
                    l_ft, pinfo = feature_consistency_loss(
                        v_s, pseudo, flow_model, latent, cfg.perturb,
                        student.decode, prng, flow_ready=result.flow_steps > 0)
                    result.warming_iterations += int(pinfo["warming"])
                    result.perturb_fallbacks += pinfo["fallbacks"]
                retained += pseudo.mask.sum()
                seen_u += len(ui)
            loss = unified_loss(l_sup, l_im, l_ft, cfg.lambda_ft)
            if not np.isfinite(float(loss.data)):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch} iter {it} "
                    f"(lr={opt.lr:g}, L_sup={float(l_sup.data):g})")

            flow_digest = params_digest(flow_model.params()) if check_isolation else None
            opt.step(dc.grad(loss, student.params()))
            ema_update(teacher, student, cfg.ema_momentum)
            if check_isolation and params_digest(flow_model.params()) != flow_digest:
                result.isolation_violations += 1

            if semi and epoch >= cfg.flow_train.warm_start_epoch:
                model_digest = (params_digest(student.params() + teacher.params())
                                if check_isolation else None)
                fl = 0.0
                for _ in range(cfg.flow_train.updates_per_iteration):
                    pool = sample_feature_pool(teacher, xb_l, yl[li], xw,
                                               cfg.flow_train.sample_budget, rng)
                    result.pool_warnings += pool.empty_side_warnings
                    fl = flow_train_step(pool, flow_model, latent, fopt)
                    result.flow_steps += 1
                if check_isolation and params_digest(
                        student.params() + teacher.params()) != model_digest:
                    result.isolation_violations += 1
                sums["L_flow"] += fl

            sums["L_sup"] += float(l_sup.data)
            sums["L_im"] += float(l_im.data) if l_im is not None else 0.0
            sums["L_ft"] += float(l_ft.data) if l_ft is not None else 0.0
            it_global += 1

        row = {
            "epoch": epoch,
            "L_sup": sums["L_sup"] / per_epoch,
            "L_im": sums["L_im"] / per_epoch,
            "L_ft": sums["L_ft"] / per_epoch,
            "L_flow": sums["L_flow"] / per_epoch,
            "pseudo_retention": float(retained / seen_u) if seen_u else 0.0,
            "test_acc": evaluate(student, xt, yt),
        }
        result.rows.append(row)
    result.final_test_acc = result.rows[-1]["test_acc"]
    result.student, result.teacher = student, teacher
    result.flow_model, result.latent = flow_model, latent
    return result


def _batch_indices(order: np.ndarray, it: int, batch: int) -> np.ndarray:
    """Cyclic batch slicing so small labeled sets appear every iteration."""
    if len(order) <= batch:
        return order
    start = (it * batch) % len(order)
    idx = np.arange(start, start + batch) % len(order)
    return order[idx]


# ---------------------------------------------------------------------------
# multi-seed runs and the ablation harness


def dataset_for_run(spec: DataSpec, run_seed: int) -> Dataset:
    """Each run seed draws its own dataset, deterministically paired across
    methods that share the seed."""
    mixed = int(np.random.SeedSequence((spec.seed, run_seed)).generate_state(1)[0])
    return make_dataset(spec, seed=mixed)


def run_seeds(cfg: SslConfig, spec: DataSpec, seeds: list[int],
              check_isolation: bool = False) -> list[TrainResult]:
    out = []
    for s in seeds:
        ds = dataset_for_run(spec, s)
        out.append(train_ssl(replace(cfg, seed=s), ds, check_isolation=check_isolation))
    return out


@dataclass
class SweepSpec:
    kinds: list[str] | None = None
    eps: list[float] | None = None
    lambda_ft: list[float] | None = None
    seeds: list[int] = field(default_factory=lambda: [0])


def ablate(cfg: SslConfig, spec: DataSpec, sweep: SweepSpec) -> list[dict]:
    """Train every sweep cell with shared seeds; one row per run.

    Axes left unset fall back to the base config's value. Datasets are
    cached per seed so all cells see identical data at a given seed.
    """
    kinds = sweep.kinds if sweep.kinds else [cfg.perturb.kind]
    eps_values = sweep.eps if sweep.eps else [cfg.perturb.eps]
    lambdas = sweep.lambda_ft if sweep.lambda_ft else [cfg.lambda_ft]
    cache: dict[int, Dataset] = {}
    rows = []
    for kind in kinds:
        for eps in eps_values:
            for lam in lambdas:
                for s in sweep.seeds:
                    if s not in cache:
                        cache[s] = dataset_for_run(spec, s)
                    cell = replace(
                        cfg, seed=s, lambda_ft=lam,
                        perturb=replace(cfg.perturb, kind=kind, eps=eps))
                    res = train_ssl(cell, cache[s])
                    rows.append({"kind": kind, "eps": eps, "lambda_ft": lam,
                                 "seed": s, "test_acc": res.final_test_acc})
    return rows


def two_moons_benchmark() -> tuple[SslConfig, DataSpec]:
    """Desk-scale reference benchmark: two moons, 4 labels/class, 500 unlabeled.

    Calibrated so the supervised+image-consistency baseline neither collapses
    nor saturates: clean teacher views (no weak jitter), mild strong jitter,
    2-D features so the estimated density is full-rank over the feature
    manifold, and an estimator that warms up from the first epoch.
    """
    spec = DataSpec(kind="moons", n=1016, noise=0.07, n_classes=2,
                    labeled_per_class=4, test_fraction=0.5, seed=7)
    cfg = SslConfig(
        epochs=100,
        batch_labeled=8,
        batch_unlabeled=64,
        lr=0.05,
        tau=0.95,
        lambda_ft=1.0,
        ema_momentum=0.99,
        sigma_weak=0.0,
        sigma_strong=0.15,
        drop_prob=0.1,
        hidden=64,
        feature_dim=2,
        ft_start_epoch=2,
        perturb=PerturbConfig(kind="density-descending", eps=0.25, eps_relative=True),
        flow_train=FlowTrainConfig(sample_budget=256, warm_start_epoch=1,
                                   updates_per_iteration=2),
    )
    return cfg, spec
