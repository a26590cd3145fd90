"""Teacher-student semi-supervised training with feature perturbations.

The student is a small encoder/decoder pair trained on three terms: a
supervised cross-entropy, a weak-to-strong image-level consistency loss
masked by teacher confidence, and a feature-level consistency loss on
perturbed student features guided by the same pseudo labels. The teacher is
an exponential moving average of the student and is never optimized
directly. A flow density estimator, stepped by ``estimator.FlowTrainer``,
trains alongside as an observer on detached teacher features and supplies
the density-descending direction.

The training loop runs in plain numpy: ``student_step`` computes the three
losses and the parameter gradients with a hand-derived backward pass (the
encoder's is ``optim.tanh_net_vjp``, as the flow's), every perturbation kind
(the ``vat-lite`` probe included) is hand-derived too, and the teacher and
evaluation use the numpy forward pass. The tests hold ``student_step`` bit for
bit to the same losses built on the tape, in ``tests/reference/student.py``.

``train_ssl`` decides where a run's loop and its flow run, and its
docstring states the rule. Every loop that holds its flow checks that the
flow and the student never write each other's parameters (``_loop``).
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Callable, Generator, Iterator

import numpy as np

from . import worker
from .data import DataSpec, Dataset, make_dataset
from .errors import ConfigError, NumericError, Valid, check_fields, knob
from .estimator import FeaturePool, FlowTrainConfig, FlowTrainer, pool_indices
from .flow import MAX_WIDTH, FlowArch, init_flow
from .latent import BLOCK_ROWS, init_latent, logsumexp_softmax
from .optim import MomentumSGD, pack, poly_decay, tanh_net, tanh_net_vjp
from .perturb import PerturbConfig, generate_perturbation


@dataclass
class Model:
    """f = g . h: two-layer tanh encoder h and affine softmax decoder g.

    The parameters are views into one vector ``flat``, in ``params()`` order.
    ``features``, ``predict_proba`` and ``predict`` run the forward pass in
    plain numpy, the encoder as ``optim.tanh_net``. Its tape form, the
    reference for ``student_step`` and the ``vat-lite`` probe, is ``encode``
    and ``decode`` in ``tests/reference/student.py``.
    """
    flat: np.ndarray
    enc_w1: np.ndarray
    enc_b1: np.ndarray
    enc_w2: np.ndarray
    enc_b2: np.ndarray
    dec_w: np.ndarray
    dec_b: np.ndarray

    def params(self) -> list[np.ndarray]:
        return [self.enc_w1, self.enc_b1, self.enc_w2, self.enc_b2,
                self.dec_w, self.dec_b]

    def features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return tanh_net(x, self.enc_w1, self.enc_b1, self.enc_w2, self.enc_b2)[1]

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self.features(x) @ self.dec_w + self.dec_b

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return logsumexp_softmax(self.logits(x))[1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)

    def clone(self) -> "Model":
        return _packed(self.params())

    def __reduce__(self):
        # unpickled as views of one fresh vector, as ``clone`` builds it
        return _packed, (self.params(),)


def _packed(arrays: list[np.ndarray]) -> Model:
    return Model(*pack(arrays))


def init_model(input_dim: int, hidden: int, feature_dim: int, n_classes: int,
               seed: int = 0) -> Model:
    rng = np.random.default_rng(seed)
    return Model(*pack([
        rng.standard_normal((input_dim, hidden)) * np.sqrt(1.0 / input_dim),
        np.zeros(hidden),
        rng.standard_normal((hidden, feature_dim)) * np.sqrt(1.0 / hidden),
        np.zeros(feature_dim),
        rng.standard_normal((feature_dim, n_classes)) * np.sqrt(1.0 / feature_dim),
        np.zeros(n_classes)]))


# Upper bound on ``ssl.feature_dim`` and the ``verify.dims`` entries, far
# above every shipped value (8): an absurd dimension fails as a config error
# instead of when numpy allocates. Widths are capped by ``flow.MAX_WIDTH``.
MAX_FEATURE_DIM = 1024


@dataclass
class SslConfig:
    """Student, teacher and estimator settings of one training run: a run
    config's ``ssl`` section, whose defaults these are, with ``seed``,
    ``flow``, ``flow_train`` and ``perturb`` filled from the rest of the
    document. The two-moons benchmark recipe is ``configs/moons_ssl.json``."""
    epochs: int = knob(100, ge=1)
    batch_labeled: int = knob(8, ge=1)
    batch_unlabeled: int = knob(64, ge=1)
    lr: float = knob(0.05, gt=0)   # a step <= 0 never descends
    tau: float = knob(0.95, gt=0, lt=1)
    lambda_ft: float = knob(1.0, ge=0)
    ema_momentum: float = knob(0.99, ge=0, le=1)
    sigma_weak: float = knob(0.0, ge=0)   # below 0 it would jitter by |sigma_weak|
    sigma_strong: float = 0.15
    drop_prob: float = knob(0.1, ge=0, lt=1)
    hidden: int = knob(64, ge=1, le=MAX_WIDTH)
    # even: the flow over the features couples one half on the other
    feature_dim: int = knob(2, ge=2, le=MAX_FEATURE_DIM, even=True)
    seed: int = 0
    perturb: PerturbConfig = field(default_factory=PerturbConfig)
    flow: FlowArch = field(default_factory=FlowArch)
    flow_train: FlowTrainConfig = field(default_factory=FlowTrainConfig)

    def __post_init__(self):
        check_fields(self, "ssl")
        check_seeds("seed", [self.seed])
        if not self.sigma_weak < self.sigma_strong:
            raise ConfigError(f"ssl.sigma_weak must be < ssl.sigma_strong = "
                              f"{self.sigma_strong:g}, got {self.sigma_weak:g}")


def derived_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent seeds spawned from one run seed, one per random
    stream of the run (model, flow, latent, ...)."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


SEED = Valid(ge=0)   # every run seed's rule: np.random.SeedSequence rejects negatives


def check_seeds(what: str, seeds) -> None:
    """Each seed must meet ``SEED``, and none may repeat (``check_distinct``)."""
    for s in seeds:
        SEED.check(what, s)
    check_distinct(what, seeds)


def check_distinct(what: str, values) -> None:
    """No entry may repeat: a repeated seed or sweep value would train the
    same run twice. Entries compare by value, so 1 and 1.0 are one."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"{what} must be distinct, got {repeated[0]} more than once")


@dataclass
class PseudoLabelBatch:
    labels: np.ndarray   # (N,) argmax of teacher probabilities
    mask: np.ndarray     # (N,) float 0/1, confidence above tau


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


@dataclass
class StudentStep:
    """Loss values of one student step and the gradient of their sum, one
    fresh vector laid out like ``Model.flat``."""
    l_sup: float
    l_im: float | None       # None without an unlabeled batch
    l_ft: float | None       # None without a feature term
    loss: float              # L_sup + L_im + lambda_ft * L_ft
    grad: np.ndarray


def _cross_entropy(logits: np.ndarray, labels: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row softmax cross-entropy and its logit gradient softmax - onehot."""
    rows = np.arange(len(labels))
    lse, soft = logsumexp_softmax(logits)
    ce = lse - logits[rows, labels]
    soft[rows, labels] -= 1.0
    return ce, soft


def student_step(model: Model, x_l: np.ndarray, y_l: np.ndarray,
                 x_s: np.ndarray | None = None,
                 pseudo: PseudoLabelBatch | None = None,
                 perturb: Callable[[np.ndarray], np.ndarray] | None = None,
                 lambda_ft: float = 0.0) -> StudentStep:
    """Losses of the unified objective and their parameter gradient, by hand;
    the gradient is one fresh vector laid out like ``model.flat``.

    The supervised term uses the labeled batch; with a strong batch ``x_s``
    the image term scores its features against ``pseudo``, and with
    ``perturb`` (called once on those features, returning a constant
    delta) and ``lambda_ft > 0`` the feature term scores the perturbed
    features. Values and gradients equal those of the tape reference
    (``tests/reference/student.py``) bit for bit: every sum is taken in the
    order the tape accumulates it (feature, image, supervised at the
    decoder; perturbed, image at the strong features; strong, labeled at
    the encoder).
    """
    enc = model.enc_w1, model.enc_b1, model.enc_w2, model.enc_b2
    dec_w, dec_b = model.dec_w, model.dec_b
    x_l = np.asarray(x_l, dtype=np.float64)
    h_l, v_l = tanh_net(x_l, *enc)
    ce, soft = _cross_entropy(v_l @ dec_w + dec_b, np.asarray(y_l, dtype=np.int64))
    l_sup = ce.sum() * (1.0 / len(ce))
    loss, l_im, l_ft = l_sup, None, None
    heads = [(v_l, soft * (1.0 / len(ce)))]   # (features, logit gradient)
    if x_s is not None:
        x_s = np.asarray(x_s, dtype=np.float64)
        h_s, v_s = tanh_net(x_s, *enc)
        scale = 1.0 / len(v_s)
        ce, soft = _cross_entropy(v_s @ dec_w + dec_b, pseudo.labels)
        l_im = (ce * pseudo.mask).sum() * scale
        loss = loss + l_im
        heads.append((v_s, soft * (scale * pseudo.mask)[:, None]))
        if perturb is not None and lambda_ft > 0:
            v_p = v_s + np.asarray(perturb(v_s), dtype=np.float64)
            ce, soft = _cross_entropy(v_p @ dec_w + dec_b, pseudo.labels)
            l_ft = (ce * pseudo.mask).sum() * scale
            loss = loss + l_ft * lambda_ft
            heads.append((v_p, soft * (lambda_ft * scale * pseudo.mask)[:, None]))

    g_dec_w = g_dec_b = None
    for v, g in reversed(heads):
        gw, gb = v.T @ g, g.sum(axis=0)
        g_dec_w = gw if g_dec_w is None else g_dec_w + gw
        g_dec_b = gb if g_dec_b is None else g_dec_b + gb
    g_v = [g @ dec_w.T for _, g in heads]
    grads = tanh_net_vjp(x_l, h_l, g_v[0], model.enc_w1, model.enc_w2)[0]
    if x_s is not None:
        # the strong features feed the image head and the perturbed head
        g_vs = g_v[1] if len(g_v) == 2 else g_v[2] + g_v[1]
        grads = [gs + gl for gs, gl in
                 zip(tanh_net_vjp(x_s, h_s, g_vs, model.enc_w1, model.enc_w2)[0], grads)]
    return StudentStep(l_sup=float(l_sup), loss=float(loss),
                       l_im=None if l_im is None else float(l_im),
                       l_ft=None if l_ft is None else float(l_ft),
                       grad=np.concatenate(grads + [g_dec_w, g_dec_b], axis=None))


def ema_update(teacher: Model, student: Model, momentum: float) -> None:
    """teacher <- m * teacher + (1 - m) * student, on the whole vectors."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must lie in [0, 1]")
    if teacher.flat.shape != student.flat.shape:
        raise ValueError("teacher/student parameter shapes do not match")
    teacher.flat *= momentum
    teacher.flat += (1.0 - momentum) * student.flat


def evaluate(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """Accuracy on (x, y), predicted ``latent.BLOCK_ROWS`` rows at a time so
    that the (rows, hidden) activations stay one block in size."""
    if len(x) == 0:
        return float("nan")
    hits = 0
    for i in range(0, len(x), BLOCK_ROWS):
        block = model.predict(x[i:i + BLOCK_ROWS]) == y[i:i + BLOCK_ROWS]
        hits += int(np.count_nonzero(block))
    return hits / len(x)


METRIC_COLUMNS = ("epoch", "L_sup", "L_im", "L_ft", "L_flow",
                  "pseudo_retention", "test_acc")


@dataclass
class TrainResult:
    """One run: its per-epoch ``METRIC_COLUMNS`` rows, its counters and its
    final models. The counters are the isolation check's violations (the
    iterations whose student step, perturbation included, changed the flow
    or whose flow steps changed the student or teacher; counted by every
    loop that holds its flow, None from one that holds none and so checks
    nothing), the perturbation's fallbacks and the flow steps. Wherever
    ``train_ssl`` runs the loop, every field but ``isolation_violations``
    equals that of the same run in one process. A run that trains no flow
    has rows without an ``L_flow`` key, no ``flow_model`` or ``latent``, 0
    ``flow_steps`` and None ``isolation_violations``; every other field
    equals that of the run with its flow."""
    rows: list[dict] = field(default_factory=list)
    final_test_acc: float = 0.0
    isolation_violations: int | None = None
    perturb_fallbacks: int = 0
    flow_steps: int = 0
    student: Model | None = None
    teacher: Model | None = None
    flow_model: object = None
    latent: object = None


def train_ssl(cfg: SslConfig, ds: Dataset, keep_flow: bool = True) -> TrainResult:
    """Run the full interleaved loop and return per-epoch metrics.

    Each iteration: student step on the unified objective (``student_step``),
    EMA teacher update, then (past the warm-start epoch) flow steps on
    freshly sampled detached teacher feature pools. Epochs are 1-indexed.
    With an empty unlabeled split the loop degenerates to supervised
    training and the estimator never runs. The run's five seeds are derived
    here once; the loop takes its two (``_loop``).

    Only the density-descending perturbation at ``lambda_ft > 0`` reads the
    flow (``reads_flow``). With ``keep_flow`` off the caller reads nothing
    of it either (no ``L_flow``, no flow model), so a run whose perturbation
    does not read it trains none: the loop runs here without a flow, yields
    no pools and only draws the rows of every pool, so its random streams,
    models and other columns are those of the run with its flow.

    Otherwise an ``estimator.FlowTrainer`` steps the flow here on each pool
    the loop yields, and ``_drained`` adds each epoch's ``L_flow``. Any run
    whose perturbation does not read the flow, and that takes flow steps,
    runs the loop in one forked worker when the host can fork onto a second
    core (``_splits``), through ``worker.streamed``, so the worker goes on
    while the flow steps. The result is bit for bit that of the run in one
    process. A worker's error is raised here, unchanged, after the pools
    before it, and the worker is reaped before this function returns, so a
    run holds at most two processes. Every run whose loop runs here with its
    flow checks isolation (``_loop``).
    """
    if len(ds.labeled_idx) == 0:
        raise ConfigError("training needs a labeled split")
    s_model, s_flow, s_latent, *seeds = derived_seeds(cfg.seed, 5)
    student = init_model(ds.x.shape[1], cfg.hidden, cfg.feature_dim, ds.n_classes, s_model)
    teacher = student.clone()
    if not (keep_flow or reads_flow(cfg)):
        loop = _loop(cfg, ds, student, teacher, None, seeds, pools=False)
        return _drained(loop, None, cfg.epochs)
    trainer = FlowTrainer(init_flow(cfg.feature_dim, cfg.flow.blocks, cfg.flow.hidden,
                                    cfg.flow.s_max, s_flow),
                          init_latent(ds.n_classes, cfg.feature_dim, s_latent), cfg.flow_train)
    if _splits(cfg, ds):
        # a flow error stops and reaps the worker at once
        with closing(worker.streamed(_loop, cfg, ds, student, teacher, None, seeds)) as loop:
            return _drained(loop, trainer, cfg.epochs)
    return _drained(_loop(cfg, ds, student, teacher, trainer, seeds), trainer, cfg.epochs)


def reads_flow(cfg: SslConfig) -> bool:
    """Whether the run's perturbation reads the flow: only the
    density-descending kind does, and only at ``lambda_ft > 0``."""
    return cfg.lambda_ft > 0 and cfg.perturb.kind == "density-descending"


def _splits(cfg: SslConfig, ds: Dataset) -> bool:
    """Whether ``train_ssl`` runs its loop in a worker, by the rule its
    docstring states. Decided by the config, the split sizes and the host
    (``worker.can_fork``), never by the data's values. The split pays only
    while the second core is idle; where other work holds it, it loses."""
    return (not reads_flow(cfg) and len(ds.unlabeled_idx) > 0
            and cfg.flow_train.warm_start_epoch <= cfg.epochs and worker.can_fork())


def _drained(loop, trainer: FlowTrainer | None, epochs: int) -> TrainResult:
    """Step ``trainer`` once per pool of each (epoch, pools) ``loop`` yields
    at progress ``(epoch - 1) / epochs``, and return the loop's finished
    result. With a trainer, each row gains its epoch's ``L_flow`` in
    ``METRIC_COLUMNS`` order: each iteration's last loss summed in
    iteration order from 0.0, then divided by their count, which past the
    warm start is every iteration of the epoch; an epoch without flow steps
    reads 0.0. The result then holds the trainer's flow and latent."""
    totals, counts = [0.0] * epochs, [0] * epochs
    while True:
        try:
            epoch, pools = next(loop)
        except StopIteration as end:
            result = end.value
            break
        for pool in pools:
            loss = trainer.step(pool, (epoch - 1) / epochs)
        totals[epoch - 1] += loss   # plain adds: from Python 3.12 sum() compensates rounding
        counts[epoch - 1] += 1
    if trainer is not None:
        result.rows = [{c: (total / count if count else 0.0) if c == "L_flow" else row[c]
                        for c in METRIC_COLUMNS}
                       for row, total, count in zip(result.rows, totals, counts)]
        result.flow_model, result.latent = trainer.model, trainer.latent
    return result


def _loop(cfg: SslConfig, ds: Dataset, student: Model, teacher: Model,
          flow: FlowTrainer | None, seeds, pools: bool = True
          ) -> Generator[tuple[int, list[FeaturePool]], None, TrainResult]:
    """The teacher-student loop of ``train_ssl``, a generator that returns
    its ``TrainResult``; the rows have no ``L_flow``. The perturbation reads
    the model and latent of the trainer ``flow`` (one that reads a flow
    fails without one); ``seeds`` seed the loop's and the perturbation's
    random streams. Each iteration from the warm-start epoch on yields its
    1-indexed epoch and its pools, counted as flow steps, and resumes once
    the consumer has stepped the flow on them; with ``pools`` off it yields
    nothing, counts no flow step and only makes the pools' random draws. The
    feature term starts in the epoch after the warm start, so the flow has
    always stepped before a perturbation reads it. A loop that holds its
    flow checks isolation each iteration on exact bytes: the flow's around
    the student step, perturbation included, and the student's and
    teacher's around the yield of pools; each change counts one violation.
    A loop with no flow checks nothing, and its count is None."""
    x, y = ds.x, ds.y
    xl, yl = x[ds.labeled_idx], y[ds.labeled_idx]
    xu = x[ds.unlabeled_idx]
    xt, yt = x[ds.test_idx], y[ds.test_idx]
    rng, prng = map(np.random.default_rng, seeds)
    opt = MomentumSGD(student.flat, cfg.lr)

    semi = len(xu) > 0
    per_epoch = (math.ceil(len(xu) / cfg.batch_unlabeled) if semi
                 else math.ceil(len(xl) / cfg.batch_labeled))
    total_iters = cfg.epochs * per_epoch

    result = TrainResult(isolation_violations=None if flow is None else 0)
    flow_model, latent = (flow.model, flow.latent) if flow is not None else (None, None)

    def feature_delta(v_s: np.ndarray) -> np.ndarray:
        delta, fallbacks = generate_perturbation(
            v_s, cfg.perturb, prng, flow_model=flow_model, latent=latent,
            decoder=(student.dec_w, student.dec_b))
        result.perturb_fallbacks += fallbacks
        return delta

    def snapshot(*models) -> bytes | None:
        """Parameter bytes for the isolation check; None without a flow."""
        return b"".join(m.flat.tobytes() for m in models) if flow is not None else None

    it_global = 0
    for epoch in range(1, cfg.epochs + 1):
        order_u = rng.permutation(len(xu)) if semi else None
        order_l = rng.permutation(len(xl))
        sums = {"L_sup": 0.0, "L_im": 0.0, "L_ft": 0.0}
        retained = 0.0
        seen_u = 0
        for it in range(per_epoch):
            opt.lr = poly_decay(cfg.lr, it_global, total_iters)
            li = _batch_indices(order_l, it, cfg.batch_labeled)
            xb_l = augment_weak(xl[li], cfg.sigma_weak, rng)
            xs = xw = pseudo = perturb = None
            if semi:
                ui = order_u[it * cfg.batch_unlabeled:(it + 1) * cfg.batch_unlabeled]
                xw = augment_weak(xu[ui], cfg.sigma_weak, rng)
                xs = augment_strong(xu[ui], cfg.sigma_strong, cfg.drop_prob, rng)
                pseudo = pseudo_labels(teacher.predict_proba(xw), cfg.tau)
                # the feature term starts once the flow has trained for an epoch
                if cfg.lambda_ft > 0 and epoch > cfg.flow_train.warm_start_epoch:
                    perturb = feature_delta
                retained += pseudo.mask.sum()
                seen_u += len(ui)
            # taken before the student step, which runs the perturbation
            flow_bytes = snapshot(flow_model)
            step = student_step(student, xb_l, yl[li], xs, pseudo, perturb, cfg.lambda_ft)
            if not np.isfinite(step.loss):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch} iter {it} "
                    f"(lr={opt.lr:g}, L_sup={step.l_sup:g})")
            opt.step(step.grad)
            ema_update(teacher, student, cfg.ema_momentum)
            if snapshot(flow_model) != flow_bytes:
                result.isolation_violations += 1

            if semi and epoch >= cfg.flow_train.warm_start_epoch:
                draws = [pool_indices(len(xb_l), len(xw), cfg.flow_train.sample_budget, rng)
                         for _ in range(cfg.flow_train.updates_per_iteration)]
                if pools:
                    models_bytes = snapshot(student, teacher)
                    # the teacher is fixed across the updates: encode its pools once
                    feats_l, feats_u = teacher.features(xb_l), teacher.features(xw)
                    yield epoch, [FeaturePool(labeled=feats_l[il], labels=yl[li][il],
                                              unlabeled=feats_u[iu]) for il, iu in draws]
                    if snapshot(student, teacher) != models_bytes:
                        result.isolation_violations += 1
                    result.flow_steps += len(draws)

            sums["L_sup"] += step.l_sup
            sums["L_im"] += step.l_im if step.l_im is not None else 0.0
            sums["L_ft"] += step.l_ft if step.l_ft is not None else 0.0
            it_global += 1

        result.rows.append({
            "epoch": epoch,
            "L_sup": sums["L_sup"] / per_epoch,
            "L_im": sums["L_im"] / per_epoch,
            "L_ft": sums["L_ft"] / per_epoch,
            "pseudo_retention": float(retained / seen_u) if seen_u else 0.0,
            "test_acc": evaluate(student, xt, yt),
        })
    result.final_test_acc = result.rows[-1]["test_acc"]
    result.student, result.teacher = student, teacher
    return result


def _batch_indices(order: np.ndarray, it: int, batch: int) -> np.ndarray:
    """Cyclic batch slicing so small labeled sets appear every iteration."""
    if len(order) <= batch:
        return order
    start = (it * batch) % len(order)
    idx = np.arange(start, start + batch) % len(order)
    return order[idx]


# ---------------------------------------------------------------------------
# run lists: a run is its seeded config


def dataset_for_run(spec: DataSpec, run_seed: int) -> Dataset:
    """Each run seed draws its own dataset, deterministically paired across
    methods that share the seed."""
    mixed = int(np.random.SeedSequence((spec.seed, run_seed)).generate_state(1)[0])
    return make_dataset(spec, seed=mixed)


def runs(cfgs: list[SslConfig], spec: DataSpec, keep_flow: bool = True
         ) -> Iterator[tuple[SslConfig, TrainResult]]:
    """Train each seeded config on its own dataset draw; yields each config
    with its result in list order, as soon as its run finishes. The runs go
    one after another, each laid out by ``train_ssl`` with ``keep_flow``."""
    for cfg in cfgs:
        yield cfg, train_ssl(cfg, dataset_for_run(spec, cfg.seed), keep_flow=keep_flow)


@dataclass
class SweepSpec:
    kinds: list[str] | None = None
    eps: list[float] | None = None
    lambda_ft: list[float] | None = None
    seeds: list[int] | None = None

    def __post_init__(self):
        check_seeds("sweep key 'seeds' entries", self.seeds or [])
        for key in ("kinds", "eps", "lambda_ft"):
            check_distinct(f"sweep key {key!r} entries", getattr(self, key) or [])

    def over(self, cfg: SslConfig) -> SweepSpec:
        """This sweep with each axis it leaves unset, seeds too, at ``cfg``'s
        value, as ``train-ssl`` without ``--seeds`` runs ``cfg.seed``."""
        return SweepSpec(self.kinds or [cfg.perturb.kind], self.eps or [cfg.perturb.eps],
                         self.lambda_ft or [cfg.lambda_ft], self.seeds or [cfg.seed])


def cells(cfg: SslConfig, sweep: SweepSpec) -> list[SslConfig]:
    """The seeded config of each cell of ``sweep.over(cfg)``, validated as it
    is built, in (kind, eps, lambda_ft, seed) order; a seed's cells share a draw."""
    axes = sweep.over(cfg)
    return [replace(cfg, seed=s, lambda_ft=lam,
                    perturb=replace(cfg.perturb, kind=kind, eps=eps))
            for kind in axes.kinds for eps in axes.eps for lam in axes.lambda_ft
            for s in axes.seeds]
