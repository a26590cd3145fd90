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
losses and the parameter gradients with a hand-derived backward pass, every
perturbation kind (the ``vat-lite`` probe included) is hand-derived too, and
the teacher and evaluation use the numpy forward pass. The tests hold
``student_step`` bit for bit to the same losses built on the autodiff tape,
in ``tests/reference/student.py``.

A run whose perturbation never reads the flow (``lambda_ft`` 0, or a
baseline kind) trains no flow when its caller reads none either (``ablate``);
otherwise, when the run is its command's only one, it trains the flow on
a second core: ``train_ssl`` streams the loop's pools from one forked worker
and steps its trainer on them, with the same bits as in one process. A
multi-run command hands its list of seeded configs to ``runs``, and each run
steps its flow in this process. Every loop that holds its flow checks that
the flow and the student never write each other's parameters (``_loop``).
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Callable, Generator, Iterator

import numpy as np

from .data import DataSpec, Dataset, make_dataset
from .errors import ConfigError, NumericError, Valid, check_fields, knob
from .estimator import FeaturePool, FlowTrainConfig, FlowTrainer, pool_indices
from .flow import MAX_WIDTH, FlowArch, init_flow
from .latent import BLOCK_ROWS, init_latent, softmax
from .optim import MomentumSGD, pack, poly_decay
from .perturb import PerturbConfig, dropped_channels, generate_perturbation
from .worker import can_fork, streamed


@dataclass
class Model:
    """f = g . h: two-layer tanh encoder h and affine softmax decoder g.

    The parameters are views into one vector ``flat``, in ``params()`` order.
    ``features``, ``predict_proba`` and ``predict`` run the forward pass in
    plain numpy. Its tape form, the reference for ``student_step`` and the
    ``vat-lite`` probe, is ``encode`` and ``decode`` in
    ``tests/reference/student.py``.
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
        return _encode(self, x)[2]

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self.features(x) @ self.dec_w + self.dec_b

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.logits(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)

    def clone(self) -> "Model":
        return _packed(self.params())

    def __reduce__(self):
        # unpickled as views of one fresh vector, as ``clone`` builds it
        return _packed, (self.params(),)


def _packed(arrays: list[np.ndarray]) -> Model:
    return Model(*pack(arrays))


def _encode(model: Model, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numpy encoder forward: the float64 input, hidden activations, features."""
    x = np.asarray(x, dtype=np.float64)
    h = x @ model.enc_w1
    h += model.enc_b1
    np.tanh(h, out=h)   # one (rows, hidden) array, not three
    return x, h, h @ model.enc_w2 + model.enc_b2


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
    # a step <= 0 never descends, and momentum >= 1 never forgets a step
    lr: float = knob(0.05, gt=0)
    sgd_momentum: float = knob(0.9, ge=0, lt=1)
    poly_power: float = knob(0.9, ge=0)   # below 0 the learning rate grows
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
        rate = self.perturb.dropout_rate
        k = dropped_channels(rate, self.feature_dim)
        if self.perturb.kind == "channel-dropout" and not 1 <= k < self.feature_dim:
            # k = 0 leaves the feature as it is; k = feature_dim zeroes all of it
            raise ConfigError(
                f"perturb.dropout_rate {rate:g} drops round({rate:g} * ssl.feature_dim "
                f"{self.feature_dim}) = {k} channels; channel-dropout must drop "
                f"1 to {self.feature_dim - 1}")


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
    n = len(labels)
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    ce = m[:, 0] + np.log(e.sum(axis=1)) - logits[np.arange(n), labels]
    soft = e / e.sum(axis=1, keepdims=True)
    soft[np.arange(n), labels] -= 1.0
    return ce, soft


def _encoder_grads(model: Model, x: np.ndarray, h: np.ndarray,
                   g_v: np.ndarray) -> list[np.ndarray]:
    """Encoder parameter gradients given the gradient at its features."""
    g_p = (g_v @ model.enc_w2.T) * (1.0 - h * h)
    return [x.T @ g_p, g_p.sum(axis=0), h.T @ g_v, g_v.sum(axis=0)]


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
    dec_w, dec_b = model.dec_w, model.dec_b
    x_l, h_l, v_l = _encode(model, x_l)
    ce, soft = _cross_entropy(v_l @ dec_w + dec_b, np.asarray(y_l, dtype=np.int64))
    l_sup = ce.sum() * (1.0 / len(ce))
    loss, l_im, l_ft = l_sup, None, None
    heads = [(v_l, soft * (1.0 / len(ce)))]   # (features, logit gradient)
    if x_s is not None:
        x_s, h_s, v_s = _encode(model, x_s)
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
    grads = _encoder_grads(model, x_l, h_l, g_v[0])
    if x_s is not None:
        # the strong features feed the image head and the perturbed head
        g_vs = g_v[1] if len(g_v) == 2 else g_v[2] + g_v[1]
        grads = [gs + gl for gs, gl in
                 zip(_encoder_grads(model, x_s, h_s, g_vs), grads)]
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
    nothing), the perturbation's fallbacks and the flow steps. A split run
    (see ``train_ssl``) takes the rows without ``L_flow``, the counters, the
    student and the teacher from its worker's loop, and the flow, the latent
    and ``L_flow`` from the calling process's ``FlowTrainer``; every field
    but ``isolation_violations`` equals that of the same run in one process.
    A run without a flow (``keep_flow`` off and a perturbation that reads
    none) has rows without an ``L_flow`` key, no ``flow_model`` or
    ``latent``, 0 ``flow_steps`` and None ``isolation_violations``; every
    other field equals that of the run with its flow."""
    rows: list[dict] = field(default_factory=list)
    final_test_acc: float = 0.0
    isolation_violations: int | None = None
    perturb_fallbacks: int = 0
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


def train_ssl(cfg: SslConfig, ds: Dataset, keep_flow: bool = True,
              may_split: bool = True) -> TrainResult:
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
    the loop yields (``_drained``), and this function keeps each epoch's
    losses for ``L_flow``. Any run whose perturbation does not read the
    flow, and that takes flow steps, runs the loop in one forked worker when
    the host can fork onto a second core (``_splits``), through
    ``worker.streamed``, so the worker goes on while the flow steps. The
    result is bit for bit that of the run in one process. A worker's error
    is raised here, unchanged, after the pools before it. ``may_split`` off
    keeps the run in this process whatever the host; ``runs`` leaves it on
    only for a list of one config, so the runs of a multi-run command, not
    the phases of one run, are what may share the cores. Every run whose
    loop runs here with its flow checks isolation (``_loop``).
    """
    if len(ds.labeled_idx) == 0:
        raise ConfigError("training needs a labeled split")
    s_model, s_flow, s_latent, *seeds = derived_seeds(cfg.seed, 5)
    student = init_model(ds.x.shape[1], cfg.hidden, cfg.feature_dim, ds.n_classes, s_model)
    teacher = student.clone()
    if not (keep_flow or reads_flow(cfg)):
        loop = _loop(cfg, ds, student, teacher, None, seeds, pools=False)
        return _drained(loop, None, [])
    trainer = FlowTrainer(init_flow(cfg.feature_dim, cfg.flow.blocks, cfg.flow.hidden,
                                    cfg.flow.s_max, s_flow),
                          init_latent(ds.n_classes, cfg.feature_dim, s_latent), cfg.flow_train)
    if may_split and _splits(cfg, ds):
        loop = streamed(_loop, cfg, ds, student, teacher, None, seeds)
    else:
        loop = _loop(cfg, ds, student, teacher, trainer, seeds)
    losses = [[] for _ in range(cfg.epochs)]
    with closing(loop):   # a flow error stops and reaps a split run's worker at once
        result = _drained(loop, trainer, losses)
    result.rows = list(map(_with_l_flow, result.rows, losses))
    result.flow_model, result.latent = trainer.model, trainer.latent
    return result


def reads_flow(cfg: SslConfig) -> bool:
    """Whether the run's perturbation reads the flow: only the
    density-descending kind does, and only at ``lambda_ft > 0``."""
    return cfg.lambda_ft > 0 and cfg.perturb.kind == "density-descending"


def _splits(cfg: SslConfig, ds: Dataset) -> bool:
    """Whether ``train_ssl`` runs its loop in a worker: no perturbation reads
    the flow, the run takes flow steps, and the host can fork onto a second
    core (``worker.can_fork``). Decided by the config, the split sizes and
    the host, never by the data's values."""
    return (not reads_flow(cfg) and len(ds.unlabeled_idx) > 0
            and cfg.flow_train.warm_start_epoch <= cfg.epochs and can_fork())


def _drained(loop, trainer: FlowTrainer | None, losses: list[list[float]]) -> TrainResult:
    """Step ``trainer`` once per pool of each (epoch, pools) ``loop`` yields
    at progress ``(epoch - 1) / epochs``, ``len(losses)`` being the epochs,
    and append each iteration's last loss to ``losses[epoch - 1]``; return
    the loop's result."""
    while True:
        try:
            epoch, pools = next(loop)
        except StopIteration as end:
            return end.value
        for pool in pools:
            loss = trainer.step(pool, (epoch - 1) / len(losses))
        losses[epoch - 1].append(loss)


def _with_l_flow(row: dict, losses: list[float]) -> dict:
    """A loop row with its epoch's ``L_flow``, in ``METRIC_COLUMNS`` order:
    the losses summed in iteration order from 0.0, then divided by their
    count, which past the warm start is every iteration of the epoch. An
    epoch without flow steps reads 0.0."""
    total = 0.0
    for loss in losses:   # not sum(): from Python 3.12 it compensates rounding
        total += loss
    l_flow = total / len(losses) if losses else 0.0
    return {c: l_flow if c == "L_flow" else row[c] for c in METRIC_COLUMNS}


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
    opt = MomentumSGD(student.flat, cfg.lr, cfg.sgd_momentum)

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
            opt.lr = poly_decay(cfg.lr, it_global, total_iters, cfg.poly_power)
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
    one after another in this process; only a list of one config may split
    onto a second core (``train_ssl``). With ``keep_flow`` off, a run whose
    perturbation reads no flow trains none and does not split."""
    for cfg in cfgs:
        yield cfg, train_ssl(cfg, dataset_for_run(spec, cfg.seed),
                             keep_flow=keep_flow, may_split=len(cfgs) == 1)


@dataclass
class SweepSpec:
    kinds: list[str] | None = None
    eps: list[float] | None = None
    lambda_ft: list[float] | None = None
    seeds: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self):
        check_seeds("sweep key 'seeds' entries", self.seeds)
        for key in ("kinds", "eps", "lambda_ft"):
            check_distinct(f"sweep key {key!r} entries", getattr(self, key) or [])


def cells(cfg: SslConfig, sweep: SweepSpec) -> list[SslConfig]:
    """The seeded config of every sweep cell, in (kind, eps, lambda_ft,
    seed) order; building each one validates it. Axes left unset fall back
    to the base config's value, and every cell at a seed shares its
    dataset draw."""
    kinds = sweep.kinds if sweep.kinds else [cfg.perturb.kind]
    eps_values = sweep.eps if sweep.eps else [cfg.perturb.eps]
    lambdas = sweep.lambda_ft if sweep.lambda_ft else [cfg.lambda_ft]
    return [replace(cfg, seed=s, lambda_ft=lam,
                    perturb=replace(cfg.perturb, kind=kind, eps=eps))
            for kind in kinds for eps in eps_values for lam in lambdas
            for s in sweep.seeds]
