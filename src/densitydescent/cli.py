"""Command-line entry point: density fitting, SSL training, ablation sweeps,
and oracle verification.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numeric
abort, 4 a forked worker lost (it exited before it finished). Output
directories receive the effective config echo plus metrics, every file but
``checkpoint.npz`` written here through ``write_csv`` and ``write_json``;
wall-clock timestamps go only to the run.log sidecar so metrics files stay
byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .data import make_dataset
from .errors import ConfigError, NumericError
from .estimator import FeaturePool, fit_density
from .flow import (flow_inverse, init_flow, kernel_forward, load_checkpoint,
                   randomize_conditioners, save_checkpoint)
from .latent import init_latent, marginal_logpdf
from .oracle import (finite_diff_grad, grid_density_dump, mc_normalization,
                     numeric_jacobian_logdet)
from .perturb import density_gradient
from .runconfig import load_config, load_sweep
from .semisup import (METRIC_COLUMNS, cells, check_seeds, dataset_for_run,
                      derived_seeds, runs)
from .worker import WorkerLost, ordered

OUT_ROOT_ENV = "DENSITYDESCENT_OUT_ROOT"


def write_csv(path, header, rows, end: str = "\n") -> None:
    """Write ``header`` and ``rows`` as comma-separated lines ending in
    ``end``: a float cell as ``repr(float(v))``, the shortest string that
    reads back to the same bits, and any other cell as ``str(v)``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + end)
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + end)


def write_json(path, doc) -> None:
    """Write ``doc`` with indent 2, sorted keys and a final newline."""
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _output_dir(args, cfg) -> str:
    """Make ``--out`` (under ``$DENSITYDESCENT_OUT_ROOT`` if it is relative)
    and echo the effective config into it as ``config.json``; re-running
    that echo reproduces the run byte for byte."""
    out = args.out
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {out}: {e.strerror}")
    write_json(os.path.join(out, "config.json"), cfg.effective)
    return out


def _log(out_dir: str, message: str, log_only: str = "") -> None:
    """Print ``message``, and append it with ``log_only`` to ``run.log``:
    stdout is the same under every process layout, and what depends on the
    layout goes only to the sidecar, as the timestamps do."""
    with open(os.path.join(out_dir, "run.log"), "a") as fh:
        fh.write(f"[{time.strftime('%Y-%m-%dT%H:%M:%S')}] {message}{log_only}\n")
    print(message)


# ---------------------------------------------------------------------------
# fit-density


def cmd_fit_density(args) -> int:
    cfg = load_config(args.config)
    ds = make_dataset(cfg.dataset)
    out = _output_dir(args, cfg)
    dim = ds.x.shape[1]
    s_flow, s_latent, s_fit = derived_seeds(cfg.seed, 3)
    model = init_flow(dim, cfg.flow.blocks, cfg.flow.hidden, cfg.flow.s_max, s_flow)
    latent = init_latent(ds.n_classes, dim, s_latent)
    _log(out, f"fit-density: kind={cfg.dataset.kind} n={ds.n} dim={dim} "
              f"components={ds.n_classes} steps={cfg.fit.steps}")
    data = FeaturePool(labeled=ds.x[ds.labeled_idx], labels=ds.y[ds.labeled_idx],
                       unlabeled=ds.x[ds.unlabeled_idx])
    history = fit_density(data, model, latent, cfg.flow_train, cfg.fit.steps,
                          cfg.fit.batch, np.random.default_rng(s_fit))
    write_csv(os.path.join(out, "loss.csv"), ("iteration", "flow_loss", "lr"), history)
    save_checkpoint(os.path.join(out, "checkpoint.npz"), model, latent)
    if cfg.fit.grid:
        lo, hi = cfg.fit.grid_bounds
        # grid bounds should cover essentially all of the data mass
        q_lo, q_hi = np.quantile(ds.x, 0.005), np.quantile(ds.x, 0.995)
        if q_lo < lo or q_hi > hi:
            _log(out, f"warning: grid bounds [{lo}, {hi}] clip the data "
                      f"(0.5%..99.5% quantiles [{q_lo:.2f}, {q_hi:.2f}])")
        with np.errstate(over="ignore", invalid="ignore"):
            dump = grid_density_dump(model, latent, ((lo, hi), (lo, hi)),
                                     cfg.fit.grid_resolution)
        bad = int(np.count_nonzero(~np.isfinite(dump.logp)))
        if bad:   # cells so far out overflow the flow or the latent's quadratic
            raise NumericError(f"fit.grid_bounds [{lo}, {hi}]: log p is not finite at "
                               f"{bad} of {len(dump.logp)} grid cells; narrow the bounds")
        # rows end in \r\n, csv.writer's terminator, which grid.csv has always had
        write_csv(os.path.join(out, "grid.csv"), ("x", "y", "logp"),
                  zip(dump.x.tolist(), dump.y.tolist(), dump.logp.tolist()), end="\r\n")
    held = ds.x[ds.test_idx]
    if len(held):
        nll = -float(np.mean(marginal_logpdf(held, model, latent)))
        _log(out, f"fit-density done: final_loss={history[-1][1]:.6f} "
                  f"heldout_nll={nll:.6f}")
    else:
        _log(out, f"fit-density done: final_loss={history[-1][1]:.6f}")
    return 0


# ---------------------------------------------------------------------------
# train-ssl


def _check_test_rows(cfg, seeds) -> None:
    """Draw the dataset of the run on each of ``seeds`` first, so that a
    draw that fails ends the command before any output; each run's test
    accuracy needs at least one test row."""
    for s in seeds:
        if len(dataset_for_run(cfg.dataset, s).test_idx) == 0:
            raise ConfigError(f"dataset.test_fraction: {cfg.dataset.test_fraction:g} "
                              f"leaves no test rows, and test_acc needs at least one")


def _parse_seeds(text: str | None, default: int) -> list[int]:
    """The ``--seeds`` entries; the config seed only where the option is absent."""
    if text is None:
        return [default]
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds: expected comma-separated ints, got {text!r}")
    check_seeds("--seeds entries", seeds)
    return seeds


def cmd_train_ssl(args) -> int:
    cfg = load_config(args.config)
    seeds = _parse_seeds(args.seeds, cfg.seed)
    _check_test_rows(cfg, seeds)
    out = _output_dir(args, cfg)
    accs = {}
    # every run keeps its flow: metrics_seed*.csv holds L_flow
    for run, result in runs([replace(cfg.ssl, seed=s) for s in seeds], cfg.dataset):
        s = run.seed
        write_csv(os.path.join(out, f"metrics_seed{s}.csv"), METRIC_COLUMNS,
                  ([row[c] for c in METRIC_COLUMNS] for row in result.rows))
        accs[s] = result.final_test_acc
        # None: the loop held no flow (a split run's worker), so it checked nothing
        violations = result.isolation_violations
        _log(out, f"train-ssl seed={s}: test_acc={result.final_test_acc:.4f} "
                  f"flow_steps={result.flow_steps} "
                  f"fallbacks={result.perturb_fallbacks}",
             f" isolation_violations={'n/a' if violations is None else violations}")
    summary = {
        "config": cfg.effective,
        "seeds": seeds,
        "accuracies": {str(s): accs[s] for s in seeds},
        "mean_accuracy": float(np.mean(list(accs.values()))),
    }
    write_json(os.path.join(out, "summary.json"), summary)
    _log(out, f"train-ssl done: mean_accuracy={summary['mean_accuracy']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# ablate


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    sweep = load_sweep(args.sweep).over(cfg.ssl)
    cfgs = cells(cfg.ssl, sweep)
    _check_test_rows(cfg, sweep.seeds)
    out = _output_dir(args, cfg)
    _log(out, f"ablate: kinds={sweep.kinds} eps={sweep.eps} "
              f"lambda_ft={sweep.lambda_ft} seeds={sweep.seeds}")
    # a row holds only the run's test accuracy, so a cell whose
    # perturbation never reads the flow trains none
    rows = [(run.perturb.kind, run.perturb.eps, run.lambda_ft, run.seed,
             result.final_test_acc)
            for run, result in runs(cfgs, cfg.dataset, keep_flow=False)]
    write_csv(os.path.join(out, "sweep.csv"),
              ("kind", "eps", "lambda_ft", "seed", "test_acc"), rows)
    _log(out, f"ablate done: {len(rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    """Check every (flow, latent) pair against the numeric oracle and print
    one PASS or FAIL row per check, then the tally; exit 1 if any failed.

    The pairs are the checkpoint's, or for each of ``verify.dims`` an
    identity flow and a randomized one sharing a latent with one component
    per dataset class. Each pair's random inputs are drawn up front from one
    ``default_rng(cfg.seed)``, in pair order, so a pair's rows do not depend
    on where it runs. ``worker.ordered`` deals the pairs round-robin to
    this process and to forked workers on the other cores, and streams the
    rows back in pair order, so they print here as one process prints them.
    On the shipped ``dims`` [2, 8] and two cores each process runs one of
    the two d = 2 Monte-Carlo checks, most of ``verify``'s time.
    If a pair raises, the rows before its error are printed and the error is
    raised, as in one process.
    """
    cfg = load_config(args.config)
    if cfg.verify.checkpoint:
        pairs = [load_checkpoint(cfg.verify.checkpoint)]
    else:
        pairs = []
        k = make_dataset(cfg.dataset).n_classes
        for d in cfg.verify.dims:
            model = init_flow(d, cfg.flow.blocks, cfg.flow.hidden,
                              cfg.flow.s_max, cfg.seed)
            latent = init_latent(k, d, cfg.seed + 1)
            pairs.append((model, latent))
            rand = init_flow(d, cfg.flow.blocks, cfg.flow.hidden,
                             cfg.flow.s_max, cfg.seed)
            randomize_conditioners(rand, scale=0.5, seed=cfg.seed + 2)
            pairs.append((rand, latent))
    rng = np.random.default_rng(cfg.seed)
    jobs = [(model, latent, _draw_inputs(rng, model.d)) for model, latent in pairs]

    oks = []
    for name, ok, detail in ordered(lambda job: _pair_checks(*job, cfg), jobs):
        oks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print(f"verify: {sum(oks)}/{len(oks)} checks passed")
    return 0 if all(oks) else 1


def _draw_inputs(rng, d: int):
    """A pair's random inputs, in the order the checks read them: a
    1000-row roundtrip batch, 10 log-det points if d <= 8, 20 gradient
    points."""
    batch = rng.standard_normal((1000, d))
    logdet_points = rng.standard_normal((10, d)) if d <= 8 else None
    return batch, logdet_points, rng.standard_normal((20, d))


def _pair_checks(model, latent, inputs, cfg):
    """Yield one pair's (name, ok, detail) rows, check by check."""
    batch, logdet_points, grad_points = inputs
    d = model.d
    z = kernel_forward(batch, model, keep=False)[0]
    err = float(np.abs(flow_inverse(z, model) - batch).max())
    yield f"invertibility(d={d})", err < 1e-9, f"max roundtrip err {err:.3e}"

    # each check's worst error is np.max of its errors, so a NaN error fails
    # its row (the builtin max(0.0, nan) is 0.0)
    if logdet_points is not None:
        errs = []
        logdets = kernel_forward(logdet_points, model, keep=False)[1]
        for point, logdet in zip(logdet_points, logdets):
            numeric = numeric_jacobian_logdet(model, point)
            # identity flows have logdet 0; floor the denominator
            errs.append(abs(float(logdet) - numeric) / max(1e-6, abs(numeric)))
        worst = float(np.max(errs))
        yield f"logdet(d={d})", worst < 1e-4, f"max rel err {worst:.3e}"

    errs = []
    for point, g in zip(grad_points, density_gradient(grad_points, model, latent)):
        fd = finite_diff_grad(
            lambda w: -float(marginal_logpdf(w[None], model, latent)[0]), point)
        errs.append(np.abs(g - fd).max() / max(1.0, np.abs(fd).max()))
    worst = float(np.max(errs))
    yield f"gradient(d={d})", worst < 1e-3, f"max rel err {worst:.3e}"

    if d == 2:
        mass, se, warn = mc_normalization(model, latent, ((-8, 8), (-8, 8)),
                                          cfg.verify.mc_samples, seed=cfg.seed)
        # tolerance adapts to the Monte-Carlo noise of the sample budget
        ok = abs(mass - 1.0) <= max(0.03, 4.0 * se) and not warn
        yield "normalization(d=2)", ok, f"mass {mass:.4f} (se {se:.4f})"


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densitydescent",
        description="Flow density estimation and density-descending feature "
                    "perturbations on synthetic benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-density", help="fit the flow estimator to a dataset")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_fit_density)

    p = sub.add_parser("train-ssl", help="run teacher-student training")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default=None,
                   help="comma-separated run seeds (default: config seed)")
    p.set_defaults(fn=cmd_train_ssl)

    p = sub.add_parser("ablate", help="train every cell of a sweep grid")
    p.add_argument("--config", required=True)
    p.add_argument("--sweep", required=True, help="JSON sweep spec")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("verify", help="run the numeric oracle suite")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 3
    except WorkerLost as e:
        print(f"worker lost: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
