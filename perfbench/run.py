#!/usr/bin/env python3
"""Benchmark of the densitydescent command line on three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ssl-dd --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):
  ssl-dd     train-ssl on configs/moons_ssl.json, density-descending kind
  ssl-kinds  the same config with lambda_ft=0 and the three baseline kinds
  density    fit-density on configs/moons_density.json, then verify

Every operation calls ``densitydescent.cli.main`` with generated config
files in a fresh interpreter (op.py), one caller in a closed loop. A run
does a fixed number of whole cycles of operations, round(seconds / 30) and
at least one, each cycle taking about 30 s on the reference machine, so
``attempted`` and ``failed`` repeat exactly for a given program. With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
runs each operation once untraced and once traced (alternating which goes
first) over the first half of the cycle's inputs, so it takes about as
long as an untraced run, and reports per-layer metrics from the traced
copies. The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SSL_CONFIG = os.path.join(ROOT, "configs", "moons_ssl.json")
DENSITY_CONFIG = os.path.join(ROOT, "configs", "moons_density.json")
REQUIRED = [os.path.join(SRC, "densitydescent", "cli.py"), SSL_CONFIG, DENSITY_CONFIG]
OP_SCRIPT = os.path.join(ROOT, "perfbench", "op.py")
OP_TIMEOUT = 120         # seconds; one operation takes under 15 on 2 Xeon cores

WORKLOADS = ("ssl-dd", "ssl-kinds", "density")
BASELINE_KINDS = ("uniform-noise", "channel-dropout", "vat-lite")
# distinct inputs per cycle, sized so one cycle takes about CYCLE_S on 2 Xeon
# cores and the quality metric averages over several datasets
SSL_DD_SEEDS = 6         # train-ssl run seeds
SSL_KINDS_SEEDS = 2      # run seeds, each with all four arms
DENSITY_SEEDS = 3        # fit config seed shifts, each fit followed by a verify
CYCLE_S = 30.0
OPS_PER_INPUT = {"ssl-dd": 1, "ssl-kinds": 4, "density": 2}  # ops per seed in a cycle
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Timed samples are scaled to the reference machine's speed by the mean time
# of a fixed calibration loop run just before and just after each: the
# sample is multiplied by (CAL_REF_S / that mean) ** CAL_EXPONENT, CAL_REF_S
# being the loop's time on the reference machine (2 Xeon cores at full
# speed). The exponent is the elasticity of a CLI command's time to the
# loop's time on that host, fitted as 0.46 over 48 repeats of one train-ssl
# run (README); scaling by the full ratio overcorrects.
CAL_ITERS = 1500
CAL_REF_S = 0.120
CAL_EXPONENT = 0.5

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from densitydescent import cli
from densitydescent.runconfig import load_config, load_sweep
for path in sys.argv[2:]:
    (load_sweep if path.rsplit("/", 1)[-1].startswith("sweep_") else load_config)(path)
"""


def cap_blas_threads() -> int:
    """At most one BLAS thread per available core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            ok = 1 <= int(os.environ.get(var, "")) <= cores
        except ValueError:
            ok = False
        if not ok:
            os.environ[var] = str(cores)
    return cores


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One CLI invocation; ``group`` collects the timings one metric uses."""
    label: str
    group: str
    argv: list[str]
    out: str | None = None
    seed: int | None = None
    kind: str | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    times: dict[str, list[float]] = field(default_factory=dict)    # wall seconds
    scaled: dict[str, list[float]] = field(default_factory=dict)   # reference seconds
    quality: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    failed_checks: list[str] = field(default_factory=list)


def write_json(path, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def build_ops(workload: str, seed: int, work: str) -> tuple[list[Op], dict]:
    """The workload's cycle of operations and the config documents it reads."""
    with open(SSL_CONFIG) as fh:
        ssl_doc = json.load(fh)
    with open(DENSITY_CONFIG) as fh:
        density_doc = json.load(fh)
    ssl_path = write_json(os.path.join(work, "ssl.json"), ssl_doc)
    out = lambda name: os.path.join(work, name)  # noqa: E731
    if workload == "ssl-dd":
        ops = [Op(f"train-ssl seed={s}", "train-ssl",
                  ["train-ssl", "--config", ssl_path, "--out", out(f"ssl{s}"),
                   "--seeds", str(s)], out(f"ssl{s}"), s)
               for s in range(SSL_DD_SEEDS * seed, SSL_DD_SEEDS * (seed + 1))]
        return ops, {"ssl": ssl_doc}
    if workload == "ssl-kinds":
        base_doc = json.loads(json.dumps(ssl_doc))
        base_doc.setdefault("ssl", {})["lambda_ft"] = 0.0
        base_path = write_json(out("baseline.json"), base_doc)
        ops = []
        for s in range(SSL_KINDS_SEEDS * seed, SSL_KINDS_SEEDS * (seed + 1)):
            ops.append(Op(f"train-ssl lambda_ft=0 seed={s}", "lambda_ft=0",
                          ["train-ssl", "--config", base_path, "--out", out(f"baseline{s}"),
                           "--seeds", str(s)], out(f"baseline{s}"), s))
            for kind in BASELINE_KINDS:
                sweep = write_json(out(f"sweep_{kind}{s}.json"), {"kinds": [kind], "seeds": [s]})
                ops.append(Op(f"ablate {kind} seed={s}", kind,
                              ["ablate", "--config", ssl_path, "--sweep", sweep,
                               "--out", out(f"{kind}{s}")], out(f"{kind}{s}"), s, kind))
        return ops, {"ssl": ssl_doc, "baseline": base_doc}
    # density: fit config seeds shifted by 3n..3n+2, so --seed 0 starts at
    # the shipped seed; each fit is followed by `verify` on the shipped
    # config, whose known failing check (README) is then the same in every
    # run and shows in `failed` whatever the workload seed
    ops = []
    for k in range(DENSITY_SEEDS * seed, DENSITY_SEEDS * (seed + 1)):
        fit_doc = dict(density_doc, seed=density_doc.get("seed", 0) + k)
        fit_path = write_json(out(f"density{k}.json"), fit_doc)
        ops.append(Op(f"fit-density seed={fit_doc['seed']}", "fit",
                      ["fit-density", "--config", fit_path, "--out", out(f"fit{k}")],
                      out(f"fit{k}")))
        ops.append(Op(f"verify seed={ssl_doc.get('seed')}", "verify",
                      ["verify", "--config", ssl_path]))
    # the checks read only shapes (steps, grid, dims), the same for every seed
    return ops, {"density": fit_doc, "verify": ssl_doc}


def expected_verify_checks(dims) -> int:
    # per dim: identity and randomized flow, each with invertibility and
    # gradient, log-det for d <= 8 and normalization for d == 2
    return sum(2 * (2 + (d <= 8) + (d == 2)) for d in dims)


class Runner:
    """Runs operations, checks their outputs and tallies the results."""

    def __init__(self, dd, checks, tracing, docs: dict, work: str):
        self.dd = dd
        self.checks = checks
        self.tracing = tracing
        self.work = work
        self.tally = Tally()
        self.peak_rss_mb = 0.0
        self.paths: dict = {}        # traced span path -> tracing.PathStats
        self.tape_nodes: dict = {}   # grad caller -> [tapes, nodes]
        eff = dd.runconfig.parse_config
        self.ssl_epochs = eff(docs["ssl"]).ssl_config().epochs if "ssl" in docs else None
        if "density" in docs:
            fit = eff(docs["density"]).fit
            self.fit = fit
            self.verify_checks = expected_verify_checks(eff(docs["verify"]).verify.dims)

    def call(self, op: Op, trace: bool = False) -> dict:
        """Run one CLI command in a fresh interpreter with fresh output.

        Returns op.py's report; a crashed or hung child counts as a problem
        and yields exit code None.
        """
        if op.out:
            shutil.rmtree(op.out, ignore_errors=True)
        path = os.path.join(self.work, "op-report.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        cmd = [sys.executable, OP_SCRIPT, path, str(int(trace)), "--", *op.argv]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT)
            with open(path) as fh:
                report = json.load(fh)
        except (subprocess.TimeoutExpired, OSError, ValueError) as e:
            self.tally.problems.append(f"{op.label}: no report ({e!r})")
            return {"code": None, "seconds": math.nan, "stdout": "", "peak_rss_mb": 0.0}
        if proc.returncode or report["code"] is None or report["stderr"]:
            self.tally.problems.append(
                f"{op.label}: exit {report['code']}, stderr {report['stderr'][-2000:]!r}")
        self.peak_rss_mb = max(self.peak_rss_mb, report["peak_rss_mb"])
        for path_, calls, total, self_time, rows, flops in report.get("paths", ()):
            st = self.paths.setdefault(tuple(path_), self.tracing.PathStats())
            st.calls += calls
            st.total += total
            st.self_time += self_time
            st.rows += rows
            st.flops += flops
        for caller, (records, nodes) in report.get("tape_nodes", {}).items():
            c = self.tape_nodes.setdefault(caller, [0, 0])
            c[0] += records
            c[1] += nodes
        return report

    def record(self, op: Op, report: dict, scale: float | None = None) -> None:
        """Check an op's outputs; count it (and its verify checks) as attempted.

        With a ``scale`` (from the calibration loops around it) the op's
        time is kept for the end-to-end metrics.
        """
        t = self.tally
        code, stdout = report["code"], report["stdout"]
        if scale is not None and code is not None:
            t.times.setdefault(op.group, []).append(report["seconds"])
            t.scaled.setdefault(op.group, []).append(report["seconds"] * scale)
        problems: list[str] = []
        digests: dict[str, str] = {}
        if op.group == "verify":
            checks = self.checks.parse_verify(stdout, code, self.verify_checks, problems)
            t.attempted += len(checks)
            bad = [name for name, ok, _ in checks if not ok]
            t.failed += len(bad)
            t.failed_checks.extend(f"{name}: {detail}" for name, ok, detail in checks if not ok)
            digests["verify.stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        else:
            t.attempted += 1
            if code != 0:
                t.failed += 1
                problems.append(f"{op.label}: exit code {code}, expected 0")
            else:
                self._check_files(op, problems, digests)
        for name, value in digests.items():
            key = f"{op.label}:{name}"
            first = t.digests.setdefault(key, value)
            if first != value:
                problems.append(f"{key}: repeat is not byte-identical")
        t.problems.extend(problems)

    def _check_files(self, op: Op, problems: list, digests: dict) -> None:
        c, t = self.checks, self.tally
        if op.group == "fit":
            fit = self.fit
            loss = os.path.join(op.out, "loss.csv")
            grid = os.path.join(op.out, "grid.csv")
            c.check_loss(loss, fit.steps, problems)
            logp = c.check_grid(grid, fit.grid_bounds, fit.grid_resolution, problems)
            c.check_checkpoint(os.path.join(op.out, "checkpoint.npz"), logp,
                               fit.grid_bounds, fit.grid_resolution, self.dd,
                               os.path.join(self.work, "roundtrip.npz"), problems)
            done = c.log_fields(c.read_text(os.path.join(op.out, "run.log")),
                                "fit-density done")
            nll = float(done[-1].get("heldout_nll", "nan")) if done else math.nan
            if not math.isfinite(nll):
                problems.append(f"{op.label}: no finite heldout_nll in run.log")
            t.quality.setdefault(op.label, nll)
            digests["loss.csv"] = c.sha256(loss)
            digests["grid.csv"] = c.sha256(grid)
        elif op.kind is None:  # train-ssl
            name = f"metrics_seed{op.seed}.csv"
            path = os.path.join(op.out, name)
            acc = c.check_metrics(path, self.ssl_epochs, problems)
            with open(os.path.join(op.out, "summary.json")) as fh:
                summary = json.load(fh)
            if summary["accuracies"].get(str(op.seed)) != acc:
                problems.append(f"{op.label}: summary.json accuracy differs from {name}")
            for fields in c.log_fields(c.read_text(os.path.join(op.out, "run.log")),
                                       "train-ssl seed="):
                if int(fields.get("flow_steps", -1)) <= 0:
                    problems.append(f"{op.label}: no flow steps logged")
            t.quality.setdefault(op.label, acc)
            digests[name] = c.sha256(path)
        else:  # one ablate cell
            path = os.path.join(op.out, "sweep.csv")
            t.quality.setdefault(op.label, c.check_sweep(path, op.kind, problems))
            digests["sweep.csv"] = c.sha256(path)


# ---------------------------------------------------------------------------
# measurement


def measure_setup(config_paths: list[str]) -> float:
    """One fresh interpreter importing the CLI and parsing the run's configs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *config_paths],
                   cwd=ROOT, check=True, timeout=OP_TIMEOUT)
    return time.perf_counter() - t0


def calibrate(np) -> float:
    """Seconds for a fixed loop of small numpy products in this process.

    The same kind of work as the program's tape (Python-level calls on
    72x256 arrays), so it slows down with the host as the program does;
    it is the benchmark's own code and never changes between commits.
    """
    rng = np.random.default_rng(0)
    a, w1, w2 = (rng.standard_normal(s) for s in ((72, 1), (1, 256), (256, 2)))
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        h = np.tanh(a @ w1)
        o = h @ w2
        h.T @ o
        float(o.sum())
    return time.perf_counter() - t0


def run_untraced(runner: Runner, ops: list[Op], cycles: int,
                 config_paths: list[str], np) -> tuple[list[float], list[float]]:
    """The whole cycle ``cycles`` times, op by op.

    Each op is preceded by a set-up sample, so the set-up median spans the
    run; both are scaled by the calibration loops on either side of them.
    Returns raw and scaled set-up samples.
    """
    setup, setup_scaled = [], []
    cal = calibrate(np)
    for op in ops * cycles:
        setup.append(measure_setup(config_paths))
        report = runner.call(op)
        cal_next = calibrate(np)
        scale = (2.0 * CAL_REF_S / (cal + cal_next)) ** CAL_EXPONENT
        setup_scaled.append(setup[-1] * scale)
        runner.record(op, report, scale)
        cal = cal_next
    return setup, setup_scaled


def run_traced(runner: Runner, ops: list[Op], cycles: int) -> dict:
    """Each op untraced and traced, alternating the order, ``cycles`` times."""
    walls = {"untraced": 0.0, "traced": 0.0, "runs": 0, "fallbacks": 0}
    for k, op in enumerate(ops * cycles):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            report = runner.call(op, trace=traced)
            walls["traced" if traced else "untraced"] += report["seconds"]
            if traced:
                walls["runs"] += op.group != "verify"
                walls["fallbacks"] += sum(
                    int(f.get("fallbacks", 0))
                    for f in runner.checks.log_fields(report["stdout"], "train-ssl seed="))
            runner.record(op, report)
    return walls


# ---------------------------------------------------------------------------
# metrics


def summarize_times(xs: list[float]) -> str:
    return (f"min {min(xs):.4f} s, median {statistics.median(xs):.4f}, "
            f"max {max(xs):.4f}, n={len(xs)}")


def end_to_end(workload: str, tally: Tally, setup: list[float], setup_scaled: list[float],
               peak: float) -> tuple[dict, list[str]]:
    """End-to-end metrics of an untraced run.

    Times are scaled to the reference speed (CAL_REF_S): the host's speed
    drifts by up to 2x within minutes, which the scaling largely removes
    from run-to-run comparisons (README). A command's time is the mean of
    its scaled samples, set-up time their median. Raw wall times are printed.
    """
    times = tally.times
    best = {g: statistics.mean(v) for g, v in tally.scaled.items()}
    setup_s = statistics.median(setup_scaled)
    lines = [f"setup_s: {setup_s:.4f} s at reference speed; wall {summarize_times(setup)} "
             f"(fresh interpreter importing the CLI and parsing the configs)"]
    if workload == "density":
        run_s = best["fit"] + best["verify"]
        nlls = list(tally.quality.values())
        quality = statistics.mean(math.exp(-x) for x in nlls)
        lines += [f"fit_s: {best['fit']:.4f} s at reference speed; wall "
                  f"{summarize_times(times['fit'])}",
                  f"verify_s: {best['verify']:.4f} s at reference speed; wall "
                  f"{summarize_times(times['verify'])}",
                  f"fit_heldout_nll: mean {statistics.mean(nlls):.6f} nats over "
                  f"{len(nlls)} distinct fits (quality = mean exp(-nll) = {quality:.6f})"]
    else:
        run_s = statistics.mean(best.values())
        for g, v in sorted(times.items()):
            lines.append(f"ssl_run_s[{g}]: {best[g]:.4f} s at reference speed; "
                         f"wall {summarize_times(v)}")
        accs = list(tally.quality.values())
        quality = statistics.mean(accs)
        lines.append(f"ssl_run_s: {run_s:.4f} s per 100-epoch run at reference speed "
                     f"(mean over {len(best)} arm(s) of each arm's mean; "
                     f"{sum(map(len, times.values()))} runs)")
        lines.append(f"ssl_test_acc: {quality:.6f} (mean final test accuracy over "
                     f"{len(accs)} distinct runs)")
    lines.append(f"peak_rss_mb: {peak:.1f} MB (largest CLI process)")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "run_s": {"value": run_s, "unit": "s"},
        "quality": {"value": quality, "unit": "score"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    return metrics, lines


def per_layer(runner: Runner, walls: dict, tracing) -> tuple[dict, list[str]]:
    """Per-run layer metrics from the traced ops (see README for the map)."""
    runs = max(walls["runs"], 1)
    paths = runner.paths
    by_layer = tracing.aggregate(paths, tracing.layer_of)

    def ms(st):
        return 1000.0 * st.total / st.calls if st and st.calls else 0.0

    def calls(st):
        return st.calls / runs if st else 0.0

    def self_s(st):
        return st.self_time / runs if st else 0.0

    step = by_layer.get("estimator.flow_train_step")
    flow_grad = tracing.aggregate(paths, lambda p: (
        "flow" if p[-2:] == ("estimator.flow_train_step", "diffcore.grad") else None)).get("flow")
    root = by_layer.get("cli.main")
    self_total = sum(st.self_time for st in paths.values())
    perturbed = sum(st.rows for p, st in paths.items()
                    if "semisup.train_ssl" in p and p[-1] in (
                        "perturb.density_gradient", "perturb.uniform_noise_perturbation",
                        "perturb.channel_dropout_perturbation", "perturb.vat_perturbation"))
    tape = runner.tape_nodes

    def nodes_per(caller):
        rec, nodes = tape.get(caller, (0, 0))
        return nodes / rec if rec else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("trace.overhead", walls["traced"] / walls["untraced"], "ratio")
    put("trace.accounted", self_total / walls["traced"], "ratio")
    put("trace.run_s", walls["traced"] / runs, "s")
    put("cli.main.self_s", self_s(root), "s")
    for name, st in [("estimator.flow_train_step", step),
                     ("estimator.flow_loss", by_layer.get("estimator.flow_loss")),
                     ("diffcore.grad.flow", flow_grad),
                     ("optim.Adam.step", by_layer.get("optim.Adam.step")),
                     ("latent.marginal_loglik", by_layer.get("latent.marginal_loglik"))]:
        put(f"{name}.ms_per_call", ms(st), "ms")
        put(f"{name}.self_s", self_s(st), "s")
    put("estimator.flow_train_step.gflops", step.flops / step.total / 1e9, "GFLOP/s")
    trainers = sum(by_layer[n].calls for n in ("semisup.train_ssl", "estimator.fit_density")
                   if n in by_layer)
    put("estimator.flow_steps", step.calls / max(trainers, 1), "count")
    for mod_name, attr, _ in tracing.LAYERS:
        put(f"{mod_name}.{attr}.calls", calls(by_layer.get(f"{mod_name}.{attr}")), "count")
    put("diffcore.tape_nodes.flow_step", nodes_per("estimator.flow_train_step"), "count")
    put("diffcore.tape_nodes.density_gradient", nodes_per("perturb.density_gradient"), "count")
    put("perturb.fallback_rate", walls["fallbacks"] / perturbed if perturbed else 0.0, "ratio")

    # human-readable breakdown, every layer (grad split by caller, the
    # log-likelihood split by batch size), per training run
    rows = tracing.aggregate(paths, lambda p: (
        f"{p[-1]} <- {p[-2]}" if len(p) > 1 and (p[-1] == "diffcore.grad"
                                                  or p[-1].startswith("latent."))
        else p[-1]))
    lines = [f"traced runs: {runs}; per run below. layer | calls | ms/call | self s | share"]
    for name, st in sorted(rows.items(), key=lambda kv: -kv[1].self_time):
        lines.append(f"  {name:58s} {st.calls / runs:10.1f} {ms(st):10.4f} "
                     f"{st.self_time / runs:9.4f} {st.self_time / self_total:7.2%}")
    lines.append(f"self-time sum {self_total:.4f} s vs traced wall {walls['traced']:.4f} s "
                 f"(untraced {walls['untraced']:.4f} s, overhead "
                 f"{walls['traced'] / walls['untraced'] - 1:+.2%})")
    lines.append(f"flow step: {step.flops / step.calls / 1e6:.3f} MFLOP per call "
                 f"(computed, 9*N*d*H per block), {step.flops / step.total / 1e9:.3f} "
                 f"GFLOP/s over its traced time")
    return m, lines


def machine_info(cores: int, read_text) -> dict:
    import numpy as np
    info = {
        "nproc": os.cpu_count(),
        "affinity_cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = " ".join(str(blas.get(k, "")) for k in
                                ("name", "version", "openblas configuration"))
    except Exception as e:  # older numpy: report what is missing
        info["blas"] = f"unknown ({e!r})"
    caches = {}
    base = "/sys/devices/system/cpu"
    try:
        cpus = sorted(d for d in os.listdir(base) if d[3:].isdigit() and d.startswith("cpu"))
        for cpu in cpus:
            cdir = os.path.join(base, cpu, "cache")
            for idx in (i for i in os.listdir(cdir) if i.startswith("index")):
                level, kind, size, shared = (
                    read_text(os.path.join(cdir, idx, f)).strip()
                    for f in ("level", "type", "size", "shared_cpu_list"))
                caches.setdefault(f"L{level} {kind}", {"size": size, "instances": set()})[
                    "instances"].add(shared)
        info["caches"] = {k: f"{v['size']} x{len(v['instances'])}" for k, v in caches.items()}
    except OSError as e:
        info["caches"] = f"unavailable ({e})"
    return info


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 keeps the shipped configs' seeds")
    ap.add_argument("--seconds", type=float, default=CYCLE_S,
                    help="measurement time at the reference speed: the run does "
                         "round(seconds / 30) whole cycles, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: not a densitydescent checkout, missing {missing}", file=sys.stderr)
        return 2
    cores = cap_blas_threads()
    os.environ.pop("DENSITYDESCENT_OUT_ROOT", None)
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ops, docs = build_ops(args.workload, args.seed, work)

        sys.path.insert(0, SRC)
        import densitydescent.cli  # noqa: F401  (loads the modules the checks use)
        import densitydescent as dd
        if not os.path.abspath(dd.__file__).startswith(SRC + os.sep):
            print(f"perfbench: imported {dd.__file__}, not the checkout", file=sys.stderr)
            return 2
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import checks
        import tracing

        runner = Runner(dd, checks, tracing, docs, work)
        cycles = max(1, round(args.seconds / CYCLE_S))
        if args.trace:
            # each op runs twice, so half the inputs keep the run's length
            group = OPS_PER_INPUT[args.workload]
            walls = run_traced(runner, ops[:group * max(1, len(ops) // group // 2)], cycles)
            metrics, lines = per_layer(runner, walls, tracing)
            trace_doc = {"/".join(p): {"calls": st.calls, "total_s": st.total,
                                      "self_s": st.self_time, "rows": st.rows,
                                      "flops": st.flops}
                         for p, st in runner.paths.items()}
            write_json(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"),
                       {"walls": walls, "paths": trace_doc,
                        "tape_nodes": runner.tape_nodes})
        else:
            config_paths = sorted(os.path.join(work, f) for f in os.listdir(work)
                                  if f.endswith(".json"))
            import numpy as np
            setup, setup_scaled = run_untraced(runner, ops, cycles, config_paths, np)
            metrics, lines = end_to_end(args.workload, runner.tally, setup, setup_scaled,
                                        runner.peak_rss_mb)
        tally = runner.tally
        info = machine_info(cores, checks.read_text)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not tally.problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} operations attempted, {tally.failed} failed")
    for line in lines:
        print(line)
    for check in tally.failed_checks:
        print(f"failed verify check: {check}")
    for problem in tally.problems:
        print(f"OUTPUT CHECK FAILED: {problem}")
    for key, value in sorted(tally.digests.items()):
        print(f"sha256 {key} {value}")
    print("machine: " + json.dumps(info, sort_keys=True))
    with open(os.path.join(WORK, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "seconds": args.seconds,
                             "machine": info, "metrics": metrics,
                             "times": tally.times, "scaled": tally.scaled,
                             "digests": tally.digests,
                             "failed_checks": tally.failed_checks,
                             "problems": tally.problems}, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
