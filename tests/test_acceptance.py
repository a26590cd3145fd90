"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Heavy artifacts (the trained two-moons estimator, the benchmark training
runs) are built once per module and shared by the criteria that need them.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from densitydescent.data import DataSpec, make_dataset
from densitydescent.estimator import FeaturePool, FlowTrainConfig, fit_density
from densitydescent.flow import flow_forward, flow_inverse, init_flow
from densitydescent.latent import GmmLatent, init_latent, marginal_loglik, mixture_logpdf
from densitydescent.oracle import (finite_diff_grad, mc_normalization,
                                   numeric_jacobian_logdet)
from densitydescent.perturb import density_descent_perturbation, density_gradient
from densitydescent.semisup import ema_update, init_model, runs, train_ssl
from recipe import two_moons_benchmark

SEEDS = [0, 1, 2, 3, 4]


def report(num, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'}  criterion-{num}: {detail}")
    assert ok, f"criterion-{num}: {detail}"


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="module")
def moons_estimator():
    """Converged 2-D two-moons density estimator plus held-out points."""
    spec = DataSpec(kind="moons", n=2000, noise=0.1, labeled_per_class=100,
                    test_fraction=0.5, seed=11)
    ds = make_dataset(spec)
    flow = init_flow(2, n_blocks=2, hidden=128, seed=11)
    latent = init_latent(2, 2, seed=12)
    data = FeaturePool(labeled=ds.x[ds.labeled_idx], labels=ds.y[ds.labeled_idx],
                       unlabeled=ds.x[ds.unlabeled_idx])
    fit_density(data, flow, latent, FlowTrainConfig(), steps=2500, batch=256,
                rng=np.random.default_rng(13))
    held = ds.x[ds.test_idx]
    return flow, latent, held


@pytest.fixture(scope="module")
def benchmark_runs():
    """Seed-mean accuracies for every benchmark arm the trend criteria use."""
    cfg, spec = two_moons_benchmark()
    arms = {
        "baseline": replace(cfg, lambda_ft=0.0),
        "uniform-noise": replace(cfg, perturb=replace(cfg.perturb, kind="uniform-noise")),
        "channel-dropout": replace(cfg, perturb=replace(cfg.perturb, kind="channel-dropout")),
        "vat-lite": replace(cfg, perturb=replace(cfg.perturb, kind="vat-lite")),
        "dd-eps0.25": cfg,
    }
    for eps in (0.1, 0.5, 1.0, 2.0):
        arms[f"dd-eps{eps}"] = replace(cfg, perturb=replace(cfg.perturb, eps=eps))
    # one flat list of the 45 (arm, seed) runs. Only accuracies are read:
    # the arms whose perturbation reads no flow (baseline and the three
    # other kinds) train none. An arm's time is the sum of its own runs'
    # wall times, so each elapsed gate times only its own arms' work
    flat = [(name, replace(arm_cfg, seed=s)) for name, arm_cfg in arms.items()
            for s in SEEDS]
    results = runs([run for _, run in flat], spec, keep_flow=False)
    out = {name: {"accs": [], "time": 0.0} for name in arms}
    for name, _ in flat:
        t0 = time.time()
        _, result = next(results)
        out[name]["time"] += time.time() - t0
        out[name]["accs"].append(result.final_test_acc)
    for arm in out.values():
        arm["mean"] = float(np.mean(arm["accs"]))
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_bijectivity():
    from densitydescent.flow import randomize_conditioners
    t0 = time.time()
    worst = 0.0
    for d in (2, 8, 16):
        flow = randomize_conditioners(init_flow(d, hidden=64, seed=d),
                                      scale=0.6, seed=d + 1)
        v = np.random.default_rng(d).standard_normal((1000, d))
        z, _ = flow_forward(v, flow)
        worst = max(worst, float(np.abs(flow_inverse(z.data, flow) - v).max()))
    elapsed = time.time() - t0
    report(1, worst < 1e-9 and elapsed < 5.0,
           f"max roundtrip error {worst:.3e} over d in (2,8,16) [{elapsed:.1f}s]")


def test_criterion_2_logdet_exactness():
    t0 = time.time()
    worst = 0.0
    count = 0
    for d, n_flows in ((4, 34), (6, 33), (8, 33)):
        for i in range(n_flows):
            rng = np.random.default_rng(1000 * d + i)
            flow = init_flow(d, hidden=64, seed=1000 * d + i)
            means = rng.standard_normal((2, d)) * 2.0
            comp = rng.integers(0, 2, size=128)
            feats = means[comp] + rng.standard_normal((128, d))
            latent = init_latent(2, d, seed=i)
            fit_density(FeaturePool(feats[:64], comp[:64], feats[64:]), flow, latent,
                        FlowTrainConfig(), steps=25, batch=128, rng=rng)
            for v in rng.standard_normal((2, d)):
                _, logdet = flow_forward(v[None], flow)
                numeric = numeric_jacobian_logdet(flow, v)
                rel = abs(float(logdet.data[0]) - numeric) / max(1e-12, abs(numeric))
                worst = max(worst, rel)
                count += 1
    elapsed = time.time() - t0
    report(2, worst < 1e-4 and elapsed < 30.0,
           f"max rel error {worst:.3e} over 100 trained flows "
           f"({count} points) [{elapsed:.1f}s]")


def test_criterion_3_gradient_exactness(moons_estimator):
    flow, latent, held = moons_estimator
    t0 = time.time()
    rng = np.random.default_rng(31)
    pts = held[rng.choice(len(held), 200, replace=False)]
    worst = 0.0
    for v in pts:
        g = density_gradient(v[None], flow, latent)[0]
        fd = finite_diff_grad(
            lambda w: -float(marginal_loglik(w[None], flow, latent).data[0]), v,
            h=1e-4)
        worst = max(worst, float(np.abs(g - fd).max() / max(1.0, np.abs(fd).max())))
    elapsed = time.time() - t0
    report(3, worst < 1e-3 and elapsed < 10.0,
           f"max rel error {worst:.3e} on 200 held-out features [{elapsed:.1f}s]")


def test_criterion_4_normalization(moons_estimator):
    flow, latent, _ = moons_estimator
    t0 = time.time()
    mass, se, warn = mc_normalization(flow, latent, ((-8, 8), (-8, 8)),
                                      1_000_000, seed=41)
    elapsed = time.time() - t0
    report(4, 0.97 <= mass <= 1.03 and elapsed < 20.0,
           f"mass {mass:.4f} (se {se:.4f}, boundary warn {warn}) [{elapsed:.1f}s]")


def test_criterion_5_density_learning():
    t0 = time.time()
    rng = np.random.default_rng(60)
    true_means = np.array([[-2.0, -1.0], [2.0, 1.0]])
    true_latent = GmmLatent(means=true_means, log_weights=np.log([0.5, 0.5]))

    def sample(n):
        comp = rng.integers(0, 2, size=n)
        return true_means[comp] + rng.standard_normal((n, 2)), comp

    x_train, y_train = sample(2000)
    x_held, _ = sample(2000)
    flow = init_flow(2, n_blocks=4, hidden=256, seed=61)
    latent = init_latent(2, 2, seed=62)
    fit_density(FeaturePool(x_train[:1000], y_train[:1000], x_train[1000:]), flow,
                latent, FlowTrainConfig(), steps=5000, batch=256,
                rng=np.random.default_rng(63))
    nll_flow = -float(np.mean(marginal_loglik(x_held, flow, latent).data))
    nll_true = -float(np.mean(mixture_logpdf(x_held, true_latent).data))
    gap = nll_flow - nll_true
    elapsed = time.time() - t0
    report(5, gap <= 0.1 and elapsed < 120.0,
           f"held-out NLL gap {gap:+.4f} nats after 5000 steps [{elapsed:.1f}s]")


def test_criterion_6_descent_property(moons_estimator):
    flow, latent, held = moons_estimator
    t0 = time.time()
    pts = held[:1000]
    sigma = float(pts.std())
    fracs = {}
    for mult in (0.01, 0.5):
        delta, _ = density_descent_perturbation(pts, mult * sigma, flow, latent)
        lp0 = marginal_loglik(pts, flow, latent).data
        lp1 = marginal_loglik(pts + delta, flow, latent).data
        fracs[mult] = float(np.mean(lp1 < lp0))
    elapsed = time.time() - t0
    report(6, fracs[0.01] >= 0.95 and fracs[0.5] >= 0.80 and elapsed < 10.0,
           f"descent fraction {fracs[0.01]:.3f} at 0.01*sigma, "
           f"{fracs[0.5]:.3f} at 0.5*sigma [{elapsed:.1f}s]")


def test_criterion_7_norm_contract(moons_estimator):
    flow, latent, held = moons_estimator
    eps = 0.8254
    delta, fallbacks = density_descent_perturbation(held[:500], eps, flow, latent)
    norms = np.linalg.norm(delta, axis=1)
    err = float(np.abs(norms - eps).max())
    report(7, fallbacks == 0 and err < 1e-12,
           f"max |norm - eps| = {err:.2e} over 500 features "
           f"({fallbacks} fallbacks)")


def test_criterion_8_ema_exactness():
    teacher = init_model(2, 16, 4, 3, seed=81)
    student = init_model(2, 16, 4, 3, seed=82)
    old = [p.copy() for p in teacher.params()]
    ema_update(teacher, student, 0.999)
    worst = max(float(np.abs(tp - (0.999 * o + 0.001 * sp)).max())
                for o, tp, sp in zip(old, teacher.params(), student.params()))

    t1 = init_model(2, 16, 4, 3, seed=83)
    frozen = [p.copy() for p in t1.params()]
    ema_update(t1, student, 1.0)
    keep_exact = all(np.array_equal(f, p) for f, p in zip(frozen, t1.params()))

    t0_model = init_model(2, 16, 4, 3, seed=84)
    ema_update(t0_model, student, 0.0)
    copy_exact = all(np.array_equal(tp, sp)
                     for tp, sp in zip(t0_model.params(), student.params()))
    report(8, worst < 1e-12 and keep_exact and copy_exact,
           f"update error {worst:.2e}; m=1 bit-exact {keep_exact}; "
           f"m=0 bit-exact {copy_exact}")


def test_criterion_9_component_trend(benchmark_runs):
    base = benchmark_runs["baseline"]
    unif = benchmark_runs["uniform-noise"]
    dd = benchmark_runs["dd-eps0.25"]
    elapsed = base["time"] + unif["time"] + dd["time"]
    ordered = dd["mean"] >= unif["mean"] >= base["mean"]
    gain = (dd["mean"] - base["mean"]) * 100
    report(9, ordered and gain >= 1.0 and elapsed < 600.0,
           f"means dd={dd['mean']:.4f} >= uniform={unif['mean']:.4f} >= "
           f"baseline={base['mean']:.4f}; dd-baseline = {gain:+.2f} points "
           f"[{elapsed:.0f}s]")


def test_criterion_10_kind_trend(benchmark_runs):
    kinds = ["uniform-noise", "channel-dropout", "vat-lite", "dd-eps0.25"]
    means = {k: benchmark_runs[k]["mean"] for k in kinds}
    elapsed = sum(benchmark_runs[k]["time"] for k in kinds)
    best = max(means, key=means.get)
    report(10, best == "dd-eps0.25" and elapsed < 1200.0,
           "seed-mean accuracy " + ", ".join(f"{k}={v:.4f}" for k, v in means.items())
           + f" [{elapsed:.0f}s]")


def test_criterion_11_eps_trend(benchmark_runs):
    grid = [0.1, 0.25, 0.5, 1.0, 2.0]
    means = [benchmark_runs[f"dd-eps{e}"]["mean"] for e in grid]
    elapsed = sum(benchmark_runs[f"dd-eps{e}"]["time"] for e in grid)
    best = int(np.argmax(means))
    interior = 0 < best < len(grid) - 1
    report(11, interior and elapsed < 1500.0,
           "eps sweep " + ", ".join(f"{e}:{m:.4f}" for e, m in zip(grid, means))
           + f"; max at eps={grid[best]} [{elapsed:.0f}s]")


def test_criterion_12_isolation():
    cfg, spec = two_moons_benchmark()
    cfg = replace(cfg, epochs=20)
    ds = make_dataset(spec)
    result = train_ssl(cfg, ds)
    report(12, result.isolation_violations == 0 and result.flow_steps > 0,
           f"{result.isolation_violations} violations across "
           f"{result.flow_steps} flow steps and {len(result.rows)} epochs")
