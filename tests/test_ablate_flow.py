"""A run whose caller reads nothing of the flow (``keep_flow=False``, as every
``ablate`` cell) and whose perturbation never reads it either trains no
flow: its loop runs in the calling process and draws the rows of every pool,
but encodes and gathers none. These tests hold such a run to the run with its flow, bit for bit in every
column but ``L_flow``, and ``ablate``'s ``sweep.csv`` to the matching
``train-ssl`` runs."""

import json
import sys

import numpy as np
import pytest

from densitydescent import estimator, semisup
from densitydescent.cli import main
from densitydescent.estimator import FlowTrainConfig
from densitydescent.flow import FlowArch
from densitydescent.perturb import KINDS, PerturbConfig


def config(**kw):
    # tau 0.6 lets pseudo labels pass, so every perturbation kind moves the
    # feature loss; two flow updates per iteration
    defaults = dict(
        epochs=3, batch_labeled=8, batch_unlabeled=16, lr=0.05, feature_dim=2,
        hidden=16, flow=FlowArch(hidden=16), sigma_weak=0.02, sigma_strong=0.1,
        drop_prob=0.05, ema_momentum=0.95, tau=0.6, lambda_ft=0.5,
        flow_train=FlowTrainConfig(sample_budget=64, warm_start_epoch=1,
                                   updates_per_iteration=2),
        seed=0)
    defaults.update(kw)
    return semisup.SslConfig(**defaults)


SPEC = semisup.DataSpec(n=120, noise=0.1, labeled_per_class=4, test_fraction=0.25)

NO_FLOW_ARMS = {
    "lambda0": dict(lambda_ft=0.0),
    "uniform-noise": dict(perturb=PerturbConfig(kind="uniform-noise")),
    "channel-dropout": dict(perturb=PerturbConfig(kind="channel-dropout")),
    "vat-lite": dict(perturb=PerturbConfig(kind="vat-lite")),
}
COUNTERS = ("perturb_fallbacks", "warming_iterations", "final_test_acc")


@pytest.fixture
def flow_work(monkeypatch):
    """Counts of flow steps, of forked workers entered and of the teacher
    encodes that feed the flow's pools, in this process."""
    counts = {"flow_steps": 0, "forks": 0, "pool_encodes": 0}
    step, streamed, features = estimator.flow_train_step, semisup.streamed, semisup.Model.features

    def counted_step(*args, **kw):
        counts["flow_steps"] += 1
        return step(*args, **kw)

    def counted_streamed(*args):
        counts["forks"] += 1
        return streamed(*args)

    def counted_features(model, x):
        # the loop's own calls encode pools; predictions go through logits
        if sys._getframe(1).f_code is semisup._loop.__code__:
            counts["pool_encodes"] += 1
        return features(model, x)

    monkeypatch.setattr(estimator, "flow_train_step", counted_step)
    monkeypatch.setattr(semisup, "streamed", counted_streamed)
    monkeypatch.setattr(semisup.Model, "features", counted_features)
    return counts


def bits(row, columns):
    return [np.float64(row[c]).tobytes() for c in columns]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("arm", list(NO_FLOW_ARMS))
def test_no_flow_run_equals_the_run_with_its_flow(arm, seed, flow_work):
    cfg = config(seed=seed, **NO_FLOW_ARMS[arm])
    ds = semisup.dataset_for_run(SPEC, seed)
    assert not semisup.reads_flow(cfg)
    bare = semisup.train_ssl(cfg, ds, keep_flow=False)
    assert flow_work == {"flow_steps": 0, "forks": 0, "pool_encodes": 0}
    kept = semisup.train_ssl(cfg, ds)
    assert flow_work["flow_steps"] == kept.flow_steps == cfg.epochs * 6 * 2

    columns = [c for c in semisup.METRIC_COLUMNS if c != "L_flow"]
    assert len(bare.rows) == len(kept.rows) == cfg.epochs
    for a, b in zip(bare.rows, kept.rows):
        assert list(a) == columns   # no L_flow, rather than a made-up value
        assert bits(a, columns) == bits(b, columns)
    assert bare.student.flat.tobytes() == kept.student.flat.tobytes()
    assert bare.teacher.flat.tobytes() == kept.teacher.flat.tobytes()
    for name in COUNTERS:
        assert getattr(bare, name) == getattr(kept, name), name
    assert bare.flow_steps == 0
    assert bare.flow_model is None and bare.latent is None
    if cfg.lambda_ft > 0:
        # the perturbation ran, so its kind shaped the run
        assert any(row["L_ft"] > 0 for row in bare.rows)


def test_density_descending_run_keeps_its_flow(flow_work):
    cfg = config(perturb=PerturbConfig(kind="density-descending"))
    ds = semisup.dataset_for_run(SPEC, 0)
    assert semisup.reads_flow(cfg)
    asked = semisup.train_ssl(cfg, ds, keep_flow=False)
    # two encodes an iteration, feeding two flow steps
    assert flow_work == {"flow_steps": asked.flow_steps, "forks": 0,
                         "pool_encodes": asked.flow_steps}
    kept = semisup.train_ssl(cfg, ds)
    assert asked.flow_steps == kept.flow_steps == cfg.epochs * 6 * 2
    for a, b in zip(asked.rows, kept.rows):
        assert list(a) == list(semisup.METRIC_COLUMNS)
        assert bits(a, semisup.METRIC_COLUMNS) == bits(b, semisup.METRIC_COLUMNS)
    for name in ("student", "teacher", "flow_model"):
        assert getattr(asked, name).flat.tobytes() == getattr(kept, name).flat.tobytes()
    assert asked.latent.means.tobytes() == kept.latent.means.tobytes()
    assert any(row["L_ft"] > 0 for row in asked.rows)


def test_isolation_check_keeps_the_flow(flow_work):
    # the check hashes the flow around every student step, so it trains one
    cfg, ds = config(lambda_ft=0.0), semisup.dataset_for_run(SPEC, 0)
    checked = semisup.train_ssl(cfg, ds, check_isolation=True, keep_flow=False)
    assert checked.isolation_violations == 0
    assert flow_work["flow_steps"] == checked.flow_steps > 0
    assert checked.flow_model is not None
    assert all(list(row) == list(semisup.METRIC_COLUMNS) for row in checked.rows)


def test_loop_without_a_flow_fails_a_perturbation_that_reads_the_flow():
    cfg = config(perturb=PerturbConfig(kind="density-descending"))
    ds = semisup.dataset_for_run(SPEC, 0)
    student = semisup.init_model(2, cfg.hidden, cfg.feature_dim, 2, 0)
    with pytest.raises(ValueError, match="needs flow and latent"):
        list(semisup._loop(cfg, ds, student, student.clone(), None,
                           semisup.derived_seeds(cfg.seed, 5)[3:], pools=False))


def test_sweep_csv_is_the_train_ssl_accuracies(tmp_path, flow_work):
    # every kind at lambda_ft 0 and 0.5, two seeds: 16 cells, of which only
    # the two density-descending cells at 0.5 train a flow
    doc = {
        "seed": 0,
        "dataset": {"n": 120, "noise": 0.1, "test_fraction": 0.25},
        "flow": {"hidden": 16},
        "flow_train": {"sample_budget": 64, "warm_start_epoch": 1},
        "ssl": {"epochs": 3, "batch_unlabeled": 32, "hidden": 16, "feature_dim": 2,
                "tau": 0.6},
    }
    config_path, sweep_path = tmp_path / "ssl.json", tmp_path / "sweep.json"
    config_path.write_text(json.dumps(doc))
    lambdas = [0.0, 0.5]
    sweep_path.write_text(json.dumps({"kinds": list(KINDS), "lambda_ft": lambdas,
                                      "seeds": [0, 1]}))
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(config_path), "--sweep", str(sweep_path),
                 "--out", str(out)]) == 0
    assert flow_work["flow_steps"] == 2 * 3 * 3   # 3 epochs of 3 iterations, 1 update

    lines = ["kind,eps,lambda_ft,seed,test_acc"]
    for kind in KINDS:
        for lam in lambdas:
            doc["perturb"], doc["ssl"]["lambda_ft"] = {"kind": kind}, lam
            config_path.write_text(json.dumps(doc))
            run = tmp_path / f"{kind}-{lam}"
            assert main(["train-ssl", "--config", str(config_path), "--out", str(run),
                         "--seeds", "0,1"]) == 0
            summary = json.loads((run / "summary.json").read_text())
            eps = summary["config"]["perturb"]["eps"]
            lines += [f"{kind},{eps!r},{lam!r},{s},{summary['accuracies'][str(s)]!r}"
                      for s in (0, 1)]
    assert (out / "sweep.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

