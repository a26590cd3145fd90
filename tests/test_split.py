"""A run whose perturbation never reads the flow trains the flow beside its
student loop: one forked worker runs the loop and streams its feature pools
back (``worker.streamed``), and the calling process steps the flow on them.
These tests hold the split run to the same run in one process, bit for bit,
and pin the order in which errors surface."""

import json
import multiprocessing
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from densitydescent import estimator, semisup
from densitydescent.cli import main
from densitydescent.errors import NumericError
from densitydescent.estimator import FlowTrainConfig
from densitydescent.flow import FlowArch
from densitydescent.perturb import PerturbConfig

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="a run splits only where it can fork onto a second core")


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


def dataset():
    return semisup.dataset_for_run(
        semisup.DataSpec(n=120, noise=0.1, labeled_per_class=4, test_fraction=0.25), 0)


ARMS = {
    "lambda0": dict(lambda_ft=0.0),
    "uniform-noise": dict(perturb=PerturbConfig(kind="uniform-noise")),
    "channel-dropout": dict(perturb=PerturbConfig(kind="channel-dropout")),
    "vat-lite": dict(perturb=PerturbConfig(kind="vat-lite")),
}


@pytest.fixture
def workers(monkeypatch):
    """Counts of split runs (streamed loops) and of started worker processes."""
    counts = {"splits": 0, "starts": 0}
    split, start = semisup.streamed, multiprocessing.process.BaseProcess.start

    def counted_split(*args):
        counts["splits"] += 1
        return split(*args)

    def counted_start(self):
        counts["starts"] += 1
        return start(self)

    monkeypatch.setattr(semisup, "streamed", counted_split)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
    return counts


@pytest.mark.parametrize("arm", list(ARMS))
def test_split_run_equals_in_process_run(arm, workers):
    cfg, ds = config(**ARMS[arm]), dataset()
    split = semisup.train_ssl(cfg, ds)
    assert workers == {"splits": 1, "starts": 1}
    alone = semisup.train_ssl(cfg, ds, check_isolation=True)
    assert workers["splits"] == 1 and alone.isolation_violations == 0

    assert len(split.rows) == cfg.epochs
    for a, b in zip(split.rows, alone.rows):
        assert list(a) == list(semisup.METRIC_COLUMNS)
        assert [np.float64(a[c]).tobytes() for c in semisup.METRIC_COLUMNS] == \
               [np.float64(b[c]).tobytes() for c in semisup.METRIC_COLUMNS]
    for name in ("student", "teacher", "flow_model"):
        assert getattr(split, name).flat.tobytes() == getattr(alone, name).flat.tobytes()
    assert split.student.enc_w1.base is split.student.flat   # still views of flat
    assert split.latent.means.tobytes() == alone.latent.means.tobytes()
    assert split.latent.log_weights.tobytes() == alone.latent.log_weights.tobytes()
    for name in ("flow_steps", "perturb_fallbacks", "warming_iterations",
                 "final_test_acc"):
        assert getattr(split, name) == getattr(alone, name), name
    assert split.flow_steps == cfg.epochs * 6 * 2
    if cfg.lambda_ft > 0:
        # the perturbation ran, so its kind shaped the run
        assert any(row["L_ft"] > 0 for row in split.rows)


@pytest.mark.parametrize("check_isolation", [False, True], ids=["split", "in-process"])
def test_l_flow_sums_each_iterations_last_loss_in_order(check_isolation, monkeypatch):
    losses = []
    step = estimator.flow_train_step

    def recorded(*args, **kw):
        losses.append(step(*args, **kw))
        return losses[-1]

    monkeypatch.setattr(estimator, "flow_train_step", recorded)
    cfg = config(lambda_ft=0.0, batch_unlabeled=8)
    result = semisup.train_ssl(cfg, dataset(), check_isolation=check_isolation)
    per_epoch, updates = 11, cfg.flow_train.updates_per_iteration
    assert len(losses) == cfg.epochs * per_epoch * updates
    last = losses[updates - 1::updates]
    for epoch, row in enumerate(result.rows):
        total = 0.0
        for loss in last[epoch * per_epoch:(epoch + 1) * per_epoch]:
            total += loss
        assert np.float64(row["L_flow"]).tobytes() == np.float64(total / per_epoch).tobytes()


def test_runs_that_read_the_flow_or_take_no_flow_step_stay_in_process(monkeypatch):
    ds = dataset()
    assert semisup._splits(config(lambda_ft=0.0), ds, False)
    dd = config(perturb=PerturbConfig(kind="density-descending"))
    assert not semisup._splits(dd, ds, False)
    assert semisup._splits(replace(dd, lambda_ft=0.0), ds, False)
    assert not semisup._splits(config(lambda_ft=0.0), ds, True)
    late = config(lambda_ft=0.0, flow_train=FlowTrainConfig(sample_budget=64,
                                                            warm_start_epoch=4))
    assert not semisup._splits(late, ds, False)
    supervised = replace(ds, unlabeled_idx=ds.unlabeled_idx[:0])
    assert not semisup._splits(config(lambda_ft=0.0), supervised, False)
    with monkeypatch.context() as m:   # a multiprocessing.Pool worker
        m.setattr(multiprocessing.current_process(), "daemon", True)
        assert not semisup._splits(config(lambda_ft=0.0), ds, False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not semisup._splits(config(lambda_ft=0.0), ds, False)


def fail_at_call(monkeypatch, n, fail):
    """Make the ``n``-th ``student_step`` call of a process call ``fail``."""
    calls = [0]
    step = semisup.student_step

    def failing(*args, **kw):
        calls[0] += 1
        if calls[0] == n:
            fail()
        return step(*args, **kw)

    monkeypatch.setattr(semisup, "student_step", failing)
    return calls


def test_worker_error_comes_after_the_finished_iterations_pools(monkeypatch, workers):
    # the 8th student step is epoch 2's second iteration: the flow must have
    # taken the steps of the seven before it, as in one process
    def fail():
        raise NumericError("student failed at call 8")

    calls = fail_at_call(monkeypatch, 8, fail)
    stepped = []
    step = estimator.flow_train_step

    def recorded(pool, model, *args, **kw):
        loss = step(pool, model, *args, **kw)
        stepped.append(model.flat.copy())
        return loss

    monkeypatch.setattr(estimator, "flow_train_step", recorded)
    cfg, ds = config(lambda_ft=0.0), dataset()
    with pytest.raises(NumericError, match="^student failed at call 8$"):
        semisup.train_ssl(cfg, ds)
    assert workers["splits"] == 1 and calls[0] == 0   # the worker took every call
    split, stepped[:] = stepped[:], []
    with pytest.raises(NumericError, match="^student failed at call 8$"):
        semisup.train_ssl(cfg, ds, check_isolation=True)
    assert len(stepped) == 7 * cfg.flow_train.updates_per_iteration
    assert len(split) == len(stepped)
    assert split[-1].tobytes() == stepped[-1].tobytes()
    assert multiprocessing.active_children() == []


def test_worker_that_dies_without_a_message_exits_4_promptly(tmp_path, monkeypatch, capsys,
                                                            workers):
    parent = os.getpid()

    def die():
        if os.getpid() != parent:
            os._exit(7)

    fail_at_call(monkeypatch, 5, die)

    def timeout(signum, frame):
        raise TimeoutError("the caller waited on a dead worker")

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "dataset": {"n": 120, "noise": 0.1, "test_fraction": 0.25},
        "flow": {"hidden": 16},
        "flow_train": {"sample_budget": 64, "warm_start_epoch": 1},
        "ssl": {"epochs": 3, "batch_unlabeled": 16, "hidden": 16, "feature_dim": 2,
                "lambda_ft": 0.0},
    }))
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        code = main(["train-ssl", "--config", str(cfg), "--out", str(tmp_path / "run")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert code == 4
    assert err == "worker lost: a forked worker exited with code 7 before it finished\n"
    assert workers["splits"] == 1
    assert multiprocessing.active_children() == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("where,lr,warm_start", [
    ("student", 1e250, 2),   # the worker's loss overflows before any flow step
    ("flow", 1e200, 1),      # the caller's flow loss overflows on huge features
])
def test_numeric_abort_is_the_in_process_one(where, lr, warm_start, tmp_path,
                                            monkeypatch, capsys, workers):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "dataset": {"n": 120, "noise": 0.1, "test_fraction": 0.25},
        "flow": {"hidden": 16},
        "flow_train": {"sample_budget": 64, "warm_start_epoch": warm_start},
        "ssl": {"epochs": 4, "batch_unlabeled": 32, "hidden": 16, "feature_dim": 2,
                "lambda_ft": 0.0, "lr": lr},
    }))
    assert main(["train-ssl", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 3
    split = capsys.readouterr().err
    assert workers["splits"] == 1
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["train-ssl", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 3
    assert workers["splits"] == 1
    assert split == capsys.readouterr().err
    assert split.startswith("numeric abort: non-finite " + (
        "training loss" if where == "student" else "flow loss"))
