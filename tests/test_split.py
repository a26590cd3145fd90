"""A run whose perturbation never reads the flow trains the flow beside its
student loop: one forked worker runs the loop and streams its feature pools
back (``worker.streamed``), and the calling process steps the flow on them.
These tests hold the split run to the same run in one process, bit for bit,
and pin the order in which errors surface."""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from densitydescent import estimator, semisup
from densitydescent.cli import main
from densitydescent.errors import NumericError
from densitydescent.estimator import FlowTrainConfig
from densitydescent.perturb import PerturbConfig
from densitydescent.worker import can_fork
from layouts import deadline, starts  # noqa: F401  (fixtures)
from layouts import installed, run
from recipe import NO_FLOW_ARMS, SMALL_SPEC, small_config, small_doc

pytestmark = pytest.mark.skipif(not can_fork(),
                                reason="a run splits only where it can fork onto a second core")


def dataset():
    return semisup.dataset_for_run(SMALL_SPEC, 0)


@pytest.mark.parametrize("arm", list(NO_FLOW_ARMS))
def test_split_run_equals_in_process_run(arm, starts):
    cfg, ds = small_config(**NO_FLOW_ARMS[arm]), dataset()
    split = semisup.train_ssl(cfg, ds)
    assert starts[0] == 1
    with installed("no-fork"):
        alone = semisup.train_ssl(cfg, ds)
    assert starts[0] == 1 and alone.isolation_violations == 0

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
    for name in ("flow_steps", "perturb_fallbacks", "final_test_acc"):
        assert getattr(split, name) == getattr(alone, name), name
    assert split.isolation_violations is None   # its worker holds no flow to check
    assert split.flow_steps == cfg.epochs * 6 * 2
    if cfg.lambda_ft > 0:
        # the perturbation ran, so its kind shaped the run
        assert any(row["L_ft"] > 0 for row in split.rows)


@pytest.mark.parametrize("layout", ["cores2", "no-fork"], ids=["split", "in-process"])
def test_l_flow_sums_each_iterations_last_loss_in_order(layout, monkeypatch, starts):
    losses = []
    step = estimator.flow_train_step

    def recorded(*args, **kw):
        losses.append(step(*args, **kw))
        return losses[-1]

    monkeypatch.setattr(estimator, "flow_train_step", recorded)
    cfg = small_config(lambda_ft=0.0, batch_unlabeled=8)
    with installed(layout):
        result = semisup.train_ssl(cfg, dataset())
    assert starts[0] == (layout == "cores2")
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
    assert semisup._splits(small_config(lambda_ft=0.0), ds)
    dd = small_config(perturb=PerturbConfig(kind="density-descending"))
    assert not semisup._splits(dd, ds)
    assert semisup._splits(replace(dd, lambda_ft=0.0), ds)
    late = small_config(lambda_ft=0.0,
                        flow_train=FlowTrainConfig(sample_budget=64, warm_start_epoch=4))
    assert not semisup._splits(late, ds)
    supervised = replace(ds, unlabeled_idx=ds.unlabeled_idx[:0])
    assert not semisup._splits(small_config(lambda_ft=0.0), supervised)
    with monkeypatch.context() as m:   # a multiprocessing.Pool worker
        m.setattr(multiprocessing.current_process(), "daemon", True)
        assert not semisup._splits(small_config(lambda_ft=0.0), ds)
    for layout in ("cores1", "no-fork"):
        with installed(layout):
            assert not semisup._splits(small_config(lambda_ft=0.0), ds)


@pytest.mark.parametrize("layout,logged", [("cores2", "n/a"), ("no-fork", "0")])
def test_run_log_tells_an_unchecked_isolation_count_from_a_checked_0(layout, logged, tmp_path):
    argv = ["train-ssl", "--config", small_doc(tmp_path, ssl={"lambda_ft": 0.0})]
    assert run(argv, layout, tmp_path / "run").code == 0
    log = (tmp_path / "run" / "run.log").read_text()
    assert f" isolation_violations={logged}\n" in log


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


def test_worker_error_comes_after_the_finished_iterations_pools(monkeypatch, starts):
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
    cfg, ds = small_config(lambda_ft=0.0), dataset()
    with pytest.raises(NumericError, match="^student failed at call 8$"):
        semisup.train_ssl(cfg, ds)
    assert starts[0] == 1 and calls[0] == 0   # the worker took every call
    split, stepped[:] = stepped[:], []
    with installed("no-fork"), pytest.raises(NumericError, match="^student failed at call 8$"):
        semisup.train_ssl(cfg, ds)
    assert len(stepped) == 7 * cfg.flow_train.updates_per_iteration
    assert len(split) == len(stepped)
    assert split[-1].tobytes() == stepped[-1].tobytes()
    assert multiprocessing.active_children() == []


def test_worker_that_dies_without_a_message_exits_4_promptly(tmp_path, monkeypatch, capsys,
                                                            starts, deadline):
    parent = os.getpid()

    def die():
        if os.getpid() != parent:
            os._exit(7)

    fail_at_call(monkeypatch, 5, die)
    cfg = small_doc(tmp_path, ssl={"batch_unlabeled": 16, "lambda_ft": 0.0})
    code = main(["train-ssl", "--config", cfg, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "worker lost: a forked worker exited with code 7 before it finished\n"
    assert starts[0] == 1
    assert multiprocessing.active_children() == []
