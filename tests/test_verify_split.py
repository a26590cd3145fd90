"""``verify`` checks every second (flow, latent) pair in one forked worker and
the rest in the calling process, which prints every row in pair order. These
tests hold the split run's stdout, stderr and exit code to the same command
run in one process, byte for byte, and pin the order in which errors
surface."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

from densitydescent import cli
from densitydescent.cli import main
from densitydescent.errors import NumericError
from densitydescent.worker import can_fork

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

needs_fork = pytest.mark.skipif(not can_fork(),
                                reason="verify splits only where it can fork onto a second core")


def verify_config(tmp_path, dims=(2, 8), **verify):
    path = tmp_path / "verify.json"
    path.write_text(json.dumps({"flow": {"hidden": 16},
                                "verify": {"dims": list(dims), "mc_samples": 20_000,
                                           **verify}}))
    return str(path)


@pytest.fixture
def starts(monkeypatch):
    """The number of worker processes started."""
    count = [0]
    start = multiprocessing.process.BaseProcess.start

    def counted_start(self):
        count[0] += 1
        return start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
    return count


def run_both(argv, monkeypatch, capsys, starts):
    """``main(argv)`` split, then in one process: each run's (code, stdout,
    stderr). The split run must start exactly one worker and leave none."""
    split = main(argv), *capsys.readouterr()
    assert starts[0] == 1
    assert multiprocessing.active_children() == []
    with monkeypatch.context() as m:
        m.setattr(cli, "can_fork", lambda: False)
        alone = main(argv), *capsys.readouterr()
    assert starts[0] == 1
    return split, alone


@needs_fork
@pytest.mark.parametrize("dims", [(2, 8), (2,), (2, 4, 8)])
def test_split_stdout_equals_in_process_stdout(dims, tmp_path, monkeypatch, capsys, starts):
    split, alone = run_both(["verify", "--config", verify_config(tmp_path, dims)],
                            monkeypatch, capsys, starts)
    assert split == alone
    assert split[0] in (0, 1)
    assert split[1].count("\n") == sum(4 if d == 2 else 3 for d in dims) * 2 + 1


def test_checkpoint_stays_in_process(tmp_path, capsys, starts):
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({
        "seed": 3, "dataset": {"n": 200, "noise": 0.1, "test_fraction": 0.3},
        "flow": {"hidden": 16}, "fit": {"steps": 20, "batch": 64, "grid": False}}))
    assert main(["fit-density", "--config", str(fit), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    checkpoint = str(tmp_path / "run" / "checkpoint.npz")
    assert main(["verify", "--config", verify_config(tmp_path, checkpoint=checkpoint)]) == 0
    assert "verify: 4/4 checks passed" in capsys.readouterr().out
    assert starts[0] == 0


def fail_in_pairs(monkeypatch, failing):
    """Make each pair in ``failing`` (indices in pair order, for dims [2, 8])
    raise a ``NumericError`` naming it after its first two checks."""
    models = []
    init_flow, checks = cli.init_flow, cli._pair_checks

    def recorded_init_flow(*args, **kw):
        models.append(init_flow(*args, **kw))   # pair order: identity, randomized
        return models[-1]

    def failing_checks(model, *args):
        pair = next(i for i, m in enumerate(models) if m is model) % 4   # 4 pairs a run
        for n, row in enumerate(checks(model, *args)):
            if n == 2 and pair in failing:
                raise NumericError(f"pair {pair} failed")
            yield row

    monkeypatch.setattr(cli, "init_flow", recorded_init_flow)
    monkeypatch.setattr(cli, "_pair_checks", failing_checks)
    return models


@needs_fork
@pytest.mark.parametrize("failing", [
    {2},      # the caller's second pair, after the worker's first
    {1},      # the worker's first pair, before the caller's second
    {1, 2},   # both: the earlier pair's error wins
    {3},      # the worker's last pair, after every caller pair
])
def test_error_output_is_the_in_process_one(failing, tmp_path, monkeypatch, capsys, starts):
    models = fail_in_pairs(monkeypatch, failing)
    split, alone = run_both(["verify", "--config", verify_config(tmp_path)],
                            monkeypatch, capsys, starts)
    assert len(models) == 8   # four pairs, each built once per run
    assert split == alone
    first = min(failing)
    assert split[0] == 3
    assert split[2] == f"numeric abort: pair {first} failed\n"
    rows = split[1].splitlines()
    assert len(rows) == sum(4 if i < 2 else 3 for i in range(first)) + 2
    assert "checks passed" not in split[1]


@needs_fork
def test_worker_that_dies_without_a_message_raises_promptly(monkeypatch, capsys, starts,
                                                            tmp_path):
    parent, checks = os.getpid(), cli._pair_checks

    def dying_checks(*args):
        if os.getpid() != parent:
            os._exit(7)
        return checks(*args)

    monkeypatch.setattr(cli, "_pair_checks", dying_checks)

    def timeout(signum, frame):
        raise TimeoutError("the caller waited on a dead worker")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="exited with code 7"):
            main(["verify", "--config", verify_config(tmp_path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert starts[0] == 1
    assert multiprocessing.active_children() == []


def test_importing_the_cli_does_not_import_multiprocessing():
    probe = "import sys, densitydescent.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True).stdout
    assert out == "False\n"
