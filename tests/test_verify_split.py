"""``worker.streamed`` runs a generator in one forked worker and yields its
items in the caller. ``worker.ordered`` deals jobs round-robin to the calling
process and to such workers on the other cores, and yields every job's items
in job order. ``verify`` checks its (flow, latent) pairs through it and prints
every row in the caller. These tests pin ``streamed``'s items, return value,
errors and reaping, ``ordered``'s order, errors and in-caller path, hold the
split ``verify``'s stdout, stderr and exit code to the same command run in one
process, byte for byte, and check that a broken check fails."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from contextlib import closing

import pytest

from densitydescent import cli, worker
from densitydescent.cli import main
from densitydescent.errors import NumericError
from densitydescent.worker import WorkerLost, can_fork, ordered, streamed

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


def workers_for(jobs):
    """The workers ``ordered`` forks for ``jobs`` jobs: one per usable core
    past the caller's, up to one process per job."""
    return min(len(os.sched_getaffinity(0)), jobs) - 1


def run_both(argv, monkeypatch, capsys, starts, pairs=4):
    """``main(argv)`` split, then in one process: each run's (code, stdout,
    stderr). The split run must start ``workers_for(pairs)`` workers and
    leave none."""
    split = main(argv), *capsys.readouterr()
    assert starts[0] == workers_for(pairs)
    assert multiprocessing.active_children() == []
    with monkeypatch.context() as m:
        m.setattr(worker, "can_fork", lambda: False)
        alone = main(argv), *capsys.readouterr()
    assert starts[0] == workers_for(pairs)
    return split, alone


@needs_fork
@pytest.mark.parametrize("dims", [(2, 8), (2,), (2, 4, 8)])
def test_split_stdout_equals_in_process_stdout(dims, tmp_path, monkeypatch, capsys, starts):
    split, alone = run_both(["verify", "--config", verify_config(tmp_path, dims)],
                            monkeypatch, capsys, starts, pairs=2 * len(dims))
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
def test_worker_that_dies_without_a_message_exits_4_promptly(monkeypatch, capsys, starts,
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
        code = main(["verify", "--config", verify_config(tmp_path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert code == 4
    assert err == "worker lost: a forked worker exited with code 7 before it finished\n"
    assert "checks passed" not in out
    assert starts[0] == workers_for(4)
    assert multiprocessing.active_children() == []


def test_importing_the_cli_does_not_import_multiprocessing():
    probe = "import sys, densitydescent.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True).stdout
    assert out == "False\n"


@pytest.fixture
def deadline():
    """Fail a test that waits on its workers for more than 30 s."""
    def timeout(signum, frame):
        raise TimeoutError("the caller waited on its workers for 30 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def numbered(n, stop_at=None, stop=None):
    """A generator for ``streamed``: (i, pid) for i < n, calling ``stop`` in
    place of item ``stop_at``; it returns ("done", pid)."""
    for i in range(n):
        if i == stop_at:
            stop()
        yield i, os.getpid()
    return "done", os.getpid()


def drained(stream):
    """A stream's items and its return value."""
    items = []
    while True:
        try:
            items.append(next(stream))
        except StopIteration as end:
            return items, end.value


def fail_item():
    raise ValueError("item 3 failed")


def exit_9():
    os._exit(9)


def endless():
    i = 0
    while True:
        yield i
        i += 1


def touching(path):
    open(path, "w").close()
    yield "started"


@needs_fork
def test_streamed_yields_the_items_in_order_and_returns_the_value(starts, deadline):
    items, value = drained(streamed(numbered, 5))
    pid = value[1]
    assert pid != os.getpid()
    assert items == [(i, pid) for i in range(5)]
    assert value == ("done", pid)
    assert starts[0] == 1
    assert multiprocessing.active_children() == []


@needs_fork
def test_streamed_raises_the_generator_s_error_after_the_items_before_it(starts, deadline):
    items = []
    with pytest.raises(ValueError, match="^item 3 failed$"):
        for i, _ in streamed(numbered, 5, 3, fail_item):
            items.append(i)
    assert items == [0, 1, 2]
    assert starts[0] == 1
    assert multiprocessing.active_children() == []


@needs_fork
def test_streamed_names_a_worker_s_exit_code(starts, deadline):
    items = []
    with pytest.raises(WorkerLost,
                       match="^a forked worker exited with code 9 before it finished$"):
        for i, _ in streamed(numbered, 5, 2, exit_9):
            items.append(i)
    assert items == [0, 1]
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("taken", [0, 3])
def test_streamed_closed_early_stops_and_reaps_its_worker(taken, starts, deadline):
    stream = streamed(endless)
    assert [next(stream) for _ in range(taken)] == list(range(taken))
    stream.close()
    assert starts[0] == 1
    assert multiprocessing.active_children() == []


@needs_fork
def test_streamed_starts_its_worker_at_the_call(tmp_path, deadline):
    # no item is asked for until the worker has run: ordered's workers run
    # their jobs while the caller runs its own
    marker = tmp_path / "started"
    with closing(streamed(touching, str(marker))) as stream:
        while not marker.exists():
            time.sleep(0.01)
        assert list(stream) == ["started"]
    assert multiprocessing.active_children() == []


def pid_items(slow, fail=None, exit_code=None):
    """A job function for ``ordered``: job j yields (j, k, pid) for k < 1 + j % 3,
    after sleeping ``slow[j]`` seconds; job ``fail`` raises after its first item
    and, in a worker, job ``exit_code[0]`` exits with code ``exit_code[1]``
    there."""
    def fn(job):
        time.sleep(slow.get(job, 0.0))
        for k in range(1 + job % 3):
            yield job, k, os.getpid()
            if job == fail:
                raise ValueError(f"job {job} failed")
            if exit_code and job == exit_code[0] and os.getpid() != parent:
                os._exit(exit_code[1])
    parent = os.getpid()
    return fn


def expected(jobs, upto=None):
    return [(j, k) for j in range(jobs) for k in range(1 + j % 3)
            if upto is None or (j, k) <= upto]


@needs_fork
@pytest.mark.parametrize("cores", [None, 4], ids=["host", "four_cores"])
def test_ordered_keeps_job_order_under_uneven_times(cores, monkeypatch, starts, deadline):
    # the caller's first job is the slowest, and the workers' jobs take
    # different times: every item still arrives in job order, and job j runs
    # in process j % n, the caller being process 0
    if cores:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    jobs, processes = 7, workers_for(7) + 1
    slow = {0: 0.3, 1: 0.05, 2: 0.0, 3: 0.15, 4: 0.0, 5: 0.1}
    items = list(ordered(pid_items(slow), range(jobs)))
    assert [(j, k) for j, k, _ in items] == expected(jobs)
    pids = {j: pid for j, _, pid in items}
    assert len(set(pids.values())) == processes and pids[0] == os.getpid()
    assert all(pids[j] == pids[j % processes] for j in pids)
    assert starts[0] == processes - 1
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("fail", [1, 2, 5])
def test_ordered_raises_a_mid_job_error_after_the_items_before_it(fail, starts, deadline):
    items = []
    with pytest.raises(ValueError, match=f"^job {fail} failed$"):
        for j, k, _ in ordered(pid_items({0: 0.1}, fail=fail), range(6)):
            items.append((j, k))
    # the failing job's first item comes before its error
    assert items == expected(6, upto=(fail, 0))
    assert starts[0] == workers_for(6)
    assert multiprocessing.active_children() == []


@needs_fork
def test_ordered_names_a_worker_s_exit_code(starts, deadline):
    items = []
    with pytest.raises(WorkerLost, match="exited with code 5"):
        for j, k, _ in ordered(pid_items({}, exit_code=(1, 5)), range(4)):
            items.append((j, k))
    assert items == expected(4, upto=(1, 0))
    assert multiprocessing.active_children() == []


def test_ordered_runs_every_job_in_the_caller_where_it_cannot_fork(monkeypatch, starts):
    monkeypatch.setattr(worker, "can_fork", lambda: False)
    items = list(ordered(pid_items({}), range(5)))
    assert [(j, k) for j, k, _ in items] == expected(5)
    assert {pid for _, _, pid in items} == {os.getpid()}
    assert starts[0] == 0


@pytest.mark.parametrize("setup, jobs, items", [
    ("", "[7]", [7, -7]),
    ("worker.can_fork = lambda: False", "range(3)", [0, 0, 1, -1, 2, -2]),
], ids=["one_job", "cannot_fork"])
def test_ordered_in_the_caller_does_not_import_multiprocessing(setup, jobs, items):
    probe = (f"import sys; from densitydescent import worker; {setup}\n"
             f"print(list(worker.ordered(lambda j: [j, -j], {jobs})), "
             f"'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True).stdout
    assert out == f"{items} False\n"


def _off_by(f):
    return lambda *args, **kw: f(*args, **kw) + 1e-6


def _logdet_scaled(f):
    def forward(*args, **kw):
        z, logdet, saved = f(*args, **kw)
        return z, logdet * 1.01, saved
    return forward


def _scaled(f):
    return lambda *args, **kw: f(*args, **kw) * 1.01


@needs_fork
@pytest.mark.parametrize("name, broken, check, fails", [
    ("flow_inverse", _off_by, "invertibility", 4),
    ("kernel_forward", _logdet_scaled, "logdet", 2),   # identity flows have log-det 0
    ("density_gradient", _scaled, "gradient", 4),
])
def test_a_broken_quantity_fails_its_check(name, broken, check, fails, tmp_path,
                                           monkeypatch, capsys, starts):
    # patched before the fork, so the workers check the broken function too;
    # unpatched, every check of this config passes
    monkeypatch.setattr(cli, name, broken(getattr(cli, name)))
    assert main(["verify", "--config", verify_config(tmp_path)]) == 1
    rows = capsys.readouterr().out.splitlines()
    failed = [row for row in rows if row.startswith("FAIL")]
    assert len(failed) == fails
    assert all(row.startswith(f"FAIL  {check}(d=") for row in failed)
    assert rows[-1] == f"verify: {14 - fails}/14 checks passed"
    assert starts[0] == workers_for(4)
