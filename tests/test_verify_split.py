"""``worker.streamed`` runs a generator in one forked worker and yields its
items in the caller. ``worker.ordered`` deals jobs round-robin to the calling
process and to such workers on the other cores, and yields every job's items
in job order. ``verify`` checks its (flow, latent) pairs through it and prints
every row in the caller. These tests pin ``streamed``'s items, return value,
errors and reaping, ``ordered``'s order, errors and in-caller path, and
``verify``'s errors and lost workers, and check that a broken check fails.
``tests/test_layouts.py`` holds ``verify``'s output under every layout to
its output on one core."""

import multiprocessing
import os
import subprocess
import sys
import time
from contextlib import closing, nullcontext

import pytest

import layouts
from densitydescent import cli
from densitydescent.cli import main
from densitydescent.errors import NumericError
from densitydescent.worker import WorkerLost, can_fork, ordered, streamed
from layouts import deadline, starts  # noqa: F401  (fixtures)
from recipe import small_doc

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

needs_fork = pytest.mark.skipif(not can_fork(),
                                reason="verify splits only where it can fork onto a second core")


def verify_config(tmp_path):
    return small_doc(tmp_path, verify={"dims": [2, 8], "mc_samples": 20_000})


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
def test_error_output_is_the_in_process_one(failing, tmp_path, monkeypatch, deadline):
    models = fail_in_pairs(monkeypatch, failing)
    argv = ["verify", "--config", verify_config(tmp_path)]
    split, alone = layouts.run(argv, "cores2"), layouts.run(argv, "no-fork")
    assert len(models) == 8   # four pairs, each built once per run
    assert (split.started, alone.started) == (1, 0)
    assert multiprocessing.active_children() == []
    assert split[:3] == alone[:3]
    first = min(failing)
    assert split.code == 3
    assert split.stderr == f"numeric abort: pair {first} failed\n"
    rows = split.stdout.splitlines()
    assert len(rows) == sum(4 if i < 2 else 3 for i in range(first)) + 2
    assert "checks passed" not in split.stdout


@needs_fork
def test_worker_that_dies_without_a_message_exits_4_promptly(monkeypatch, tmp_path, deadline):
    parent, checks = os.getpid(), cli._pair_checks

    def dying_checks(*args):
        if os.getpid() != parent:
            os._exit(7)
        return checks(*args)

    monkeypatch.setattr(cli, "_pair_checks", dying_checks)
    result = layouts.run(["verify", "--config", verify_config(tmp_path)], "cores2")
    assert result.code == 4
    assert result.stderr == ("worker lost: a forked worker exited with code 7 "
                             "before it finished\n")
    assert "checks passed" not in result.stdout
    assert result.started == 1
    assert multiprocessing.active_children() == []


def test_importing_the_cli_does_not_import_multiprocessing():
    probe = "import sys, densitydescent.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True).stdout
    assert out == "False\n"


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
@pytest.mark.parametrize("cores", [None, "cores4"], ids=["host", "four_cores"])
def test_ordered_keeps_job_order_under_uneven_times(cores, starts, deadline):
    # the caller's first job is the slowest, and the workers' jobs take
    # different times: every item still arrives in job order, and job j runs
    # in process j % n, the caller being process 0
    with layouts.installed(cores) if cores else nullcontext():
        items = list(ordered(pid_items({0: 0.3, 1: 0.05, 3: 0.15, 5: 0.1}), range(7)))
    assert [(j, k) for j, k, _ in items] == expected(7)
    pids = {j: pid for j, _, pid in items}
    processes = len(set(pids.values()))
    if cores:
        assert processes == 4
    assert pids[0] == os.getpid()
    assert all(pids[j] == pids[j % processes] for j in pids)
    assert starts[0] == processes - 1
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("fail", [1, 2, 5])
def test_ordered_raises_a_mid_job_error_after_the_items_before_it(fail, starts, deadline):
    items = []
    with layouts.installed("cores2"), pytest.raises(ValueError, match=f"^job {fail} failed$"):
        for j, k, _ in ordered(pid_items({0: 0.1}, fail=fail), range(6)):
            items.append((j, k))
    # the failing job's first item comes before its error
    assert items == expected(6, upto=(fail, 0))
    assert starts[0] == 1
    assert multiprocessing.active_children() == []


@needs_fork
def test_ordered_names_a_worker_s_exit_code(starts, deadline):
    items = []
    with pytest.raises(WorkerLost, match="exited with code 5"):
        for j, k, _ in ordered(pid_items({}, exit_code=(1, 5)), range(4)):
            items.append((j, k))
    assert items == expected(4, upto=(1, 0))
    assert multiprocessing.active_children() == []


def test_ordered_runs_every_job_in_the_caller_where_it_cannot_fork(starts):
    with layouts.installed("no-fork"):
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


def _mass_off(f):
    def estimate(*args, **kw):
        mass, se, warn = f(*args, **kw)
        return mass + 0.5, se, warn
    return estimate


def _scaled(f):
    return lambda *args, **kw: f(*args, **kw) * 1.01


def _nan(f):
    return lambda *args, **kw: f(*args, **kw) * float("nan")


@needs_fork
@pytest.mark.parametrize("name, broken, check, fails", [
    ("flow_inverse", _off_by, "invertibility", 4),
    ("kernel_forward", _logdet_scaled, "logdet", 2),   # identity flows have log-det 0
    ("density_gradient", _scaled, "gradient", 4),
    ("mc_normalization", _mass_off, "normalization", 2),
    # a NaN error fails its row, though the builtin max(0.0, nan) is 0.0
    ("numeric_jacobian_logdet", _nan, "logdet", 4),
    ("density_gradient", _nan, "gradient", 4),
])
def test_a_broken_quantity_fails_its_check(name, broken, check, fails, tmp_path,
                                           monkeypatch, capsys, starts):
    # patched before the fork, so the workers check the broken function too;
    # unpatched, every check of this config passes
    monkeypatch.setattr(cli, name, broken(getattr(cli, name)))
    with layouts.installed("cores2"):
        assert main(["verify", "--config", verify_config(tmp_path)]) == 1
    rows = capsys.readouterr().out.splitlines()
    failed = [row for row in rows if row.startswith("FAIL")]
    assert len(failed) == fails
    assert all(row.startswith(f"FAIL  {check}(d=") for row in failed)
    assert rows[-1] == f"verify: {14 - fails}/14 checks passed"
    assert starts[0] == 1
