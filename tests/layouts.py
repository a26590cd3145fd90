"""Run a command under a named process layout, and count the processes a
block starts. The layouts:

- ``cores1``, ``cores2``, ``cores4``: 1, 2 or 4 usable cores, faked through
  ``os.sched_getaffinity``;
- ``no-fork``: ``worker.can_fork`` refused, so every command runs in one
  process;
- ``blas1``, ``blas2``: 1 or 2 BLAS threads (``OPENBLAS_NUM_THREADS`` and
  ``OMP_NUM_THREADS``, set before numpy loads) and 2 usable cores, in a
  fresh interpreter that runs this file as a script:
  ``python tests/layouts.py OUT ARGV...`` pickles
  ``run(ARGV, "cores2", OUT or None)`` to its stdout.
"""

import io
import os
import pickle
import signal
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
IN_PROCESS = ("cores1", "cores2", "cores4", "no-fork")
BLAS_THREADS = {"blas1": 1, "blas2": 2}


class Result(NamedTuple):
    code: int
    stdout: str
    stderr: str
    files: dict   # output file name -> bytes, run.log aside
    started: int  # processes started


@contextmanager
def started():
    """Count the processes started in the block (``BaseProcess.start``
    calls), in a one-item list."""
    import multiprocessing.process
    count = [0]
    start = multiprocessing.process.BaseProcess.start

    def counted(process):
        count[0] += 1
        return start(process)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(multiprocessing.process.BaseProcess, "start", counted)
        yield count


@pytest.fixture
def starts():
    """The processes the test started, in a one-item list."""
    with started() as count:
        yield count


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


@contextmanager
def installed(layout):
    """The patches of the in-process ``layout``, for the block."""
    from densitydescent import worker
    with pytest.MonkeyPatch.context() as m:
        if layout == "no-fork":
            m.setattr(worker, "can_fork", lambda: False)
        else:
            cores = set(range(int(layout.removeprefix("cores"))))
            m.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        yield


def run(argv, layout, out=None) -> Result:
    """``cli.main(argv)`` under ``layout``, given ``--out out`` unless
    ``out`` is None: what a user sees of it (``run.log``'s timestamps aside)
    and the processes it started."""
    if layout in BLAS_THREADS:
        return _in_fresh_interpreter(argv, BLAS_THREADS[layout], out)
    from densitydescent.cli import main
    stdout, stderr = io.StringIO(), io.StringIO()
    with installed(layout), started() as count, redirect_stdout(stdout), \
            redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)] if out is not None else list(argv))
    files = ({p.name: p.read_bytes() for p in sorted(Path(out).iterdir()) if p.name != "run.log"}
             if out is not None and Path(out).is_dir() else {})
    return Result(code, stdout.getvalue(), stderr.getvalue(), files, count[0])


def _in_fresh_interpreter(argv, threads, out) -> Result:
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, __file__, str(out or ""), *argv],
                          capture_output=True, env=env)
    assert done.returncode == 0, done.stderr.decode()
    return Result(*pickle.loads(done.stdout))


if __name__ == "__main__":
    out, *command = sys.argv[1:]
    pickle.dump(tuple(run(command, "cores2", out or None)), sys.stdout.buffer)
