"""Forked workers on the other cores, for the two commands that split their
work: a run whose perturbation does not read the flow (``semisup.train_ssl``,
one worker through ``forked``) and ``verify``'s (flow, latent) pairs (up to
one worker per spare core through ``ordered``).

``multiprocessing`` is imported only once a command splits, so importing
the package, and every command that stays in one process, never pays for it.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager


def can_fork() -> bool:
    """Whether this process may fork one worker onto a second core: it has at
    least two usable cores, the host offers the ``fork`` start method, and
    this process is not daemonic (a ``multiprocessing.Pool`` worker may not
    start children). Decided by the host alone."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cores < 2:
        return False
    import multiprocessing
    return ("fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


@contextmanager
def forked(role: str, target, *args):
    """Run ``target(conn, *args)`` in one forked worker and yield a function
    that returns the worker's next message sent on ``conn``.

    A worker that exits without a message ends the wait with a
    ``RuntimeError`` naming its exit code. An exception that leaves the
    ``with`` block terminates the worker first; the worker is reaped either
    way.
    """
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    inbox, outbox = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=target, args=(outbox, *args), daemon=True)
    worker.start()
    outbox.close()   # the worker's end alone: its exit ends ``recv`` with EOFError

    def receive():
        try:
            return inbox.recv()
        except EOFError:
            worker.join()
            raise RuntimeError(f"the {role} worker exited with code "
                               f"{worker.exitcode} before it finished") from None

    try:
        yield receive
    except BaseException:
        worker.terminate()   # before closing the pipe, so no send of its fails
        raise
    finally:
        worker.join()
        inbox.close()


def ordered(fn, jobs):
    """Yield every item of each ``fn(job)`` in job order, as one process would.

    The jobs are dealt round-robin to this process and to one forked worker
    per further usable core, up to one process per job. This process runs
    its own jobs when the consumer reaches them; the workers send their
    items as they make them. ``fn`` should not print: a worker's writes miss
    a caller that captures stdout in memory (pytest's ``capsys``,
    ``perfbench/op.py``). An exception raised in ``fn(job)`` is raised here
    after the items made before it, and a worker that exits early raises
    ``forked``'s ``RuntimeError``; every worker is reaped either way. With
    one job, or where ``can_fork`` fails, every job runs here.
    """
    jobs = list(jobs)
    if len(jobs) < 2 or not can_fork():
        for job in jobs:
            yield from fn(job)
        return
    n = min(len(os.sched_getaffinity(0)), len(jobs))
    with ExitStack() as stack:
        workers = [stack.enter_context(forked("fan-out", _serve, fn, jobs[i::n]))
                   for i in range(1, n)]
        for i, job in enumerate(jobs):
            if i % n == 0:
                yield from fn(job)
                continue
            while (msg := workers[i % n - 1]())[0] == "item":
                yield msg[1]
            if msg[0] == "error":
                raise msg[1]


def _serve(conn, fn, jobs) -> None:
    """A worker of ``ordered``: each item of each ``fn(job)`` as it comes and
    an end mark after each job, up to the exception that stops one."""
    try:
        for job in jobs:
            for item in fn(job):
                conn.send(("item", item))
            conn.send(("end", None))
    except Exception as e:
        conn.send(("error", e))
