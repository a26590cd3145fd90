"""Generators run in forked workers on the other cores (``streamed``): the
loop of a lone ``semisup.train_ssl`` run that splits, and ``verify``'s
(flow, latent) pairs through ``ordered``. ``multiprocessing`` is imported
only once a command splits, so importing the package, and every command
that stays in one process, never pays for it.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, closing


class WorkerLost(RuntimeError):
    """A forked worker exited before it finished its stream."""


def usable_cores() -> int:
    """The cores this process may run on: its affinity set, or 1 where the
    host does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def can_fork() -> bool:
    """Whether this process may fork one worker onto a second core: it has at
    least two usable cores, the host offers the ``fork`` start method, and
    this process is not daemonic (a ``multiprocessing.Pool`` worker may not
    start children). Decided by the host alone."""
    if usable_cores() < 2:
        return False
    import multiprocessing
    return ("fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


def streamed(gen_fn, *args):
    """Run the generator ``gen_fn(*args)`` in one forked worker, started now,
    and return a generator that yields its items as the worker sends them
    and returns its return value. An exception raised in ``gen_fn`` is
    raised here after the items sent before it, and a worker that exits
    early raises ``WorkerLost`` naming its exit code. Closing the stream
    before its end terminates the worker; it is reaped either way.
    """
    stream = _received(gen_fn, args)
    next(stream)   # fork now, so that the worker runs while the caller goes on
    return stream


def _received(gen_fn, args):
    # the one pipe protocol: ("item", x) per item, then ("done", value) or
    # ("error", exception)
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    inbox, outbox = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_serve, args=(outbox, gen_fn, args), daemon=True)
    worker.start()
    outbox.close()   # the worker's end alone: its exit ends ``recv`` with EOFError
    try:
        yield
        while True:
            try:
                kind, value = inbox.recv()
            except EOFError:
                worker.join()
                raise WorkerLost(f"a forked worker exited with code {worker.exitcode} "
                                 f"before it finished") from None
            if kind == "error":
                raise value
            if kind == "done":
                return value
            yield value
    except BaseException:   # an error, or the stream closed before its end
        worker.terminate()   # before closing the pipe, so that no send of its fails
        raise
    finally:
        worker.join()
        inbox.close()


def _serve(conn, gen_fn, args) -> None:
    """A ``streamed`` worker: each item of ``gen_fn(*args)`` as it comes, then
    its return value or the exception that stopped it."""
    try:
        items = gen_fn(*args)
        while True:
            conn.send(("item", next(items)))
    except StopIteration as end:
        conn.send(("done", end.value))
    except Exception as e:
        conn.send(("error", e))


class _End:
    """The mark after each job of an ``ordered`` stream (unpickled as itself)."""


def _by_job(fn, jobs):
    """An ``ordered`` stream: each ``fn(job)``'s items, then ``_End``."""
    for job in jobs:
        yield from fn(job)
        yield _End


def ordered(fn, jobs):
    """Yield every item of each ``fn(job)`` in job order, as one process would.

    The jobs are dealt round-robin to n streams of ``_by_job``, n being the
    usable cores up to one per job: the first runs here, each of its jobs
    when the consumer reaches it, and each other one in a ``streamed``
    worker. With one job, or where ``can_fork`` fails, n is 1 and every job
    runs here. ``fn`` should not print: a worker's writes miss a caller that
    captures stdout in memory (pytest's ``capsys``, ``perfbench/op.py``).
    Errors and lost workers surface as in ``streamed``, after the items
    before them; every worker is reaped.
    """
    jobs = list(jobs)
    n = min(usable_cores(), len(jobs)) if len(jobs) > 1 and can_fork() else 1
    with ExitStack() as stack:
        streams = [_by_job(fn, jobs[::n])] + [
            stack.enter_context(closing(streamed(_by_job, fn, jobs[i::n])))
            for i in range(1, n)]
        for i in range(len(jobs)):
            for item in streams[i % n]:
                if item is _End:
                    break
                yield item
