"""One forked worker on a second core, for the two commands that split their
work in two: a run whose perturbation does not read the flow
(``semisup.train_ssl``) and ``verify``'s (flow, latent) pairs.

``multiprocessing`` is imported only once a command splits, so importing
the package, and every command that stays in one process, never pays for it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


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
