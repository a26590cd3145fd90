"""Run one densitydescent CLI command in a fresh interpreter and report on it.

    python3 perfbench/op.py REPORT TRACE -- COMMAND [ARGS...]

Imports the package from the checkout's ``src/``, calls
``densitydescent.cli.main`` with the command line after ``--`` and writes
REPORT (JSON): the exit code, the seconds spent inside ``main``, the
captured stdout and stderr, the peak resident memory, and, with TRACE = 1,
the span aggregate of ``tracing.Tracer`` (every path with calls, inclusive
and self seconds, rows and computed flops) plus tape sizes by caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        print("usage: op.py REPORT TRACE -- COMMAND [ARGS...]", file=sys.stderr)
        return 2
    argv = sys.argv[4:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from densitydescent import cli

    entry, installed, tracer = cli.main, contextlib.nullcontext(), None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        installed = tracer.installed()
        entry = tracer.span("cli.main", cli.main)
    out, err = io.StringIO(), io.StringIO()
    code = None
    with installed, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = entry(argv)
        except Exception:  # reported to the benchmark, which fails the run
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    report = {
        "code": code,
        "seconds": seconds,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["paths"] = [[list(p), st.calls, st.total, st.self_time, st.rows, st.flops]
                           for p, st in tracer.paths.items()]
        report["tape_nodes"] = tracer.tape_nodes
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
