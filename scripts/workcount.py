"""Count the work of three fixed workloads as Python-level calls.

    PYTHONPATH=src python scripts/workcount.py

Each workload runs in this process with a ``sys.setprofile`` hook that counts
the ``call`` and ``c_call`` events whose calling frame lies in the package's
own source: that of the ``densitydescent`` Python imports, ``src/`` under the
command above. Calls made inside numpy do not count, so the number does not
depend on numpy's Python wrappers. The count is exact: the same checkout and
workload give the same number on every run.

``c_call`` does not fire for ufuncs or arithmetic operators, so the count
measures Python-level dispatch, not arithmetic; it cannot see a BLAS or
SIMD change. It is a second measure beside paired timings of the benchmark,
not a replacement for them.

Workloads, each printed with its count, iterations and flow steps:
- ``dd``: the shipped ``configs/moons_ssl.json`` at seed 0;
- ``lambda0``: the same at ``lambda_ft`` 0, its flow stepped in this process;
- ``fit-density``: the 2500-step fit of ``configs/moons_density.json``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import numpy as np

import densitydescent
from densitydescent.data import make_dataset
from densitydescent.estimator import fit_density
from densitydescent.flow import init_flow
from densitydescent.latent import init_latent
from densitydescent.runconfig import load_config
from densitydescent.semisup import (dataset_for_run, derived_seeds, student_step,
                                    train_ssl)

PACKAGE = os.path.dirname(os.path.abspath(densitydescent.__file__)) + os.sep
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def count_calls(fn, *args, **kwargs):
    """Run ``fn``; return the calls made from the package's frames while it
    ran, the calls of ``student_step`` (the iterations) and ``fn``'s result."""
    counts = {"calls": 0, "student_step": 0}

    def hook(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if frame.f_code is student_step.__code__:
                counts["student_step"] += 1
        elif event == "c_call":
            caller = frame
        else:
            return
        if caller is not None and caller.f_code.co_filename.startswith(PACKAGE):
            counts["calls"] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return counts["calls"], counts["student_step"], result


def ssl_work(config_path: str, seed: int = 0, **ssl_keys) -> tuple[int, int, int]:
    """(calls, iterations, flow steps) of one ``train-ssl`` seed of the
    config, with some ``ssl`` fields replaced, all in this process."""
    cfg = load_config(config_path)
    run = replace(cfg.ssl, seed=seed, **ssl_keys)
    ds = dataset_for_run(cfg.dataset, seed)
    calls, iterations, result = count_calls(train_ssl, run, ds, may_split=False)
    return calls, iterations, result.flow_steps


def density_work(config_path: str) -> tuple[int, int, int]:
    """(calls, iterations, flow steps) of the fit that ``fit-density`` runs
    on the config; each iteration is one flow step."""
    cfg = load_config(config_path)
    ds = make_dataset(cfg.dataset)
    dim = ds.x.shape[1]
    s_flow, s_latent, s_fit = derived_seeds(cfg.seed, 3)
    model = init_flow(dim, cfg.flow.blocks, cfg.flow.hidden, cfg.flow.s_max, s_flow)
    latent = init_latent(ds.n_classes, dim, s_latent)
    calls, _, history = count_calls(
        fit_density, ds.x[ds.labeled_idx], ds.y[ds.labeled_idx], ds.x[ds.unlabeled_idx],
        model, latent, cfg.flow_train, cfg.fit.steps, cfg.fit.batch,
        np.random.default_rng(s_fit))
    return calls, len(history), len(history)


WORKLOADS = {
    "dd": lambda: ssl_work(os.path.join(CONFIGS, "moons_ssl.json")),
    "lambda0": lambda: ssl_work(os.path.join(CONFIGS, "moons_ssl.json"), lambda_ft=0.0),
    "fit-density": lambda: density_work(os.path.join(CONFIGS, "moons_density.json")),
}


def main() -> int:
    for name, work in WORKLOADS.items():
        calls, iterations, flow_steps = work()
        print(f"{name}: calls={calls} iterations={iterations} flow_steps={flow_steps} "
              f"calls_per_iteration={calls / iterations:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
