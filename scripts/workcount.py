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

Each counted call also goes to one layer: that of the innermost layer
function on the stack when it was made (``LAYERS``), or ``rest`` if none is.

A second pass runs each workload afresh under ``tracemalloc``, without the
profile hook, so that the hook's own allocations do not count, and prints
the peak of the memory that Python and numpy traced while it ran. The peak
is not exact across runs, and it is no stand-in for the process's RSS.

Workloads, each printed with its count, iterations, flow steps and traced
peak, then its calls per layer:
- ``dd``: the shipped ``configs/moons_ssl.json`` at seed 0;
- ``lambda0``: the same at ``lambda_ft`` 0, its flow stepped in this process
  (``worker.can_fork`` refused, as the hook sees this process alone);
- ``fit-density``: the 2500-step fit of ``configs/moons_density.json``.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np

import densitydescent
from densitydescent import worker
from densitydescent.data import make_dataset
from densitydescent.estimator import (FeaturePool, FlowTrainer, fit_density,
                                      flow_train_step, pool_indices)
from densitydescent.flow import init_flow
from densitydescent.latent import init_latent
from densitydescent.perturb import generate_perturbation
from densitydescent.runconfig import load_config
from densitydescent.semisup import (dataset_for_run, derived_seeds, ema_update, evaluate,
                                    student_step, train_ssl)

PACKAGE = os.path.dirname(os.path.abspath(densitydescent.__file__)) + os.sep
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

# layer -> the functions whose frames, and those they call, make its calls
LAYERS = {
    "flow_step": (FlowTrainer.step, flow_train_step),
    "student_step": (student_step,),
    "perturbation": (generate_perturbation,),
    "pool_draws": (pool_indices,),
    "ema": (ema_update,),
    "eval": (evaluate,),
}
LAYER_OF = {fn.__code__: layer for layer, fns in LAYERS.items() for fn in fns}


def count_calls(job):
    """Run ``job``, a call of no arguments; return the calls made from the
    package's frames while it ran, by layer (``rest`` last), the calls of
    ``student_step`` (the iterations) and ``job``'s result."""
    counts = dict.fromkeys([*LAYERS, "rest"], 0)
    iterations = 0
    # (frame, layer) of each open layer function, innermost last
    stack = [(None, "rest")]

    def hook(frame, event, arg):
        nonlocal iterations
        if event == "return":
            if frame is stack[-1][0]:
                stack.pop()
            return
        if event == "call":
            caller = frame.f_back
        elif event == "c_call":
            caller = frame
        else:
            return
        if caller is not None and caller.f_code.co_filename.startswith(PACKAGE):
            counts[stack[-1][1]] += 1
        if event == "call" and frame.f_code in LAYER_OF:
            stack.append((frame, LAYER_OF[frame.f_code]))
            iterations += frame.f_code is student_step.__code__

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = job()
    finally:
        sys.setprofile(previous)
    return counts, iterations, result


def traced_peak(job) -> int:
    """Run ``job``, a call of no arguments, under ``tracemalloc`` and no
    profile hook; return the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        job()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ssl_job(config_path: str, seed: int = 0, **ssl_keys):
    """A call that runs one ``train-ssl`` seed of the config, with some
    ``ssl`` fields replaced, all in this process, and returns its flow steps."""
    cfg = load_config(config_path)
    run = replace(cfg.ssl, seed=seed, **ssl_keys)
    ds = dataset_for_run(cfg.dataset, seed)

    def job():
        with mock.patch.object(worker, "can_fork", lambda: False):
            return train_ssl(run, ds).flow_steps
    return job


def density_job(config_path: str):
    """A call that runs the fit that ``fit-density`` runs on the config and
    returns its flow steps."""
    cfg = load_config(config_path)
    ds = make_dataset(cfg.dataset)
    dim = ds.x.shape[1]
    s_flow, s_latent, s_fit = derived_seeds(cfg.seed, 3)
    model = init_flow(dim, cfg.flow.blocks, cfg.flow.hidden, cfg.flow.s_max, s_flow)
    latent = init_latent(ds.n_classes, dim, s_latent)
    data = FeaturePool(labeled=ds.x[ds.labeled_idx], labels=ds.y[ds.labeled_idx],
                       unlabeled=ds.x[ds.unlabeled_idx])
    return lambda: len(fit_density(data, model, latent, cfg.flow_train, cfg.fit.steps,
                                   cfg.fit.batch, np.random.default_rng(s_fit)))


SSL_CONFIG = os.path.join(CONFIGS, "moons_ssl.json")
# name -> a fresh job of the workload: each pass runs its own
WORKLOADS = {
    "dd": lambda: ssl_job(SSL_CONFIG),
    "lambda0": lambda: ssl_job(SSL_CONFIG, lambda_ft=0.0),
    "fit-density": lambda: density_job(os.path.join(CONFIGS, "moons_density.json")),
}


def main() -> int:
    for name, workload in WORKLOADS.items():
        calls, iterations, flow_steps = count_calls(workload())
        iterations = iterations or flow_steps   # a fit's iterations are its flow steps
        total = sum(calls.values())
        peak = traced_peak(workload())
        print(f"{name}: calls={total} iterations={iterations} flow_steps={flow_steps} "
              f"calls_per_iteration={total / iterations:.1f} "
              f"traced_peak_mb={peak / 2**20:.2f}")
        print("  " + " ".join(f"{layer}={n}" for layer, n in calls.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
