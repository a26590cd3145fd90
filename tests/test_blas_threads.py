"""The BLAS thread count does not change the bytes: three commands on the
shipped configs' shapes, each run in a fresh interpreter with
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` at 1 and at 2 (set before
numpy loads), print the same stdout and write the same files, ``run.log``
(wall-clock timestamps) aside. A process pool over runs would pin one BLAS
thread per worker; this is what makes that safe for the recorded bytes."""

import os
import subprocess
import sys

import pytest

from recipe import CONFIG, shipped_config

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
pytestmark = pytest.mark.skipif(CORES < 2, reason="a second BLAS thread needs a second core")


def run(threads, *argv):
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, "-m", "densitydescent.cli", *argv],
                          capture_output=True, env=env)
    assert "Traceback" not in done.stderr.decode(), done.stderr.decode()
    return done.returncode, done.stdout


def outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run.log"}


@pytest.mark.parametrize("command", ["fit-density", "train-ssl", "verify"])
def test_one_and_two_blas_threads_give_the_same_bytes(command, tmp_path):
    argv = {
        "fit-density": ["--config", shipped_config(tmp_path, "moons_density.json",
                                                   "fit.json", fit={"steps": 300})],
        "train-ssl": ["--config", shipped_config(tmp_path, "moons_ssl.json", "ssl.json",
                                                 ssl={"epochs": 3}),
                      "--seeds", "0,1"],
        "verify": ["--config", CONFIG],
    }[command]
    results = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        extra = [] if command == "verify" else ["--out", str(out)]
        code, stdout = run(threads, command, *argv, *extra)
        assert code in (0, 1)   # verify fails its known normalization check
        results.append((code, stdout, outputs(out) if extra else {}))
    assert results[0] == results[1]
    if command != "verify":
        assert len(results[0][2]) >= 3   # config.json and the run's outputs
