"""The allocator setting made at package import keeps the flow step's fresh
(rows, hidden) arrays from being page-faulted in anew on every step. The
counts cover the calling process and its forked workers."""

import os
import platform
import subprocess
import sys

import pytest

from recipe import shipped_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Runs one command through ``cli.main`` in a fresh interpreter and prints
# the minor page faults taken during it, the calling process's and its
# finished workers' together.
PROBE = """
import contextlib, resource, sys
from densitydescent import cli

def faults():
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

before = faults()
with contextlib.redirect_stdout(sys.stderr):
    code = cli.main(sys.argv[1:])
print(code, faults() - before)
"""


def minor_faults(*argv):
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    code, faults = map(int, out.stdout.split())
    assert code == 0, out.stderr
    return faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the setting is made only under glibc's malloc")
def test_fresh_kernel_arrays_take_few_page_faults(tmp_path):
    # Measured on a 2-core Linux machine (glibc 2.36). With the setting,
    # 300 fit-density steps take about 0.5k minor faults and the 60-epoch
    # train-ssl, its student loop in a forked worker, about 2.6k, most of
    # them the fork's. Each bound is a tenth of the count with glibc's
    # defaults: 58k and 65k. Those defaults adapt the mmap threshold to
    # earlier frees, so the default count depends on the process's
    # allocation history: 58k to 97k for the fit, but 2.5k to 65k for the
    # train-ssl, which alone does not always catch a missing setting.
    fit = shipped_config(tmp_path, "moons_density.json", "fit.json", fit={"steps": 300})
    ssl = shipped_config(tmp_path, "moons_ssl.json", "ssl.json",
                 ssl={"epochs": 60, "lambda_ft": 0.0})
    assert minor_faults("fit-density", "--config", fit,
                        "--out", str(tmp_path / "fit")) < 5_800
    assert minor_faults("train-ssl", "--config", ssl,
                        "--out", str(tmp_path / "ssl")) < 6_500
