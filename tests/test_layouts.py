"""Every command gives the same bytes under every process layout.

Each row of ``ROWS`` is one command on one branch of the layout decision.
Each (row, layout) pair is one test: the row's exit code, stdout, stderr and
output files (``run.log`` aside) under the layout (``layouts.run``) equal its
run on one usable core, and it starts the processes the row writes for that
layout. The counts are written by hand, not derived from ``semisup._splits``
or ``worker.ordered``: the check is not a copy of the code it checks. The
BLAS layouts, a fresh interpreter each, take only the shipped shapes."""

import json
import multiprocessing
from dataclasses import dataclass
from typing import Callable

import pytest

import layouts
from densitydescent.perturb import KINDS
from densitydescent.worker import usable_cores
from layouts import deadline  # noqa: F401  (a fixture)
from recipe import CONFIG, shipped_config, small_doc


def train(seeds=None, **sections):
    def argv(tmp):
        return ["train-ssl", "--config", small_doc(tmp, **sections),
                *(["--seeds", seeds] if seeds else [])]
    return argv


def ablate(tmp):
    sweep = tmp / "sweep.json"
    sweep.write_text(json.dumps({"kinds": list(KINDS), "lambda_ft": [0.0, 1.0],
                                 "seeds": [0, 1]}))
    return ["ablate", "--config", small_doc(tmp, ssl={"epochs": 2}), "--sweep", str(sweep)]


def fit_density(tmp):
    return ["fit-density", "--config",
            small_doc(tmp, fit={"steps": 20, "batch": 64, "grid": True, "grid_resolution": 4})]


def verify(*dims):
    def argv(tmp):
        return ["verify", "--config",
                small_doc(tmp, verify={"dims": list(dims), "mc_samples": 20_000})]
    return argv


def verify_checkpoint(tmp):
    fit = layouts.run(fit_density(tmp), "cores1", tmp / "fit")
    assert fit.code == 0, fit.stderr
    return ["verify", "--config", small_doc(tmp, name="verify.json", verify={
        "checkpoint": str(tmp / "fit" / "checkpoint.npz"), "mc_samples": 20_000})]


@dataclass(frozen=True)
class Row:
    argv: Callable   # the command line, its inputs written under the given directory
    code: int        # its exit code
    started: dict    # layout -> the processes the run starts under it
    marks: tuple = ()
    stderr: str = ""  # the start of its stderr


def each(cores1, cores2, cores4, no_fork):
    """A row's process counts under the in-process layouts."""
    return dict(zip(layouts.IN_PROCESS, (cores1, cores2, cores4, no_fork)))


LAMBDA0 = {"ssl": {"lambda_ft": 0.0}}
OVERFLOWS = (pytest.mark.filterwarnings("ignore::RuntimeWarning"),)

ROWS = {
    # a lone run splits where it can fork onto a second core, unless its
    # perturbation reads the flow or it takes no flow step
    "lambda0": Row(train(**LAMBDA0), 0, each(0, 1, 1, 0)),
    # its perturbation starts in epoch 1, so one iteration waits for the flow
    "uniform-noise": Row(train(perturb={"kind": "uniform-noise"}, ssl={"ft_start_epoch": 1}),
                         0, each(0, 1, 1, 0)),
    "density-descending": Row(train(), 0, each(0, 0, 0, 0)),
    "lambda0-two-seeds": Row(train("0,1", **LAMBDA0), 0, each(0, 0, 0, 0)),
    "lambda0-late-warm-start": Row(train(flow_train={"warm_start_epoch": 4}, **LAMBDA0), 0,
                                   each(0, 0, 0, 0)),
    # the split worker's student loss overflows before any flow step; the
    # caller's flow loss overflows on huge features
    "student-abort": Row(train(flow_train={"warm_start_epoch": 2},
                               ssl={"epochs": 4, "lambda_ft": 0.0, "lr": 1e250}), 3,
                         each(0, 1, 1, 0), OVERFLOWS, "numeric abort: non-finite training loss"),
    "flow-abort": Row(train(ssl={"epochs": 4, "lambda_ft": 0.0, "lr": 1e200}), 3,
                      each(0, 1, 1, 0), OVERFLOWS, "numeric abort: non-finite flow loss"),
    "ablate": Row(ablate, 0, each(0, 0, 0, 0)),
    "fit-density": Row(fit_density, 0, each(0, 0, 0, 0)),
    # one pair per process at most, the caller's included
    "verify-2-8": Row(verify(2, 8), 0, each(0, 1, 3, 0)),
    "verify-2": Row(verify(2), 0, each(0, 1, 1, 0)),
    "verify-2-4-8": Row(verify(2, 4, 8), 0, each(0, 1, 3, 0)),
    "verify-checkpoint": Row(verify_checkpoint, 0, each(0, 0, 0, 0)),
    # the shipped shapes; verify fails its known normalization(d=2) check
    "shipped-fit-density": Row(lambda tmp: ["fit-density", "--config", shipped_config(
        tmp, "moons_density.json", "fit.json", fit={"steps": 300})], 0,
        {"cores1": 0, "blas1": 0, "blas2": 0}),
    "shipped-train-ssl": Row(lambda tmp: ["train-ssl", "--config", shipped_config(
        tmp, "moons_ssl.json", "ssl.json", ssl={"epochs": 3}), "--seeds", "0,1"], 0,
        {"cores1": 0, "blas1": 0, "blas2": 0}),
    "shipped-verify": Row(lambda tmp: ["verify", "--config", CONFIG], 1,
                          {"cores1": 0, "blas1": 1, "blas2": 1}),
}

CAN_FORK = "fork" in multiprocessing.get_all_start_methods()
NEEDS_FORK = pytest.mark.skipif(not CAN_FORK, reason="needs the fork start method")
SKIPS = {"cores2": NEEDS_FORK, "cores4": NEEDS_FORK, "blas1": NEEDS_FORK,
         "blas2": pytest.mark.skipif(not CAN_FORK or usable_cores() < 2,
                                     reason="a second BLAS thread needs a second core")}


@pytest.fixture(scope="module")
def one_core(tmp_path_factory):
    """Each row's directory, command line and result on one usable core,
    made once."""
    made = {}

    def of(name):
        if name not in made:
            tmp = tmp_path_factory.mktemp(name)
            argv = ROWS[name].argv(tmp)
            made[name] = tmp, argv, layouts.run(argv, "cores1", out_dir(argv, tmp, "cores1"))
        return made[name]
    return of


def out_dir(argv, tmp, layout):
    return None if argv[0] == "verify" else tmp / layout


@pytest.mark.parametrize("name, layout", [
    pytest.param(name, layout, id=f"{name}-{layout}",
                 marks=(*row.marks, *([SKIPS[layout]] if layout in SKIPS else [])))
    for name, row in ROWS.items() for layout in row.started])
def test_every_layout_gives_the_one_core_bytes(name, layout, one_core, deadline):
    row = ROWS[name]
    tmp, argv, expected = one_core(name)
    assert expected.code == row.code and expected.stderr.startswith(row.stderr), expected.stderr
    result = (expected if layout == "cores1"
              else layouts.run(argv, layout, out_dir(argv, tmp, layout)))
    assert result.started == row.started[layout]
    assert result[:4] == expected[:4]
    assert multiprocessing.active_children() == []
