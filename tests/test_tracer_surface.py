"""What the benchmark's tracer (``perfbench/tracing.py``) reads of the package.

The tracer wraps each ``LAYERS`` entry by module attribute and computes the
flow step's flops from its arguments; ``perfbench/run.py`` reads the run
config through ``RunConfig.ssl_config``. A refactor that renames one of these,
or that steps the flow past ``estimator.flow_train_step``, breaks
``perfbench --trace 1`` without failing any other test. The tracer module is
loaded from its file, unchanged.
"""

import importlib
import importlib.util
import json
import os

import pytest

from densitydescent import cli, diffcore, estimator, semisup
from densitydescent.runconfig import load_config, parse_config
from recipe import small_doc

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    for mod_name, attr, _ in tracing.LAYERS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr}"
    assert isinstance(diffcore.Tape.__dict__["record"], classmethod)


def test_run_config_reads_as_the_benchmark_reads_it():
    cfg = parse_config({"ssl": {"epochs": 7}, "verify": {"dims": [2]}})
    assert cfg.ssl_config().epochs == 7
    assert cfg.fit.steps > 0 and cfg.verify.dims == (2,)


def flow_step_span(tracing, tracer, trainer):
    """The aggregate of the flow-step spans called by ``trainer``'s span."""
    return tracing.aggregate(tracer.paths, lambda p: (
        "step" if p[-2:] == (trainer, "estimator.flow_train_step") else None))["step"]


def test_every_fit_density_step_is_traced_with_its_flops(tracing, tmp_path):
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({
        "seed": 1, "dataset": {"n": 120, "noise": 0.1, "test_fraction": 0.25},
        "flow": {"hidden": 8}, "fit": {"steps": 12, "batch": 32, "grid": False}}))
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["fit-density", "--config", str(config), "--out", str(out)]) == 0
    assert not hasattr(estimator.fit_density, "__wrapped__")   # put back on exit
    assert tracing.aggregate(tracer.paths, tracing.layer_of)["estimator.fit_density"].calls == 1
    step = flow_step_span(tracing, tracer, "estimator.fit_density")
    assert step.calls == 12 == len((out / "loss.csv").read_text().splitlines()) - 1
    assert step.flops > 0


@pytest.mark.parametrize("lambda_ft", [1.0, 0.0], ids=["in-process", "split"])
def test_every_train_ssl_flow_step_is_traced_with_its_flops(lambda_ft, tracing, tmp_path):
    # at lambda_ft 0 the loop runs in a forked worker where the host can
    # fork, and the flow still steps in this process
    cfg = load_config(small_doc(tmp_path, flow={"hidden": 8},
                                flow_train={"sample_budget": 32},
                                ssl={"epochs": 2, "hidden": 8, "lambda_ft": lambda_ft}))
    ds = semisup.dataset_for_run(cfg.dataset, 0)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = semisup.train_ssl(cfg.ssl_config(), ds)
    step = flow_step_span(tracing, tracer, "semisup.train_ssl")
    assert step.calls == result.flow_steps > 0
    assert step.flops > 0
