"""``scripts/workcount.py`` counts work exactly: the same run twice gives the
same number of calls in every layer. The tests set no budget on the count."""

import importlib.util
import os

import pytest

from recipe import small_doc

WORKCOUNT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "scripts", "workcount.py")


@pytest.fixture(scope="module")
def workcount():
    spec = importlib.util.spec_from_file_location("workcount", WORKCOUNT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counted_twice(workcount, job, *args, **kwargs):
    """The (calls by layer, iterations, flow steps) of a fresh
    ``job(*args, **kwargs)``, which must count the same twice."""
    first, second = (workcount.count_calls(job(*args, **kwargs)) for _ in range(2))
    calls, _, flow_steps = first
    assert list(calls) == [*workcount.LAYERS, "rest"]
    assert flow_steps > 0
    assert second == first
    return first


def test_same_run_counts_the_same_calls(workcount, tmp_path):
    # the flow steps from epoch 1, the perturbation reads it from epoch 2
    path = small_doc(tmp_path, ssl={"epochs": 2})
    calls, iterations, _ = counted_twice(workcount, workcount.ssl_job, path)
    assert iterations > 0
    # the EMA is ufunc arithmetic, which fires no c_call event
    assert all(n > 0 for layer, n in calls.items() if layer != "ema"), calls


def test_lambda0_run_counts_its_student_steps_in_this_process(workcount, tmp_path):
    # a loop that split onto a forked worker would take its student steps
    # out of the count
    path = small_doc(tmp_path, ssl={"epochs": 2})
    calls, iterations, _ = counted_twice(workcount, workcount.ssl_job, path, lambda_ft=0.0)
    assert iterations > 0
    assert calls["student_step"] > 0 and calls["flow_step"] > 0, calls
    assert calls["perturbation"] == 0


def test_density_fit_counts_the_same_calls(workcount, tmp_path):
    path = small_doc(tmp_path, fit={"steps": 20, "batch": 64})
    calls, iterations, flow_steps = counted_twice(workcount, workcount.density_job, path)
    assert (iterations, flow_steps) == (0, 20)
    assert calls["flow_step"] > 0 and calls["pool_draws"] > 0, calls
    assert calls["student_step"] == 0
