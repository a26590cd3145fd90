"""``scripts/workcount.py`` counts work exactly: the same run twice gives the
same number of calls in every layer. The test sets no budget on the count."""

import importlib.util
import os

from recipe import small_doc

WORKCOUNT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "scripts", "workcount.py")


def test_same_run_counts_the_same_calls(tmp_path):
    spec = importlib.util.spec_from_file_location("workcount", WORKCOUNT)
    workcount = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workcount)
    # the flow steps from epoch 1, the perturbation reads it from epoch 2
    path = small_doc(tmp_path, ssl={"epochs": 2})
    first, second = workcount.ssl_work(path), workcount.ssl_work(path)
    calls, iterations, flow_steps = first
    assert list(calls) == [*workcount.LAYERS, "rest"]
    # the EMA is ufunc arithmetic, which fires no c_call event
    assert all(n > 0 for layer, n in calls.items() if layer != "ema"), calls
    assert iterations > 0 and flow_steps > 0
    assert second == first
