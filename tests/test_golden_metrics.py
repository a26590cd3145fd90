"""Recorded ``train-ssl`` metrics: a change to the training arithmetic shows
up as a byte difference.

The golden files are ``metrics_seed0.csv`` of a 3-epoch run of the shipped
two-moons config, with the feature loss off and with each perturbation kind.
``tau`` is 0.6 instead of 0.95: at 0.95 no pseudo label passes in 3 epochs,
so the image and feature terms would be zero and all five files equal.
"""

import json
import os

import pytest

from densitydescent.cli import main
from densitydescent.perturb import KINDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

CASES = {"lambda0": ({"lambda_ft": 0.0}, {})}
CASES.update({kind: ({}, {"kind": kind}) for kind in KINDS})


@pytest.mark.parametrize("name", sorted(CASES))
def test_metrics_match_golden(name, tmp_path):
    with open(os.path.join(ROOT, "configs", "moons_ssl.json")) as fh:
        doc = json.load(fh)
    ssl, perturb = CASES[name]
    doc["ssl"].update({"epochs": 3, "tau": 0.6, **ssl})
    doc["perturb"].update(perturb)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["train-ssl", "--config", str(cfg), "--out", str(out),
                 "--seeds", "0"]) == 0
    with open(os.path.join(GOLDEN, f"ssl3_{name}.metrics_seed0.csv"), "rb") as fh:
        assert (out / "metrics_seed0.csv").read_bytes() == fh.read()
