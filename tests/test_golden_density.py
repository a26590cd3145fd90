"""Recorded density-path outputs: a change to the flow kernel's arithmetic
shows up as a byte difference.

Two short runs of the shipped configs are pinned:

- ``fit-density`` on ``configs/moons_density.json`` with 50 steps and a 16x16
  grid: ``loss.csv``, ``grid.csv`` and the ``fit-density done`` line byte for
  byte, and every checkpoint entry with ``np.array_equal``;
- ``verify`` on ``configs/moons_ssl.json`` with hidden width 64, dims
  [2, 8] and 20k Monte-Carlo samples: its stdout byte for byte.
"""

import json
import os

import numpy as np

from densitydescent.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")


def _config(tmp_path, name, changes):
    with open(os.path.join(ROOT, "configs", name)) as fh:
        doc = json.load(fh)
    for section, values in changes.items():
        doc.setdefault(section, {}).update(values)
    path = tmp_path / f"golden_{name}"
    path.write_text(json.dumps(doc))
    return str(path)


def fit_config(tmp_path):
    return _config(tmp_path, "moons_density.json",
                   {"fit": {"steps": 50, "grid_resolution": 16}})


def verify_config(tmp_path):
    return _config(tmp_path, "moons_ssl.json",
                   {"flow": {"hidden": 64},
                    "verify": {"dims": [2, 8], "mc_samples": 20_000}})


def _golden_bytes(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


def test_fit_density_matches_golden(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["fit-density", "--config", fit_config(tmp_path), "--out", str(out)]) == 0
    done = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("fit-density done")]
    assert (done[0] + "\n").encode() == _golden_bytes("fit50.done.txt")
    for name in ("loss.csv", "grid.csv"):
        assert (out / name).read_bytes() == _golden_bytes(f"fit50.{name}")
    with np.load(out / "checkpoint.npz") as got, \
            np.load(os.path.join(GOLDEN, "fit50.checkpoint.npz")) as want:
        assert sorted(got.files) == sorted(want.files)
        for key in want.files:
            assert np.array_equal(got[key], want[key]), key


def test_verify_stdout_matches_golden(tmp_path, capsys):
    code = main(["verify", "--config", verify_config(tmp_path)])
    golden = _golden_bytes("verify_h64.stdout.txt")
    assert capsys.readouterr().out.encode() == golden
    assert code == (1 if b"FAIL" in golden else 0)
