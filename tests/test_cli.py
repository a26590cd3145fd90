import json
import os

import numpy as np
import pytest

from densitydescent.cli import main
from densitydescent.flow import load_checkpoint
from densitydescent.latent import marginal_loglik


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture
def small_fit_config(tmp_path):
    return write_json(tmp_path / "fit.json", {
        "seed": 3,
        "dataset": {"n": 200, "noise": 0.1, "test_fraction": 0.3},
        "flow": {"hidden": 16},
        "fit": {"steps": 40, "batch": 64, "grid": True, "grid_resolution": 4},
    })


@pytest.fixture
def small_ssl_config(tmp_path):
    return write_json(tmp_path / "ssl.json", {
        "seed": 0,
        "dataset": {"n": 120, "noise": 0.1, "test_fraction": 0.25},
        "flow": {"hidden": 16},
        "flow_train": {"sample_budget": 64, "warm_start_epoch": 1},
        "ssl": {"epochs": 3, "batch_unlabeled": 32, "hidden": 16,
                "feature_dim": 2},
    })


class TestFitDensity:
    def test_outputs_and_checkpoint(self, small_fit_config, tmp_path):
        out = tmp_path / "run"
        assert main(["fit-density", "--config", small_fit_config,
                     "--out", str(out)]) == 0
        assert (out / "config.json").exists()
        assert (out / "run.log").exists()
        lines = (out / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,flow_loss,lr"
        assert len(lines) == 41
        grid = (out / "grid.csv").read_text().strip().splitlines()
        assert grid[0] == "x,y,logp" and len(grid) == 17
        model, latent = load_checkpoint(out / "checkpoint.npz")
        assert model.d == 2 and latent.n_components == 2
        assert np.isfinite(marginal_loglik(np.zeros(2), model, latent).data)

    def test_reproducible_byte_for_byte(self, small_fit_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["fit-density", "--config", small_fit_config, "--out", str(out1)])
        main(["fit-density", "--config", small_fit_config, "--out", str(out2)])
        assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()
        assert (out1 / "config.json").read_bytes() == (out2 / "config.json").read_bytes()

    def test_config_echo_reparses_to_same_run(self, small_fit_config, tmp_path):
        out1 = tmp_path / "r1"
        main(["fit-density", "--config", small_fit_config, "--out", str(out1)])
        out2 = tmp_path / "r2"
        main(["fit-density", "--config", str(out1 / "config.json"),
              "--out", str(out2)])
        assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()


class TestTrainSsl:
    def test_multi_seed_run(self, small_ssl_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train-ssl", "--config", small_ssl_config,
                     "--out", str(out), "--seeds", "0,1"]) == 0
        assert (out / "metrics_seed0.csv").exists()
        assert (out / "metrics_seed1.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["accuracies"]) == {"0", "1"}
        assert summary["config"]["ssl"]["epochs"] == 3
        header = (out / "metrics_seed0.csv").read_text().splitlines()[0]
        assert header == "epoch,L_sup,L_im,L_ft,L_flow,pseudo_retention,test_acc"

    def test_metrics_reproducible(self, small_ssl_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train-ssl", "--config", small_ssl_config, "--out", str(out1)])
        main(["train-ssl", "--config", small_ssl_config, "--out", str(out2)])
        assert ((out1 / "metrics_seed0.csv").read_bytes()
                == (out2 / "metrics_seed0.csv").read_bytes())

    def test_lambda_zero_runs_differ_only_in_branch(self, tmp_path):
        # same seed, lambda_ft=0: perturbation kind must not matter
        base = {
            "seed": 1,
            "dataset": {"n": 120, "noise": 0.1, "test_fraction": 0.25},
            "flow": {"hidden": 16},
            "flow_train": {"sample_budget": 64, "warm_start_epoch": 1},
            "ssl": {"epochs": 3, "batch_unlabeled": 32, "hidden": 16,
                    "feature_dim": 2, "lambda_ft": 0.0},
        }
        cfg_dd = write_json(tmp_path / "dd.json", base)
        base2 = json.loads(json.dumps(base))
        base2["perturb"] = {"kind": "uniform-noise"}
        cfg_un = write_json(tmp_path / "un.json", base2)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["train-ssl", "--config", cfg_dd, "--out", str(out1)])
        main(["train-ssl", "--config", cfg_un, "--out", str(out2)])
        assert ((out1 / "metrics_seed1.csv").read_bytes()
                == (out2 / "metrics_seed1.csv").read_bytes())


class TestAblate:
    def test_eps_grid_rows(self, small_ssl_config, tmp_path):
        sweep = write_json(tmp_path / "sweep.json",
                           {"eps": [0.1, 0.25, 0.5, 1.0, 2.0], "seeds": [0, 1]})
        out = tmp_path / "run"
        assert main(["ablate", "--config", small_ssl_config, "--sweep", sweep,
                     "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "kind,eps,lambda_ft,seed,test_acc"
        assert len(lines) == 1 + 5 * 2

    def test_unknown_sweep_key(self, small_ssl_config, tmp_path):
        sweep = write_json(tmp_path / "sweep.json", {"epsilon": [1.0]})
        assert main(["ablate", "--config", small_ssl_config, "--sweep", sweep,
                     "--out", str(tmp_path / "x")]) == 2


class TestVerify:
    def test_identity_and_randomized_flows_pass(self, tmp_path):
        cfg = write_json(tmp_path / "v.json", {
            "flow": {"hidden": 16},
            "verify": {"dims": [2, 4], "mc_samples": 60_000},
        })
        assert main(["verify", "--config", cfg]) == 0

    def test_verify_loaded_checkpoint(self, small_fit_config, tmp_path):
        out = tmp_path / "fitrun"
        main(["fit-density", "--config", small_fit_config, "--out", str(out)])
        cfg = write_json(tmp_path / "v.json", {
            "flow": {"hidden": 16},
            "verify": {"checkpoint": str(out / "checkpoint.npz"),
                       "mc_samples": 60_000},
        })
        assert main(["verify", "--config", cfg]) == 0


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"learning_rate": 0.1})
        assert main(["verify", "--config", cfg]) == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": ,}')
        assert main(["verify", "--config", str(path)]) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_exit_code(self, tmp_path):
        # an absurd flow learning rate overflows the conditioner shift, so
        # the flow loss goes non-finite and the run must abort with code 3
        cfg = write_json(tmp_path / "c.json", {
            "dataset": {"n": 120, "noise": 0.1, "test_fraction": 0.25},
            "flow": {"hidden": 16},
            "flow_train": {"lr": 1e200, "sample_budget": 64,
                           "warm_start_epoch": 1},
            "ssl": {"epochs": 4, "batch_unlabeled": 32, "hidden": 16,
                    "feature_dim": 2},
        })
        assert main(["train-ssl", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3


def test_out_root_env_override(small_fit_config, tmp_path, monkeypatch):
    root = tmp_path / "root"
    monkeypatch.setenv("DENSITYDESCENT_OUT_ROOT", str(root))
    assert main(["fit-density", "--config", small_fit_config,
                 "--out", "nested/run"]) == 0
    assert (root / "nested" / "run" / "loss.csv").exists()


class TestConfigRejectedBeforeWork:
    """Bad values exit 2 with one ``config error:`` line and write nothing."""

    @pytest.mark.parametrize("section,key,value", [
        ("fit", "steps", 0),
        ("fit", "batch", 63),
        ("fit", "grid_resolution", 0),
        ("flow", "components", "3"),
    ])
    def test_bad_value_is_config_error(self, section, key, value, tmp_path, capsys):
        doc = {
            "dataset": {"n": 200, "noise": 0.1},
            "flow": {"hidden": 16},
            "fit": {"steps": 5, "batch": 64, "grid": True},
        }
        doc[section][key] = value
        cfg = write_json(tmp_path / "c.json", doc)
        out = tmp_path / "run"
        assert main(["fit-density", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert f"{section}.{key}" in err[0]
        assert not out.exists()

    def test_missing_checkpoint_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "v.json", {
            "verify": {"checkpoint": str(tmp_path / "missing.npz")},
        })
        assert main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "PASS" not in captured.out
