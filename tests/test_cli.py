import json
import multiprocessing

import numpy as np
import pytest

import layouts
from densitydescent import semisup
from densitydescent.cli import main
from densitydescent.flow import load_checkpoint
from densitydescent.latent import marginal_loglik
from densitydescent.oracle import grid_density_dump
from densitydescent.perturb import KINDS
from recipe import CONFIG, small_doc


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
    return small_doc(tmp_path)


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
        assert np.isfinite(marginal_loglik(np.zeros((1, 2)), model, latent).data[0])

    def test_grid_csv_output(self, small_fit_config, tmp_path):
        # a header and one row per cell of repr() values, each ended by \r\n,
        # the values those the checkpoint's model gives on the default grid
        out = tmp_path / "run"
        assert main(["fit-density", "--config", small_fit_config,
                     "--out", str(out)]) == 0
        lines = (out / "grid.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"x,y,logp" and lines[-1] == b""
        dump = grid_density_dump(*load_checkpoint(out / "checkpoint.npz"),
                                 ((-8.0, 8.0), (-8.0, 8.0)), 4)
        assert lines[1:-1] == [f"{x!r},{y!r},{logp!r}".encode() for x, y, logp in
                               zip(dump.x.tolist(), dump.y.tolist(), dump.logp.tolist())]

    def test_all_labeled_dataset(self, tmp_path):
        # labeled_per_class -1 labels the whole train pool, so every pool the
        # fit draws has an empty unlabeled side
        spec = semisup.DataSpec(n=200, labeled_per_class=-1, seed=5)
        assert len(semisup.make_dataset(spec).unlabeled_idx) == 0
        cfg = write_json(tmp_path / "c.json", {
            "seed": 5, "dataset": {"n": 200, "labeled_per_class": -1},
            "flow": {"hidden": 16},
            "fit": {"steps": 40, "batch": 64, "grid": True, "grid_resolution": 4}})
        out = tmp_path / "run"
        assert main(["fit-density", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "loss.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 40
        assert all(np.isfinite(float(row.split(",")[1])) for row in rows)
        grid = (out / "grid.csv").read_text().strip().splitlines()
        assert grid[0] == "x,y,logp" and len(grid) == 17

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


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_not_finite_is_numeric_abort(self, tmp_path, capsys):
        # bounds this wide overflow the flow: grid.csv used to hold NaN in
        # every logp row, after a numpy RuntimeWarning, and the run exited 0
        cfg = write_json(tmp_path / "c.json", {
            "flow": {"hidden": 8},
            "fit": {"steps": 3, "batch": 8, "grid": True,
                    "grid_bounds": [-1e300, 1e300], "grid_resolution": 2}})
        out = tmp_path / "run"
        assert main(["fit-density", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "fit.grid_bounds" in err and "Traceback" not in err
        assert not (out / "grid.csv").exists()


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
        # a seed's run does not depend on the seeds run before it
        alone = tmp_path / "alone"
        assert main(["train-ssl", "--config", small_ssl_config,
                     "--out", str(alone), "--seeds", "1"]) == 0
        assert ((out / "metrics_seed1.csv").read_bytes()
                == (alone / "metrics_seed1.csv").read_bytes())

    def test_metrics_reproducible(self, small_ssl_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train-ssl", "--config", small_ssl_config, "--out", str(out1)])
        main(["train-ssl", "--config", small_ssl_config, "--out", str(out2)])
        assert ((out1 / "metrics_seed0.csv").read_bytes()
                == (out2 / "metrics_seed0.csv").read_bytes())

    def test_lambda_zero_runs_differ_only_in_branch(self, tmp_path):
        # same seed, lambda_ft=0: perturbation kind must not matter
        cfg_dd = small_doc(tmp_path, "dd.json", seed=1, ssl={"lambda_ft": 0.0})
        cfg_un = small_doc(tmp_path, "un.json", seed=1, ssl={"lambda_ft": 0.0},
                           perturb={"kind": "uniform-noise"})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["train-ssl", "--config", cfg_dd, "--out", str(out1)])
        main(["train-ssl", "--config", cfg_un, "--out", str(out2)])
        assert ((out1 / "metrics_seed1.csv").read_bytes()
                == (out2 / "metrics_seed1.csv").read_bytes())


def record_runs(monkeypatch) -> list:
    """(kind, eps, seed, per-epoch rows) of every ``train_ssl`` call."""
    runs = []
    train = semisup.train_ssl

    def recorded(cfg, ds, **kw):
        result = train(cfg, ds, **kw)
        runs.append((cfg.perturb.kind, cfg.perturb.eps, cfg.seed, result.rows))
        return result

    monkeypatch.setattr(semisup, "train_ssl", recorded)
    return runs


class TestAblate:
    def test_eps_grid_rows(self, tmp_path, monkeypatch):
        # each cell's per-epoch rows are those of the train-ssl run of its eps
        # and seed. On the shipped config at 3 epochs with tau 0.6 (as the
        # golden metrics) pseudo labels pass, so eps moves the rows; on
        # small_ssl_config none passes at seed 0
        with open(CONFIG) as fh:
            doc = json.load(fh)
        doc["ssl"].update(epochs=3, tau=0.6)
        config = write_json(tmp_path / "tau.json", doc)
        grid = [0.1, 0.25, 0.5, 1.0, 2.0]
        sweep = write_json(tmp_path / "sweep.json", {"eps": grid, "seeds": [0, 1]})
        runs = record_runs(monkeypatch)
        out = tmp_path / "run"
        assert main(["ablate", "--config", config, "--sweep", sweep,
                     "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "kind,eps,lambda_ft,seed,test_acc"
        assert len(lines) == 1 + 5 * 2
        ablate_runs, runs[:] = runs[:], []
        for eps in grid:
            doc["perturb"]["eps"] = eps
            run = tmp_path / f"eps{eps}"
            assert main(["train-ssl", "--config", write_json(tmp_path / f"{eps}.json", doc),
                         "--out", str(run), "--seeds", "0,1"]) == 0
        assert ablate_runs == runs and len(runs) == 10
        assert len({json.dumps(rows) for *_, rows in runs}) == 10

    def test_cells_equal_train_ssl_runs(self, small_ssl_config, tmp_path, monkeypatch):
        # each cell is the train-ssl run of its kind and seed: the same
        # test_acc on file, and the same per-epoch metrics in memory. A
        # uniform-noise cell reads no flow and trains none, so its rows have
        # every column but L_flow
        runs = record_runs(monkeypatch)
        kinds = ["uniform-noise", "density-descending"]
        sweep = write_json(tmp_path / "sweep.json", {"kinds": kinds, "seeds": [0, 1]})
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", small_ssl_config, "--sweep", sweep,
                     "--out", str(out)]) == 0
        cells = [(r[0], r[3], float(r[4])) for r in
                 (line.split(",") for line in
                  (out / "sweep.csv").read_text().splitlines()[1:])]
        ablate_runs, runs[:] = runs[:], []
        with open(small_ssl_config) as fh:
            doc = json.load(fh)
        accs = []
        for kind in kinds:
            doc["perturb"] = {"kind": kind}
            cfg, run = write_json(tmp_path / f"{kind}.json", doc), tmp_path / kind
            assert main(["train-ssl", "--config", cfg, "--out", str(run),
                         "--seeds", "0,1"]) == 0
            summary = json.loads((run / "summary.json").read_text())["accuracies"]
            accs += [(kind, s, summary[s]) for s in ("0", "1")]
        assert cells == accs
        assert len(runs) == 4
        assert [run[:3] for run in ablate_runs] == [run[:3] for run in runs]
        for (kind, *_, cell), (*_, own) in zip(ablate_runs, runs):
            if kind == "density-descending":
                assert cell == own
            else:
                assert all("L_flow" not in row for row in cell)
                assert cell == [{c: v for c, v in row.items() if c != "L_flow"}
                                for row in own]

    def test_unknown_sweep_key(self, small_ssl_config, tmp_path):
        sweep = write_json(tmp_path / "sweep.json", {"epsilon": [1.0]})
        assert main(["ablate", "--config", small_ssl_config, "--sweep", sweep,
                     "--out", str(tmp_path / "x")]) == 2


class TestVerify:
    def test_identity_and_randomized_flows_pass(self, tmp_path):
        cfg = small_doc(tmp_path, verify={"dims": [2, 4], "mc_samples": 60_000})
        assert main(["verify", "--config", cfg]) == 0

    def test_checks_the_kernel_not_the_tape(self, tmp_path, capsys, monkeypatch):
        # verify checks the code that training and inference run
        def tape(*args, **kwargs):
            raise AssertionError("tape forward called")

        for module in ("flow", "latent", "cli", "oracle"):
            for name in ("flow_forward", "marginal_loglik"):
                monkeypatch.setattr(f"densitydescent.{module}.{name}", tape,
                                    raising=False)
        monkeypatch.setattr("densitydescent.diffcore.grad", tape)
        cfg = small_doc(tmp_path, verify={"dims": [2, 4], "mc_samples": 20_000})
        assert main(["verify", "--config", cfg]) == 0
        assert "verify: 14/14 checks passed" in capsys.readouterr().out

    def test_verify_loaded_checkpoint(self, small_fit_config, tmp_path):
        out = tmp_path / "fitrun"
        main(["fit-density", "--config", small_fit_config, "--out", str(out)])
        cfg = small_doc(tmp_path, verify={"checkpoint": str(out / "checkpoint.npz"),
                                          "mc_samples": 60_000})
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
        cfg = small_doc(tmp_path, flow_train={"lr": 1e200}, ssl={"epochs": 4})
        assert main(["train-ssl", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("kind", [None, *KINDS],
                         ids=["train-ssl-lambda0", *[f"train-ssl-{kind}" for kind in KINDS]])
def test_no_command_starts_more_processes_than_usable_cores(kind, tmp_path):
    # a train-ssl of two runs, at lambda_ft 0 (kind None) or of any kind,
    # keeps each flow in its run's process on 4 usable cores too
    cfg = small_doc(tmp_path, perturb={"kind": kind or "density-descending"},
                    ssl={"epochs": 2, "lambda_ft": 0.0 if kind is None else 1.0})
    result = layouts.run(["train-ssl", "--config", cfg, "--seeds", "0,1"], "cores4",
                         tmp_path / "run")
    assert (result.code, result.started, multiprocessing.active_children()) == (0, 0, []), \
        result.stderr


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
        # a deleted key: every value of it is rejected, as an unknown key
        ("flow", "components", "3"),
        ("flow", "components", 0),
        ("flow", "blocks", 0),
        ("flow", "hidden", 0),
        ("flow", "s_max", 0),
        ("ssl", "feature_dim", 3),
        ("ssl", "sigma_weak", -1.0),
        ("ssl", "lr", 0),
        ("ssl", "sgd_momentum", 1.0),
        ("ssl", "poly_power", -1),
        ("flow_train", "beta1", 1.0),
        ("flow_train", "beta2", 1.0),
        ("flow_train", "adam_eps", 0),
        ("flow_train", "decay_gamma", 0),
        # 1e155 ** 2 overflows, at the second of the two default decay fractions
        ("flow_train", "decay_gamma", 1e155),
        ("ssl", "tau", 1.0),
        ("ssl", "lambda_ft", -0.1),
        ("ssl", "ema_momentum", 1.5),
        ("ssl", "drop_prob", 1.0),
        ("ssl", "epochs", 0),
        ("ssl", "batch_labeled", 0),
        ("ssl", "batch_unlabeled", 0),
        ("flow_train", "sample_budget", 63),
        ("flow_train", "warm_start_epoch", 0),
        ("flow_train", "lr", 0),
        ("flow_train", "updates_per_iteration", 0),
        ("perturb", "kind", "foo"),
        ("perturb", "eps", 0),
        ("perturb", "dropout_rate", 1.0),
        ("perturb", "vat_xi", 0),
        ("perturb", "vat_power_iters", 0),
        ("dataset", "kind", "foo"),
        ("dataset", "n", 5),
        ("dataset", "test_fraction", 1.0),
        ("dataset", "labeled_per_class", 0),
        ("dataset", "classes", 5),
        ("dataset", "noise", -0.1),
    ])
    def test_bad_value_is_config_error(self, section, key, value, tmp_path, capsys):
        doc = {
            "dataset": {"n": 200, "noise": 0.1},
            "flow": {"hidden": 16},
            "fit": {"steps": 5, "batch": 64, "grid": True},
        }
        doc.setdefault(section, {})[key] = value
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

    @staticmethod
    def one_config_error(capsys):
        """The single ``config error:`` line on stderr, and stdout."""
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        return err[0], captured.out

    @pytest.mark.parametrize("key,value", [("mc_samples", 0), ("dims", []), ("dims", [3])])
    def test_bad_verify_value_fails_before_any_check(self, key, value, tmp_path,
                                                     capsys):
        cfg = write_json(tmp_path / "v.json", {
            "flow": {"hidden": 16}, "verify": {key: value}})
        assert main(["verify", "--config", cfg]) == 2
        err, out = self.one_config_error(capsys)
        assert f"verify.{key}" in err
        assert "PASS" not in out and "FAIL" not in out

    @pytest.mark.parametrize("sweep", [
        {"eps": ["x"]},
        {"lambda_ft": [0.5, None]},
        {"seeds": [0, 1.5]},
        {"kinds": ["density-descending", 3]},
        {"kinds": ["density-descending", "bogus"]},
        {"eps": [0.5, -1.0]},
        {"seeds": [0, 0]},
        {"kinds": ["vat-lite", "vat-lite"], "seeds": [0]},
        {"eps": [0.25, 0.25]},
        {"lambda_ft": [1, 1.0]},
    ], ids=["eps-text", "lambda-null", "seed-float", "kind-number", "kind-unknown",
            "eps-negative", "seed-repeated", "kind-repeated", "eps-repeated",
            "lambda-repeated"])
    def test_bad_sweep_fails_before_any_cell_trains(self, sweep, small_ssl_config,
                                                    tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr("densitydescent.semisup.train_ssl",
                            lambda *a, **k: trained.append(a))
        path = write_json(tmp_path / "sweep.json", sweep)
        out = tmp_path / "run"
        assert main(["ablate", "--config", small_ssl_config, "--sweep", path,
                     "--out", str(out)]) == 2
        err, _ = self.one_config_error(capsys)
        assert not trained
        assert not (out / "sweep.csv").exists()
        repeated = [key for key, values in sweep.items()
                    if len(set(values)) < len(values)]
        if repeated:   # rejected when the sweep file is read
            assert f"sweep key {repeated[0]!r}" in err and "distinct" in err
            assert not out.exists()

    def test_repeated_seeds_option(self, small_ssl_config, tmp_path, capsys,
                                   monkeypatch):
        # seed 0 used to train twice, and summary.json to list it twice while
        # its mean_accuracy averaged the two distinct accuracies
        trained = []
        monkeypatch.setattr("densitydescent.semisup.train_ssl",
                            lambda *a, **k: trained.append(a))
        out = tmp_path / "run"
        assert main(["train-ssl", "--config", small_ssl_config, "--out", str(out),
                     "--seeds", "0,1,0"]) == 2
        err, _ = self.one_config_error(capsys)
        assert "--seeds" in err and "distinct" in err
        assert not trained and not out.exists()

    # 60 rows per class: 0.008 of them rounds to no test row
    @pytest.mark.parametrize("fraction", [0.0, 0.008])
    @pytest.mark.parametrize("command", ["train-ssl", "ablate"])
    def test_empty_test_split_rejected(self, command, fraction, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "seed": 1,
            "dataset": {"n": 120, "noise": 0.1, "test_fraction": fraction},
            "ssl": {"epochs": 2, "batch_unlabeled": 32},
            "flow": {"hidden": 16},
            "flow_train": {"sample_budget": 64, "warm_start_epoch": 1}})
        sweep = write_json(tmp_path / "sweep.json", {"seeds": [0]})
        out = tmp_path / "run"
        argv = [command, "--config", cfg, "--out", str(out)]
        if command == "ablate":
            argv += ["--sweep", sweep]
        assert main(argv) == 2
        err, _ = self.one_config_error(capsys)
        assert "dataset.test_fraction" in err
        assert not out.exists()

    def test_fit_density_accepts_an_empty_test_split(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {
            "dataset": {"n": 120, "noise": 0.1, "test_fraction": 0.0},
            "flow": {"hidden": 16}, "fit": {"steps": 2, "batch": 64}})
        assert main(["fit-density", "--config", cfg, "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("command", ["fit-density", "train-ssl", "ablate", "verify"])
    def test_flow_components_is_an_unknown_key(self, command, tmp_path, capsys):
        # the latent has one component per dataset class; the key that set
        # another count is gone, so a document naming it fails like any typo
        cfg = write_json(tmp_path / "c.json", {
            "dataset": {"n": 120, "noise": 0.1}, "flow": {"components": 2}})
        sweep = write_json(tmp_path / "sweep.json", {"seeds": [0]})
        out = tmp_path / "run"
        argv = {"fit-density": ["--out", str(out)], "train-ssl": ["--out", str(out)],
                "ablate": ["--out", str(out), "--sweep", sweep], "verify": []}[command]
        assert main([command, "--config", cfg, *argv]) == 2
        err, stdout = self.one_config_error(capsys)
        assert err == "config error: unknown config key 'flow.components'"
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command,option,unreadable", [
        (command, "--config", unreadable)
        for command in ("fit-density", "train-ssl", "ablate", "verify")
        for unreadable in ("directory", "not-utf8")
    ] + [("ablate", "--sweep", unreadable) for unreadable in ("directory", "not-utf8")] + [
        (command, "--out", "file") for command in ("fit-density", "train-ssl", "ablate")
    ])
    def test_unreadable_input_is_a_config_error(self, command, option, unreadable,
                                                small_ssl_config, tmp_path, capsys):
        # each used to end in a traceback: IsADirectoryError, UnicodeDecodeError,
        # or FileExistsError from making --out
        path = tmp_path / "input"
        if unreadable == "directory":
            path.mkdir()
        elif unreadable == "not-utf8":
            path.write_bytes(b"\xff\xfe{}")
        else:
            path.write_text("")
        files = {"--config": small_ssl_config,
                 "--sweep": write_json(tmp_path / "sweep.json", {"seeds": [0]}),
                 "--out": str(tmp_path / "run"), option: str(path)}
        argv = [command, "--config", files["--config"]]
        if command != "verify":
            argv += ["--out", files["--out"]]
        if command == "ablate":
            argv += ["--sweep", files["--sweep"]]
        assert main(argv) == 2
        err, stdout = self.one_config_error(capsys)
        assert str(path) in err
        assert stdout == "" and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train-ssl", "ablate"])
    def test_a_later_seed_s_dataset_draw_fails_before_any_output(
            self, command, tmp_path, capsys, monkeypatch):
        # nine blob centers fit at run seeds 0-2, not at 3: seeds 0-2 used to
        # train and write their metrics, then seed 3 exited 2 with no summary
        trained = []
        monkeypatch.setattr("densitydescent.semisup.train_ssl",
                            lambda *a, **k: trained.append(a))
        cfg = write_json(tmp_path / "c.json", {
            "dataset": {"kind": "blobs", "n": 400, "classes": 9, "noise": 0.1},
            "ssl": {"epochs": 1}, "flow": {"hidden": 8},
            "flow_train": {"sample_budget": 64, "warm_start_epoch": 1}})
        sweep = write_json(tmp_path / "sweep.json", {"seeds": [0, 1, 2, 3]})
        out = tmp_path / "run"
        argv = {"train-ssl": ["--seeds", "0,1,2,3"], "ablate": ["--sweep", sweep]}[command]
        assert main([command, "--config", cfg, "--out", str(out), *argv]) == 2
        err, _ = self.one_config_error(capsys)
        assert "could not place 9 separated centers" in err
        assert not trained and not out.exists()

    @pytest.mark.parametrize("command", ["fit-density", "train-ssl", "ablate", "verify"])
    def test_a_class_without_train_rows_fails_before_any_output(self, command, tmp_path,
                                                                capsys):
        # 5 rows per class, all 5 test rows: fit-density used to end in a
        # traceback and train-ssl to exit 2 after writing config.json
        cfg = write_json(tmp_path / "c.json", {
            "dataset": {"n": 10, "labeled_per_class": -1, "test_fraction": 0.95}})
        sweep = write_json(tmp_path / "sweep.json", {"seeds": [0]})
        out = tmp_path / "run"
        argv = {"fit-density": ["--out", str(out)], "train-ssl": ["--out", str(out)],
                "ablate": ["--out", str(out), "--sweep", sweep], "verify": []}[command]
        assert main([command, "--config", cfg, *argv]) == 2
        err, stdout = self.one_config_error(capsys)
        assert err == ("config error: dataset.test_fraction: 0.95 leaves class 0 no "
                       "train rows, and every class needs one")
        assert stdout == "" and not out.exists()


def _checkpoint_arrays(tmp_path):
    """The entries of a small, valid checkpoint file."""
    from densitydescent.flow import init_flow, save_checkpoint
    from densitydescent.latent import init_latent
    path = tmp_path / "good.npz"
    save_checkpoint(path, init_flow(2, 2, 8, seed=0), init_latent(2, 2, seed=1))
    with np.load(path) as z:
        return {key: z[key] for key in z.files}


def _without(key):
    def corrupt(arrays):
        del arrays[key]
        return arrays
    return corrupt


def _reshaped(key, shape):
    def corrupt(arrays):
        arrays[key] = np.zeros(shape)
        return arrays
    return corrupt


def _meta(reshaped=(), **changes):
    """Changes to the stored sizes, with entries reshaped to match them."""
    def corrupt(arrays):
        meta = json.loads(str(arrays["__meta__"]))
        meta.update(changes)
        arrays["__meta__"] = np.array(json.dumps(meta))
        for key, shape in reshaped:
            arrays[key] = np.zeros(shape)
        return arrays
    return corrupt


class TestBadRunInputsRejected:
    """More inputs that exit 2 with one ``config error:`` line before any work."""

    one_config_error = staticmethod(TestConfigRejectedBeforeWork.one_config_error)

    @pytest.mark.parametrize("key", ["hidden", "feature_dim"])
    def test_zero_ssl_width(self, key, small_ssl_config, tmp_path, capsys):
        self.assert_train_ssl_rejects("ssl", key, 0, small_ssl_config, tmp_path, capsys)

    @pytest.mark.parametrize("section,key,value", [
        ("flow", "blocks", 0),
        ("flow", "hidden", 0),
        ("flow", "s_max", 0),
        ("ssl", "feature_dim", 3),
        ("dataset", "classes", 5),
    ])
    def test_bad_flow_shape_or_class_count(self, section, key, value, small_ssl_config,
                                           tmp_path, capsys):
        # these used to fail in init_flow, or to train 2 classes, after
        # config.json was written
        self.assert_train_ssl_rejects(section, key, value, small_ssl_config, tmp_path,
                                      capsys)

    @pytest.mark.parametrize("rate,channels", [(0.2, 0), (0.75, 2)])
    def test_channel_dropout_rate_dropping_none_or_all(self, rate, channels,
                                                       small_ssl_config, tmp_path,
                                                       capsys):
        # at feature_dim 2 these drop no channel or both, and used to train
        with open(small_ssl_config) as fh:
            doc = json.load(fh)
        doc["perturb"] = {"kind": "channel-dropout", "dropout_rate": rate}
        cfg = write_json(tmp_path / "c.json", doc)
        out = tmp_path / "run"
        assert main(["train-ssl", "--config", cfg, "--out", str(out)]) == 2
        err, _ = self.one_config_error(capsys)
        assert "perturb.dropout_rate" in err and "ssl.feature_dim" in err
        assert f"= {channels} channels" in err
        assert not out.exists()

    def test_sweep_to_channel_dropout_with_degenerate_rate(self, small_ssl_config,
                                                          tmp_path, capsys,
                                                          monkeypatch):
        # the base kind ignores the rate; the sweep's channel-dropout cell
        # must fail before the first cell trains
        trained = []
        monkeypatch.setattr("densitydescent.semisup.train_ssl",
                            lambda *a, **k: trained.append(a))
        with open(small_ssl_config) as fh:
            doc = json.load(fh)
        doc["perturb"] = {"dropout_rate": 0.2}
        cfg = write_json(tmp_path / "c.json", doc)
        sweep = write_json(tmp_path / "sweep.json",
                           {"kinds": ["density-descending", "channel-dropout"]})
        out = tmp_path / "run"
        assert main(["ablate", "--config", cfg, "--sweep", sweep,
                     "--out", str(out)]) == 2
        err, _ = self.one_config_error(capsys)
        assert "perturb.dropout_rate" in err and "= 0 channels" in err
        assert not trained
        assert not (out / "sweep.csv").exists()

    def assert_train_ssl_rejects(self, section, key, value, small_ssl_config,
                                 tmp_path, capsys):
        with open(small_ssl_config) as fh:
            doc = json.load(fh)
        doc.setdefault(section, {})[key] = value
        cfg = write_json(tmp_path / "c.json", doc)
        out = tmp_path / "run"
        assert main(["train-ssl", "--config", cfg, "--out", str(out)]) == 2
        err, _ = self.one_config_error(capsys)
        assert f"{section}.{key}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,section,key,value", [
        ("fit-density", "flow", "hidden", 10**15),
        ("train-ssl", "ssl", "hidden", 10**15),
        ("train-ssl", "ssl", "feature_dim", 10**15),
        ("verify", "verify", "dims", [2, 10**15]),
        ("fit-density", "fit", "grid_resolution", 10**15),
        ("fit-density", "dataset", "n", 10**15),
        ("fit-density", "flow", "blocks", 10**15),
        ("train-ssl", "flow_train", "updates_per_iteration", 10**15),
    ])
    def test_size_above_its_cap(self, command, section, key, value, small_ssl_config,
                                tmp_path, capsys):
        # without a cap these parse, and numpy fails with a traceback only
        # when it allocates, after config.json is written
        with open(small_ssl_config) as fh:
            doc = json.load(fh)
        doc.setdefault(section, {})[key] = value
        cfg = write_json(tmp_path / "c.json", doc)
        out = tmp_path / "run"
        argv = [command, "--config", cfg]
        if command != "verify":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        err, stdout = self.one_config_error(capsys)
        assert f"{section}.{key}" in err
        assert "PASS" not in stdout and not out.exists()

    @pytest.mark.parametrize("command", ["train-ssl", "fit-density", "verify"])
    def test_negative_config_seed(self, command, small_ssl_config, tmp_path, capsys):
        # np.random.SeedSequence rejects it with a traceback, after
        # config.json was written
        with open(small_ssl_config) as fh:
            doc = json.load(fh)
        doc["seed"] = -1
        cfg = write_json(tmp_path / "c.json", doc)
        out = tmp_path / "run"
        argv = [command, "--config", cfg]
        if command != "verify":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        err, stdout = self.one_config_error(capsys)
        assert "seed must be >= 0" in err
        assert "PASS" not in stdout and not out.exists()

    def test_negative_seeds_option(self, small_ssl_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train-ssl", "--config", small_ssl_config, "--out", str(out),
                     "--seeds", "0,-1"]) == 2
        err, _ = self.one_config_error(capsys)
        assert "--seeds" in err and "-1" in err
        assert not out.exists()

    def test_negative_sweep_seed(self, small_ssl_config, tmp_path, capsys):
        sweep = write_json(tmp_path / "s.json", {"seeds": [0, -2]})
        out = tmp_path / "run"
        assert main(["ablate", "--config", small_ssl_config, "--sweep", sweep,
                     "--out", str(out)]) == 2
        err, _ = self.one_config_error(capsys)
        assert "seeds" in err and "-2" in err
        assert not out.exists()

    def test_bad_seeds_option(self, small_ssl_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train-ssl", "--config", small_ssl_config, "--out", str(out),
                     "--seeds", "1,x"]) == 2
        err, _ = self.one_config_error(capsys)
        assert "--seeds" in err
        assert not out.exists()

    @pytest.mark.parametrize("section,key,text", [
        ("ssl", "lambda_ft", "NaN"),
        ("ssl", "lr", "NaN"),
        ("perturb", "eps", "Infinity"),
        ("flow_train", "lr", "Infinity"),
        ("dataset", "noise", "-Infinity"),
    ])
    def test_non_finite_float(self, section, key, text, small_ssl_config,
                              tmp_path, capsys):
        # Python's json reads these words; a NaN lambda_ft would otherwise
        # switch the feature loss off without a word
        with open(small_ssl_config) as fh:
            doc = json.load(fh)
        doc.setdefault(section, {})[key] = "@"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc).replace('"@"', text))
        out = tmp_path / "run"
        assert main(["train-ssl", "--config", str(path), "--out", str(out)]) == 2
        err, _ = self.one_config_error(capsys)
        assert f"{section}.{key}" in err and text in err
        assert not out.exists()

    def test_non_finite_sweep_value(self, small_ssl_config, tmp_path, capsys):
        sweep = tmp_path / "s.json"
        sweep.write_text('{"eps": [0.25, NaN]}')
        out = tmp_path / "run"
        assert main(["ablate", "--config", small_ssl_config, "--sweep", str(sweep),
                     "--out", str(out)]) == 2
        err, _ = self.one_config_error(capsys)
        assert "eps" in err and "NaN" in err
        assert not out.exists()

    @pytest.mark.parametrize("corrupt", [
        _without("__meta__"),
        _without("block1_w2"),
        _without("latent_log_weights"),
        _reshaped("block0_w1", (2, 8)),
        _reshaped("block1_b2", (3,)),
        _reshaped("latent_means", (2, 4)),
    ], ids=["no-meta", "no-block-key", "no-latent-key", "w1-shape", "b2-shape",
            "latent-shape"])
    def test_bad_checkpoint_archive(self, corrupt, tmp_path, capsys):
        path = tmp_path / "bad.npz"
        np.savez(path, **corrupt(_checkpoint_arrays(tmp_path)))
        self.assert_verify_rejects(path, tmp_path, capsys)

    @pytest.mark.parametrize("corrupt", [
        _meta(n_blocks=0),
        _meta(d=3, reshaped=[("block0_w2", (8, 3)), ("block0_b2", (3,)),
                             ("block1_w2", (8, 3)), ("block1_b2", (3,)),
                             ("latent_means", (2, 3))]),
        _meta(s_max=-1.0),
        _meta(s_max=float("nan")),
        _meta(seed=-1),
    ], ids=["no-blocks", "odd-d", "negative-s_max", "nan-s_max", "negative-seed"])
    def test_checkpoint_sizes_init_flow_rejects(self, corrupt, tmp_path, capsys):
        # each used to load: no blocks gave a TypeError traceback, an odd d a
        # matmul ValueError after a PASS line, and s_max -1 passed verify
        path = tmp_path / "bad.npz"
        np.savez(path, **corrupt(_checkpoint_arrays(tmp_path)))
        self.assert_verify_rejects(path, tmp_path, capsys)

    @pytest.mark.parametrize("kind", ["text", "npy", "empty"])
    def test_checkpoint_not_an_npz_file(self, kind, tmp_path, capsys):
        path = tmp_path / "bad.npz"
        if kind == "text":
            path.write_text("not a checkpoint\n")
        elif kind == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            path.write_bytes(b"")
        self.assert_verify_rejects(path, tmp_path, capsys)

    def assert_verify_rejects(self, checkpoint, tmp_path, capsys):
        cfg = write_json(tmp_path / "v.json", {"verify": {"checkpoint": str(checkpoint)}})
        assert main(["verify", "--config", cfg]) == 2
        err, out = self.one_config_error(capsys)
        assert str(checkpoint) in err
        assert "PASS" not in out and "FAIL" not in out

    def test_valid_checkpoint_round_trips(self, tmp_path):
        path = tmp_path / "ok.npz"
        np.savez(path, **_checkpoint_arrays(tmp_path))
        model, latent = load_checkpoint(path)
        assert model.d == 2 and model.hidden == 8 and len(model.blocks) == 2
        assert latent.means.shape == (2, 2)
