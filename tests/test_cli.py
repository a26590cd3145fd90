import json
import math
import multiprocessing

import numpy as np
import pytest

import layouts
from densitydescent import semisup
from densitydescent.cli import main
from densitydescent.flow import load_checkpoint
from densitydescent.latent import marginal_loglik
from densitydescent.oracle import grid_density_dump
from densitydescent.perturb import KINDS, dropped_channels
from badinput import (COMMANDS, FIT_AND_TRAIN, Fault, archive, checkpoint, directory, each,
                      json_file, npy_file, rows, small, written)
from recipe import CONFIG, checkpoint_arrays, small_doc


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

    def test_sweep_without_seeds_runs_the_config_seed(self, tmp_path, capsys):
        # as train-ssl without --seeds does; the log names every axis it runs
        config = small_doc(tmp_path, seed=5, perturb={"kind": "uniform-noise"})
        sweep = write_json(tmp_path / "sweep.json", {"eps": [0.5]})
        out, run = tmp_path / "ablate", tmp_path / "run"
        assert main(["ablate", "--config", config, "--sweep", sweep, "--out", str(out)]) == 0
        assert "ablate: kinds=['uniform-noise'] eps=[0.5] lambda_ft=[1.0] seeds=[5]\n" in (
            capsys.readouterr().out)
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert main(["train-ssl", "--config", config, "--out", str(run)]) == 0
        accs = json.loads((run / "summary.json").read_text())["accuracies"]
        assert rows == [f"uniform-noise,0.5,1.0,5,{accs['5']!r}"]

    def test_unknown_sweep_key(self, tmp_path, monkeypatch, capsys):
        Fault("ablate", "unknown sweep key 'epsilon'",
              sweep=json_file({"epsilon": [1.0]})).check(tmp_path, monkeypatch, capsys)


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
    def test_unknown_key_is_config_error(self, tmp_path, monkeypatch, capsys):
        Fault("verify", "unknown config key 'learning_rate'",
              config=json_file({"learning_rate": 0.1})).check(tmp_path, monkeypatch, capsys)

    def test_malformed_json_is_config_error(self, tmp_path, monkeypatch, capsys):
        Fault("verify", "config.json: line 1, column 10: Expecting value",
              config=written(b'{"seed": ,}')).check(tmp_path, monkeypatch, capsys)

    def test_missing_file_is_config_error(self, tmp_path, monkeypatch, capsys):
        Fault("verify", "config file not found", config=str).check(tmp_path, monkeypatch,
                                                                   capsys)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_exit_code(self, tmp_path):
        # an absurd flow learning rate overflows the conditioner shift, so
        # the flow loss goes non-finite and the run must abort with code 3
        cfg = small_doc(tmp_path, flow_train={"lr": 1e200}, ssl={"epochs": 4})
        assert main(["train-ssl", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="a run splits only where it can fork")
@pytest.mark.parametrize("kind", [None, *KINDS],
                         ids=["train-ssl-lambda0", *[f"train-ssl-{kind}" for kind in KINDS]])
def test_no_command_starts_more_processes_than_usable_cores(kind, tmp_path, monkeypatch):
    # a train-ssl of two runs, at lambda_ft 0 (kind None) or of any kind, on
    # 4 usable cores: each run whose perturbation reads no flow starts one
    # worker, and reaps it before the next run starts its own
    alive = []
    start = multiprocessing.process.BaseProcess.start

    def recorded(process):
        alive.append(len(multiprocessing.active_children()))
        return start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recorded)
    cfg = small_doc(tmp_path, perturb={"kind": kind or "density-descending"},
                    ssl={"epochs": 2, "lambda_ft": 0.0 if kind is None else 1.0})
    result = layouts.run(["train-ssl", "--config", cfg, "--seeds", "0,1"], "cores4",
                         tmp_path / "run")
    splits = 0 if kind == "density-descending" else 2
    assert (result.code, result.started, multiprocessing.active_children()) == \
        (0, splits, []), result.stderr
    assert alive == [0] * splits


def test_out_root_env_override(small_fit_config, tmp_path, monkeypatch):
    root = tmp_path / "root"
    monkeypatch.setenv("DENSITYDESCENT_OUT_ROOT", str(root))
    assert main(["fit-density", "--config", small_fit_config,
                 "--out", "nested/run"]) == 0
    assert (root / "nested" / "run" / "loss.csv").exists()




# Every test below holds its rows to the one contract of ``badinput.rejected``:
# exit 2 before any work, nothing on stdout, one ``config error:`` line that
# holds the row's message, no --out directory and no run trained.

UNREADABLE = [("directory", directory, "Is a directory"),
              ("not-utf8", written(b"\xff\xfe{}"), "not UTF-8 text")]
# nine blob centers fit at run seeds 0-2, not at 3
BLOBS9 = small(dataset={"kind": "blobs", "n": 400, "classes": 9})
NO_CENTERS = "could not place 9 separated centers"
# keys the schema no longer has: a config that names one must fail, not be
# read as if the key were absent
DELETED_KEYS = {"flow.components", "ssl.sgd_momentum", "ssl.poly_power", "flow_train.beta1",
                "flow_train.beta2", "flow_train.adam_eps", "flow_train.decay_fractions",
                "flow_train.decay_gamma", "perturb.dropout_rate", "perturb.vat_xi",
                "perturb.vat_power_iters"}
ODD_D = {key: np.zeros(shape) for key, shape in [
    ("block0_w2", (8, 3)), ("block0_b2", (3,)), ("block1_w2", (8, 3)), ("block1_b2", (3,)),
    ("latent_means", (2, 3))]}


class TestConfigRejectedBeforeWork:
    @pytest.mark.parametrize("section,key,value", [
        ("fit", "steps", 0),
        ("fit", "batch", 63),
        ("fit", "grid_resolution", 0),
        # a deleted key: every value of it is rejected, as an unknown key
        ("flow", "components", "3"),
        ("flow", "components", 0),
        ("ssl", "sgd_momentum", 1.0),
        ("ssl", "poly_power", -1),
        ("flow_train", "beta1", 1.0),
        ("flow_train", "beta2", 1.0),
        ("flow_train", "adam_eps", 0),
        ("flow_train", "decay_fractions", [0.5]),
        ("flow_train", "decay_gamma", 0),
        ("perturb", "dropout_rate", 1.0),
        ("perturb", "vat_xi", 0),
        ("perturb", "vat_power_iters", 0),
        ("flow", "blocks", 0),
        ("flow", "hidden", 0),
        ("flow", "s_max", 0),
        ("ssl", "feature_dim", 3),
        ("ssl", "sigma_weak", -1.0),
        ("ssl", "lr", 0),
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
        ("dataset", "kind", "foo"),
        ("dataset", "n", 5),
        ("dataset", "test_fraction", 1.0),
        ("dataset", "labeled_per_class", 0),
        ("dataset", "classes", 5),
        ("dataset", "noise", -0.1),
    ])
    def test_bad_value_is_config_error(self, section, key, value, tmp_path, monkeypatch,
                                       capsys):
        path = f"{section}.{key}"
        Fault("fit-density", f"unknown config key {path!r}" if path in DELETED_KEYS else path,
              config=small(**{section: {key: value}})).check(tmp_path, monkeypatch, capsys)

    def test_missing_checkpoint_is_config_error(self, tmp_path, monkeypatch, capsys):
        checkpoint(lambda path: None, "checkpoint not found").check(tmp_path, monkeypatch,
                                                                    capsys)

    @pytest.mark.parametrize("key,value", [("mc_samples", 0), ("dims", []), ("dims", [3])])
    def test_bad_verify_value_fails_before_any_check(self, key, value, tmp_path,
                                                     monkeypatch, capsys):
        Fault("verify", f"verify.{key}",
              config=small(verify={key: value})).check(tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("sweep,message", [
        ({"eps": ["x"]}, "eps[0]: expected number, got 'x'"),
        ({"lambda_ft": [0.5, None]}, "lambda_ft[1]: expected number, got None"),
        ({"seeds": [0, 1.5]}, "seeds[1]: expected int, got 1.5"),
        ({"kinds": ["density-descending", 3]}, "kinds[1]: expected string, got 3"),
        ({"kinds": ["density-descending", "bogus"]}, "perturb.kind must be one of"),
        ({"eps": [0.5, -1.0]}, "perturb.eps must be > 0, got -1.0"),
        ({"seeds": [0, 0]}, "sweep key 'seeds' entries must be distinct"),
        ({"kinds": ["vat-lite", "vat-lite"], "seeds": [0]},
         "sweep key 'kinds' entries must be distinct"),
        ({"eps": [0.25, 0.25]}, "sweep key 'eps' entries must be distinct"),
        ({"lambda_ft": [1, 1.0]}, "sweep key 'lambda_ft' entries must be distinct"),
    ], ids=["eps-text", "lambda-null", "seed-float", "kind-number", "kind-unknown",
            "eps-negative", "seed-repeated", "kind-repeated", "eps-repeated",
            "lambda-repeated"])
    def test_bad_sweep_fails_before_any_cell_trains(self, sweep, message, tmp_path,
                                                    monkeypatch, capsys):
        Fault("ablate", message, sweep=json_file(sweep)).check(tmp_path, monkeypatch, capsys)

    def test_repeated_seeds_option(self, tmp_path, monkeypatch, capsys):
        # seed 0 used to train twice, and summary.json to list it twice while
        # its mean_accuracy averaged the two distinct accuracies
        Fault("train-ssl", "--seeds entries must be distinct",
              seeds="0,1,0").check(tmp_path, monkeypatch, capsys)

    # 60 rows per class: 0.008 of them rounds to no test row
    @pytest.mark.parametrize("fraction", [0.0, 0.008])
    @pytest.mark.parametrize("command", ["train-ssl", "ablate"])
    def test_empty_test_split_rejected(self, command, fraction, tmp_path, monkeypatch,
                                       capsys):
        Fault(command, f"dataset.test_fraction: {fraction:g} leaves no test rows",
              config=small(dataset={"test_fraction": fraction})).check(tmp_path, monkeypatch,
                                                                       capsys)

    def test_fit_density_accepts_an_empty_test_split(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {
            "dataset": {"n": 120, "noise": 0.1, "test_fraction": 0.0},
            "flow": {"hidden": 16}, "fit": {"steps": 2, "batch": 64}})
        assert main(["fit-density", "--config", cfg, "--out", str(tmp_path / "run")]) == 0

    # the latent has one component per dataset class; the key that set another
    # count is gone, so a document naming it fails like any typo
    @rows(each(COMMANDS, "unknown config key 'flow.components'",
               config=small(flow={"components": 2})))
    def test_flow_components_is_an_unknown_key(self, fault, tmp_path, monkeypatch, capsys):
        fault.check(tmp_path, monkeypatch, capsys)

    # the feature term starts after the warm-start epoch and eps is in units of
    # the feature std, by construction; the keys that chose otherwise are gone,
    # so a document that still names them fails like any typo
    @rows({f"{command}-{section}.{key}": Fault(command, f"unknown config key '{section}.{key}'",
                                               config=small(**{section: {key: value}}))
           for section, key, value in [("ssl", "ft_start_epoch", 2),
                                       ("perturb", "eps_relative", True)]
           for command in COMMANDS})
    def test_feature_term_modes_are_unknown_keys(self, fault, tmp_path, monkeypatch, capsys):
        fault.check(tmp_path, monkeypatch, capsys)

    # each used to end in a traceback: IsADirectoryError, UnicodeDecodeError,
    # or FileExistsError from making --out
    @rows({**{f"{command}---config-{name}": Fault(command, f"config.json: {text}", config=make)
              for command in COMMANDS for name, make, text in UNREADABLE},
           **{f"ablate---sweep-{name}": Fault("ablate", f"sweep.json: {text}", sweep=make)
              for name, make, text in UNREADABLE},
           **{f"{command}---out-file": Fault(command, "run: File exists", out=written(b""))
              for command in ("fit-density", "train-ssl", "ablate")}})
    def test_unreadable_input_is_a_config_error(self, fault, tmp_path, monkeypatch, capsys):
        fault.check(tmp_path, monkeypatch, capsys)

    # seeds 0-2 used to train and write their metrics, then seed 3 exited 2
    # with no summary
    @rows({"train-ssl": Fault("train-ssl", NO_CENTERS, config=BLOBS9, seeds="0,1,2,3"),
           "ablate": Fault("ablate", NO_CENTERS, config=BLOBS9,
                           sweep=json_file({"seeds": [0, 1, 2, 3]}))})
    def test_a_later_seed_s_dataset_draw_fails_before_any_output(self, fault, tmp_path,
                                                                 monkeypatch, capsys):
        fault.check(tmp_path, monkeypatch, capsys)

    # 5 rows per class, all 5 test rows: fit-density used to end in a
    # traceback and train-ssl to exit 2 after writing config.json
    @rows(each(COMMANDS, "config error: dataset.test_fraction: 0.95 leaves class 0 no train "
                         "rows, and every class needs one",
               config=small(dataset={"n": 10, "labeled_per_class": -1,
                                     "test_fraction": 0.95})))
    def test_a_class_without_train_rows_fails_before_any_output(self, fault, tmp_path,
                                                                monkeypatch, capsys):
        fault.check(tmp_path, monkeypatch, capsys)

    @rows({f"{command}-{name}": Fault(command, message, config=small(**sections))
           for name, message, sections in [
               ("grid-bounds-reversed", "fit.grid_bounds must be [low, high] with low < high",
                {"fit": {"grid_bounds": [4.0, -4.0]}}),
               ("grid-bounds-one-entry", "fit.grid_bounds must be [low, high] with low < high",
                {"fit": {"grid_bounds": [1.0]}}),
               ("labels-exceed-a-class",
                "class 0 has 50 train samples, requested 1000 labeled",
                {"dataset": {"n": 200, "labeled_per_class": 1000, "test_fraction": 0.5}}),
               ("sigma-weak-above-strong", "ssl.sigma_weak must be < ssl.sigma_strong",
                {"ssl": {"sigma_weak": 0.2}})]
           for command in FIT_AND_TRAIN})
    def test_rule_across_keys_fails_before_any_output(self, fault, tmp_path, monkeypatch,
                                                      capsys):
        fault.check(tmp_path, monkeypatch, capsys)


class TestBadRunInputsRejected:
    @pytest.mark.parametrize("key", ["hidden", "feature_dim"])
    def test_zero_ssl_width(self, key, tmp_path, monkeypatch, capsys):
        Fault("train-ssl", f"ssl.{key}",
              config=small(ssl={key: 0})).check(tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("section,key,value", [
        ("flow", "blocks", 0),
        ("flow", "hidden", 0),
        ("flow", "s_max", 0),
        ("ssl", "feature_dim", 3),
        ("dataset", "classes", 5),
    ])
    def test_bad_flow_shape_or_class_count(self, section, key, value, tmp_path, monkeypatch,
                                           capsys):
        # these used to fail in init_flow, or to train 2 classes, after
        # config.json was written
        Fault("train-ssl", f"{section}.{key}",
              config=small(**{section: {key: value}})).check(tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("rate,channels", [(0.2, 0), (0.75, 2)])
    def test_channel_dropout_rate_dropping_none_or_all(self, rate, channels, tmp_path,
                                                       monkeypatch, capsys):
        # at feature_dim 2 these rates drop no channel or both; the rate is a
        # constant now, and a config that still sets one fails before training
        assert dropped_channels(rate, 2) == channels
        Fault("train-ssl", "unknown config key 'perturb.dropout_rate'",
              config=small(perturb={"kind": "channel-dropout", "dropout_rate": rate})
              ).check(tmp_path, monkeypatch, capsys)

    def test_sweep_to_channel_dropout_with_degenerate_rate(self, tmp_path, monkeypatch,
                                                          capsys):
        # the base kind never reads a rate and the sweep's channel-dropout
        # cell would: the base config's rate fails before any output
        Fault("ablate", "unknown config key 'perturb.dropout_rate'",
              config=small(perturb={"dropout_rate": 0.2}),
              sweep=json_file({"kinds": ["density-descending", "channel-dropout"]})
              ).check(tmp_path, monkeypatch, capsys)

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
    def test_size_above_its_cap(self, command, section, key, value, tmp_path, monkeypatch,
                                capsys):
        # without a cap these parse, and numpy fails with a traceback only
        # when it allocates, after config.json is written
        Fault(command, f"{section}.{key}",
              config=small(**{section: {key: value}})).check(tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("command", ["train-ssl", "fit-density", "verify"])
    def test_negative_config_seed(self, command, tmp_path, monkeypatch, capsys):
        # np.random.SeedSequence rejects it with a traceback, after
        # config.json was written
        Fault(command, "seed must be >= 0", config=small(seed=-1)).check(tmp_path, monkeypatch,
                                                                         capsys)

    def test_negative_seeds_option(self, tmp_path, monkeypatch, capsys):
        Fault("train-ssl", "--seeds entries must be >= 0, got -1",
              seeds="0,-1").check(tmp_path, monkeypatch, capsys)

    def test_negative_sweep_seed(self, tmp_path, monkeypatch, capsys):
        Fault("ablate", "sweep key 'seeds' entries must be >= 0, got -2",
              sweep=json_file({"seeds": [0, -2]})).check(tmp_path, monkeypatch, capsys)

    def test_bad_seeds_option(self, tmp_path, monkeypatch, capsys):
        Fault("train-ssl", "--seeds: expected comma-separated ints",
              seeds="1,x").check(tmp_path, monkeypatch, capsys)

    def test_empty_seeds_option(self, tmp_path, monkeypatch, capsys):
        # it used to train the config seed, while ' ' and ',' were rejected
        Fault("train-ssl", "--seeds: expected comma-separated ints, got ''",
              seeds="").check(tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("section,key,text", [
        ("ssl", "lambda_ft", "NaN"),
        ("ssl", "lr", "NaN"),
        ("perturb", "eps", "Infinity"),
        ("flow_train", "lr", "Infinity"),
        ("dataset", "noise", "-Infinity"),
    ])
    def test_non_finite_float(self, section, key, text, tmp_path, monkeypatch, capsys):
        # Python's json reads these words; a NaN lambda_ft would otherwise
        # switch the feature loss off without a word
        Fault("train-ssl", f"{section}.{key}: expected a finite number, got {text}",
              config=small(**{section: {key: json.loads(text)}})
              ).check(tmp_path, monkeypatch, capsys)

    def test_non_finite_sweep_value(self, tmp_path, monkeypatch, capsys):
        Fault("ablate", "eps[1]: expected a finite number, got NaN",
              sweep=json_file({"eps": [0.25, math.nan]})).check(tmp_path, monkeypatch, capsys)

    @rows({name: checkpoint(archive(**{key: value}), f"bad.npz: {message}")
           for name, key, value, message in [
               ("no-meta", "__meta__", None, "checkpoint has no '__meta__' entry"),
               ("no-block-key", "block1_w2", None, "checkpoint has no 'block1_w2' entry"),
               ("no-latent-key", "latent_log_weights", None,
                "checkpoint has no 'latent_log_weights' entry"),
               ("w1-shape", "block0_w1", np.zeros((2, 8)), "'block0_w1' has shape (2, 8)"),
               ("b2-shape", "block1_b2", np.zeros(3), "'block1_b2' has shape (3,)"),
               ("latent-shape", "latent_means", np.zeros((2, 4)),
                "'latent_means' has shape (2, 4)")]})
    def test_bad_checkpoint_archive(self, fault, tmp_path, monkeypatch, capsys):
        fault.check(tmp_path, monkeypatch, capsys)

    # each used to load: no blocks gave a TypeError traceback, an odd d a
    # matmul ValueError after a PASS line, and s_max -1 passed verify
    @rows({"no-blocks": checkpoint(archive({"n_blocks": 0}),
                                   "bad.npz: flow.blocks must be in [1, 64], got 0"),
           "odd-d": checkpoint(archive({"d": 3}, **ODD_D),
                               "bad.npz: feature dimension must be even and >= 2, got 3"),
           "negative-s_max": checkpoint(archive({"s_max": -1.0}),
                                        "bad.npz: flow.s_max must be > 0, got -1.0"),
           "nan-s_max": checkpoint(archive({"s_max": math.nan}),
                                   "bad.npz: flow.s_max must be > 0, got nan"),
           "negative-seed": checkpoint(archive({"seed": -1}), "must be >= 0, got -1")})
    def test_checkpoint_sizes_init_flow_rejects(self, fault, tmp_path, monkeypatch, capsys):
        fault.check(tmp_path, monkeypatch, capsys)

    @rows({"text": checkpoint(written(b"not a checkpoint\n"), "bad.npz: not a .npz checkpoint"),
           "npy": checkpoint(npy_file, "bad.npz: not a .npz checkpoint"),
           "empty": checkpoint(written(b""), "bad.npz: not a .npz checkpoint")})
    def test_checkpoint_not_an_npz_file(self, fault, tmp_path, monkeypatch, capsys):
        fault.check(tmp_path, monkeypatch, capsys)

    # each used to print PASS rows, then end in a traceback or exit 3, or to
    # end in a traceback at load
    @rows({"no-component": checkpoint(
               archive(latent_means=np.zeros((0, 2)), latent_log_weights=np.zeros(0)),
               "bad.npz: 'latent_log_weights' is empty"),
           "text-w1": checkpoint(archive(block0_w1=np.full((1, 8), "a")),
                                 "bad.npz: 'block0_w1' holds <U1 values, not real numbers"),
           "text-latent-means": checkpoint(
               archive(latent_means=np.full((2, 2), "a")),
               "bad.npz: 'latent_means' holds <U1 values, not real numbers"),
           "nan-log-weight": checkpoint(
               archive(latent_log_weights=np.array([math.nan, -math.log(2)])),
               "bad.npz: 'latent_log_weights' holds a non-finite value")})
    def test_checkpoint_entry_not_finite_real_numbers(self, fault, tmp_path, monkeypatch,
                                                      capsys):
        fault.check(tmp_path, monkeypatch, capsys)

    def test_valid_checkpoint_round_trips(self, tmp_path):
        path = tmp_path / "ok.npz"
        np.savez(path, **checkpoint_arrays(tmp_path))
        model, latent = load_checkpoint(path)
        assert model.d == 2 and model.hidden == 8 and len(model.blocks) == 2
        assert latent.means.shape == (2, 2)
