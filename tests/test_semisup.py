from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from layouts import installed
from recipe import SMALL_SPEC, small_config, two_moons_benchmark

from densitydescent import diffcore as dc
from densitydescent import estimator, semisup
from densitydescent.cli import write_csv
from densitydescent.data import DataSpec, make_dataset
from densitydescent.errors import ConfigError
from densitydescent.estimator import FlowTrainConfig
from densitydescent.flow import FlowArch
from densitydescent.latent import BLOCK_ROWS
from densitydescent.perturb import PerturbConfig
from densitydescent.semisup import (Model, SslConfig, SweepSpec,
                                    augment_strong, augment_weak, cells, dataset_for_run,
                                    ema_update,
                                    evaluate, init_model, pseudo_labels,
                                    runs, train_ssl,
                                    METRIC_COLUMNS,
                                    PseudoLabelBatch)
from reference.student import (decode, encode, masked_consistency_loss, sup_loss,
                               unified_loss)

LOG_21 = float(np.log(21))


def tiny_config(**kw):
    defaults = dict(
        epochs=4, batch_labeled=8, batch_unlabeled=32, lr=0.05, feature_dim=2,
        hidden=16, flow=FlowArch(hidden=16), sigma_weak=0.02, sigma_strong=0.1,
        drop_prob=0.05, ema_momentum=0.95, tau=0.9, lambda_ft=0.5,
        perturb=PerturbConfig(kind="density-descending", eps=0.25),
        flow_train=FlowTrainConfig(sample_budget=64, warm_start_epoch=1),
        seed=0,
    )
    defaults.update(kw)
    return SslConfig(**defaults)


def tiny_data(seed=0, labeled_per_class=4):
    return make_dataset(DataSpec(kind="moons", n=120, noise=0.1,
                                 labeled_per_class=labeled_per_class,
                                 test_fraction=0.25, seed=seed))


class TestPseudoLabels:
    def test_confident_row_retained(self):
        batch = pseudo_labels(np.array([[0.03, 0.97]]), tau=0.95)
        assert batch.labels[0] == 1 and batch.mask[0] == 1.0

    def test_unconfident_row_masked(self):
        batch = pseudo_labels(np.array([[0.6, 0.4]]), tau=0.95)
        assert batch.labels[0] == 0 and batch.mask[0] == 0.0

    def test_lower_threshold_admits_more(self):
        batch = pseudo_labels(np.array([[0.71, 0.29]]), tau=0.7)
        assert batch.mask[0] == 1.0
        batch = pseudo_labels(np.array([[0.71, 0.29]]), tau=0.95)
        assert batch.mask[0] == 0.0

    def test_malformed_rows_rejected(self):
        with pytest.raises(ValueError):
            pseudo_labels(np.array([[0.5, 0.4]]), tau=0.9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 1000), t1=st.floats(0.5, 0.99), t2=st.floats(0.5, 0.99))
    def test_mask_monotone_in_threshold(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4), size=20)
        lo, hi = min(t1, t2), max(t1, t2)
        assert pseudo_labels(probs, hi).mask.sum() <= pseudo_labels(probs, lo).mask.sum()

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 1000), temp=st.floats(0.2, 5.0))
    def test_argmax_invariant_to_temperature(self, seed, temp):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((15, 3)) * 2
        def soft(lg):
            e = np.exp(lg - lg.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)
        a = pseudo_labels(soft(logits), 0.5)
        b = pseudo_labels(soft(logits / temp), 0.5)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestLosses:
    def test_perfect_prediction_zero_loss(self):
        logits = dc.tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        assert float(sup_loss(logits, np.array([0, 1])).data) < 1e-12

    def test_uniform_prediction_log_k(self):
        logits = dc.tensor(np.zeros((5, 21)))
        val = float(sup_loss(logits, np.zeros(5, dtype=int)).data)
        assert val == pytest.approx(LOG_21)
        assert val == pytest.approx(3.0445, abs=1e-4)

    def test_hand_computed_three_sample_batch(self):
        logits = np.array([[2.0, 0.0], [0.5, 1.5], [-1.0, 1.0]])
        labels = np.array([0, 1, 0])
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        expected = -np.log(p[np.arange(3), labels]).mean()
        val = float(sup_loss(dc.tensor(logits), labels).data)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_all_masked_batch_gives_zero(self):
        logits = dc.tensor(np.random.default_rng(0).standard_normal((6, 3)))
        pseudo = PseudoLabelBatch(labels=np.zeros(6, dtype=int), mask=np.zeros(6))
        assert float(masked_consistency_loss(logits, pseudo).data) == 0.0

    def test_full_mask_equals_plain_cross_entropy(self):
        logits = dc.tensor(np.random.default_rng(1).standard_normal((6, 3)))
        labels = np.random.default_rng(2).integers(0, 3, 6)
        pseudo = PseudoLabelBatch(labels=labels, mask=np.ones(6))
        a = float(masked_consistency_loss(logits, pseudo).data)
        b = float(sup_loss(logits, labels).data)
        assert a == pytest.approx(b, rel=1e-12)

    def test_mixed_mask_hand_check(self):
        logits = np.array([[3.0, 0.0], [0.0, 3.0], [1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        mask = np.array([1.0, 0.0, 1.0, 0.0])
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        ce = -np.log(p[np.arange(4), labels])
        expected = (ce * mask).sum() / 4
        val = float(masked_consistency_loss(
            dc.tensor(logits), PseudoLabelBatch(labels=labels, mask=mask)).data)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_zero_perturbation_matches_image_loss(self):
        # the feature-level loss at delta = 0 goes through identical math
        model = init_model(2, 8, 4, 2, seed=3)
        feats = encode(model, np.random.default_rng(4).standard_normal((10, 2)))
        pseudo = PseudoLabelBatch(labels=np.zeros(10, dtype=int),
                                  mask=np.ones(10))
        l_im = masked_consistency_loss(decode(model, feats), pseudo)
        l_ft = masked_consistency_loss(
            decode(model, feats + dc.tensor(np.zeros((10, 4)))), pseudo)
        assert float(l_ft.data) == pytest.approx(float(l_im.data), rel=1e-15)

    def test_unified_loss_linearity(self):
        ls, li, lf = dc.tensor(1.3), dc.tensor(0.7), dc.tensor(0.4)
        assert float(unified_loss(ls, li, lf, 0.5).data) == pytest.approx(1.3 + 0.7 + 0.2)
        assert float(unified_loss(ls, li, lf, 0.0).data) == pytest.approx(2.0)
        assert float(unified_loss(ls, li, None, 0.5).data) == pytest.approx(2.0)
        for lam in (0.25, 1.0, 2.0):
            val = float(unified_loss(ls, li, lf, lam).data)
            assert val == pytest.approx(1.3 + 0.7 + lam * 0.4, rel=1e-12)


class TestEma:
    def test_momentum_one_keeps_teacher(self):
        t, s = init_model(2, 4, 2, 2, seed=0), init_model(2, 4, 2, 2, seed=1)
        before = [p.copy() for p in t.params()]
        ema_update(t, s, 1.0)
        for b, p in zip(before, t.params()):
            np.testing.assert_array_equal(b, p)

    def test_momentum_zero_copies_student(self):
        t, s = init_model(2, 4, 2, 2, seed=0), init_model(2, 4, 2, 2, seed=1)
        ema_update(t, s, 0.0)
        for tp, sp in zip(t.params(), s.params()):
            np.testing.assert_array_equal(tp, sp)

    def test_update_formula_exact(self):
        t, s = init_model(2, 4, 2, 2, seed=2), init_model(2, 4, 2, 2, seed=3)
        old = [p.copy() for p in t.params()]
        ema_update(t, s, 0.999)
        for o, tp, sp in zip(old, t.params(), s.params()):
            np.testing.assert_allclose(tp, 0.999 * o + 0.001 * sp,
                                       atol=1e-12)

    def test_shape_mismatch_rejected(self):
        t = init_model(2, 4, 2, 2, seed=0)
        s = init_model(2, 8, 2, 2, seed=1)
        with pytest.raises(ValueError):
            ema_update(t, s, 0.5)


class TestAugmentations:
    def test_zero_strength_is_identity(self):
        x = np.random.default_rng(0).standard_normal((10, 2))
        rng = np.random.default_rng(1)
        np.testing.assert_array_equal(augment_weak(x, 0.0, rng), x)
        np.testing.assert_array_equal(augment_strong(x, 0.0, 0.0, rng), x)

    def test_jitter_is_zero_mean(self):
        x = np.zeros((20000, 2))
        out = augment_weak(x, 0.3, np.random.default_rng(2))
        assert abs(out.mean()) < 0.01

    def test_strong_displaces_more_than_weak(self):
        x = np.random.default_rng(3).standard_normal((5000, 2))
        w = augment_weak(x, 0.05, np.random.default_rng(4))
        s = augment_strong(x, 0.25, 0.1, np.random.default_rng(5))
        assert np.linalg.norm(s - x, axis=1).mean() > np.linalg.norm(w - x, axis=1).mean()


class TestTrainSsl:
    def test_smoke_and_metrics_shape(self):
        res = train_ssl(tiny_config(), tiny_data())
        assert len(res.rows) == 4
        assert set(res.rows[0]) == set(METRIC_COLUMNS)
        assert res.isolation_violations == 0
        assert res.flow_steps > 0
        assert 0.0 <= res.final_test_acc <= 1.0

    def test_isolation_check_counts_a_perturbation_that_writes_to_the_flow(self, monkeypatch):
        calls = [0]
        perturbation = semisup.generate_perturbation

        def leaking(v, cfg, rng, flow_model=None, **kw):
            calls[0] += 1
            flow_model.flat += 1e-3
            return perturbation(v, cfg, rng, flow_model=flow_model, **kw)

        monkeypatch.setattr(semisup, "generate_perturbation", leaking)
        res = train_ssl(tiny_config(), tiny_data())
        assert calls[0] > 0
        assert res.isolation_violations == calls[0]   # one per iteration it ran in

    @staticmethod
    def leak_flow_steps_into_the_student(monkeypatch):
        """Make every flow step write to the student of the latest run."""
        students = []
        init, step = semisup.init_model, estimator.flow_train_step

        def recorded(*args, **kw):
            students.append(init(*args, **kw))
            return students[-1]

        def leaking(*args, **kw):
            students[-1].flat[0] += 1e-3
            return step(*args, **kw)

        monkeypatch.setattr(semisup, "init_model", recorded)
        monkeypatch.setattr(estimator, "flow_train_step", leaking)

    def test_isolation_check_counts_a_flow_step_that_writes_to_the_student(self, monkeypatch):
        self.leak_flow_steps_into_the_student(monkeypatch)
        cfg = tiny_config(lambda_ft=0.0)
        # in this process: a split run's worker holds a student no flow step reaches
        with installed("no-fork"):
            res = train_ssl(cfg, tiny_data())
        iterations = res.flow_steps // cfg.flow_train.updates_per_iteration
        assert iterations > 0
        assert res.isolation_violations == iterations   # every iteration with flow steps

    def test_isolation_check_counts_in_every_run_of_a_multi_seed_command(self, monkeypatch):
        # train-ssl --seeds 0,1 at lambda_ft 0 on a host that cannot fork:
        # both runs step their flow in this process, and each checks isolation
        self.leak_flow_steps_into_the_student(monkeypatch)
        cfg = tiny_config(lambda_ft=0.0)
        spec = DataSpec(kind="moons", n=120, noise=0.1, labeled_per_class=4,
                        test_fraction=0.25)
        with installed("no-fork"):
            results = [res for _, res in runs([replace(cfg, seed=s) for s in (0, 1)], spec)]
        assert len(results) == 2
        for res in results:
            iterations = res.flow_steps // cfg.flow_train.updates_per_iteration
            assert iterations > 0
            assert res.isolation_violations == iterations

    def test_deterministic_given_seed(self):
        a = train_ssl(tiny_config(), tiny_data())
        b = train_ssl(tiny_config(), tiny_data())
        assert a.rows == b.rows

    def test_lambda_zero_ignores_perturbation_branch(self):
        cfg_dd = tiny_config(lambda_ft=0.0)
        cfg_unif = tiny_config(
            lambda_ft=0.0,
            perturb=PerturbConfig(kind="uniform-noise", eps=0.25))
        a = train_ssl(cfg_dd, tiny_data())
        b = train_ssl(cfg_unif, tiny_data())
        assert a.rows == b.rows

    def test_supervised_only_mode(self):
        ds = tiny_data(labeled_per_class=-1)
        assert len(ds.unlabeled_idx) == 0
        res = train_ssl(tiny_config(), ds)
        assert res.flow_steps == 0
        assert all(r["L_im"] == 0.0 for r in res.rows)
        assert res.final_test_acc > 0.8

    def test_missing_labeled_split_rejected(self):
        ds = tiny_data()
        ds.labeled_idx = np.empty(0, dtype=np.intp)
        with pytest.raises(ConfigError):
            train_ssl(tiny_config(), ds)

    def test_feature_loss_waits_for_estimator(self):
        # the feature term starts in the epoch after the flow's warm start
        for warm_start in (1, 3):
            cfg = small_config(epochs=4, flow_train=FlowTrainConfig(
                sample_budget=64, warm_start_epoch=warm_start, updates_per_iteration=2))
            l_ft = [r["L_ft"] for r in train_ssl(cfg, make_dataset(SMALL_SPEC)).rows]
            assert l_ft[:warm_start] == [0.0] * warm_start, warm_start
            assert all(value > 0 for value in l_ft[warm_start:]), (warm_start, l_ft)

    @staticmethod
    def write_metrics(result, path):
        # as ``train-ssl`` writes metrics_seed*.csv
        write_csv(path, METRIC_COLUMNS, ([row[c] for c in METRIC_COLUMNS] for row in result.rows))

    def test_metrics_csv_roundtrip(self, tmp_path):
        res = train_ssl(tiny_config(), tiny_data())
        path = tmp_path / "metrics.csv"
        self.write_metrics(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(METRIC_COLUMNS)
        assert len(lines) == 5
        for line, row in zip(lines[1:], res.rows):
            cells = line.split(",")
            assert cells[0] == str(row["epoch"])
            assert [float(c) for c in cells[1:]] == [row[c] for c in METRIC_COLUMNS[1:]]

    def test_csv_is_byte_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_metrics(train_ssl(tiny_config(), tiny_data()), p1)
        self.write_metrics(train_ssl(tiny_config(), tiny_data()), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(tau=1.0), dict(tau=0.0), dict(lambda_ft=-0.1),
        dict(ema_momentum=1.5), dict(sigma_weak=0.3, sigma_strong=0.2),
        dict(drop_prob=1.0), dict(epochs=0),
    ])
    def test_invalid_configs(self, kw):
        with pytest.raises(ConfigError):
            tiny_config(**kw)


def cell_axes(cfgs):
    return [(c.perturb.kind, c.perturb.eps, c.lambda_ft, c.seed) for c in cfgs]


class TestHarness:
    def test_runs_share_dataset_draw_per_seed(self):
        cfg = tiny_config(epochs=2)
        spec = DataSpec(n=120, labeled_per_class=4, test_fraction=0.25, seed=3)
        cfgs = [replace(cfg, seed=s) for s in (0, 1)]
        a, b = list(runs(cfgs, spec)), list(runs(cfgs, spec))
        assert [run for run, _ in a] == cfgs
        assert [r.final_test_acc for _, r in a] == [r.final_test_acc for _, r in b]

    def test_ablate_grid_row_count(self):
        # the eps axis, seeds innermost; unset axes keep the base config's value
        cfg = tiny_config(epochs=2)
        grid = [0.1, 0.25, 0.5, 1.0, 2.0]
        assert cell_axes(cells(cfg, SweepSpec(eps=grid, seeds=[0, 1]))) == [
            ("density-descending", eps, cfg.lambda_ft, s) for eps in grid for s in (0, 1)]

    def test_ablate_kind_axis(self, monkeypatch):
        # each cell's per-epoch rows are those of its kind's own run, on the
        # recipe at 3 epochs with tau 0.6 (as the golden metrics): pseudo
        # labels pass there, so the kinds' rows differ. Neither kind reads
        # the flow, so the cells train none: every column but L_flow
        cfg, spec = two_moons_benchmark()
        cfg = replace(cfg, epochs=3, tau=0.6)
        trained = []
        train = semisup.train_ssl

        def recorded(cfg, ds, **kw):
            result = train(cfg, ds, **kw)
            trained.append((cfg.perturb.kind, cfg.seed, result.rows))
            return result

        monkeypatch.setattr(semisup, "train_ssl", recorded)
        kinds = ["uniform-noise", "channel-dropout"]
        results = list(runs(cells(cfg, SweepSpec(kinds=kinds, seeds=[0])), spec,
                            keep_flow=False))
        assert [run.perturb.kind for run, _ in results] == kinds
        own = [(kind, 0, train(replace(cfg, perturb=replace(cfg.perturb, kind=kind)),
                               dataset_for_run(spec, 0)).rows) for kind in kinds]
        assert all("L_flow" not in row for *_, cell in trained for row in cell)
        assert trained == [(kind, seed, [{c: v for c, v in row.items() if c != "L_flow"}
                                         for row in rows]) for kind, seed, rows in own]
        assert trained[0][2] != trained[1][2]

    def test_ablate_loss_weight_axis(self):
        cfg = tiny_config(epochs=2)
        lambdas = [0.2, 0.5, 1.0, 1.5, 2.0]
        assert cell_axes(cells(cfg, SweepSpec(lambda_ft=lambdas, seeds=[0]))) == [
            ("density-descending", cfg.perturb.eps, lam, 0) for lam in lambdas]

    def test_cells_order_on_all_four_axes(self):
        # sweep.csv's row order: kind outermost, then eps, lambda_ft and the
        # seed, each axis in its list's order; every other field is the base's
        cfg = tiny_config(epochs=2)
        sweep = SweepSpec(kinds=["uniform-noise", "vat-lite"], eps=[0.5, 0.1],
                          lambda_ft=[1.0, 0.0], seeds=[3, 1])
        got = cells(cfg, sweep)
        assert cell_axes(got) == [(kind, eps, lam, s) for kind in sweep.kinds
                                  for eps in sweep.eps for lam in sweep.lambda_ft
                                  for s in sweep.seeds]
        assert all(replace(c, seed=cfg.seed, lambda_ft=cfg.lambda_ft,
                           perturb=cfg.perturb) == cfg for c in got)


def test_evaluate_on_separable_data():
    model = init_model(2, 16, 2, 2, seed=0)
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    acc = evaluate(model, x, model.predict(x))
    assert acc == 1.0


def test_evaluate_streams_blocks_of_rows(monkeypatch):
    # 2.5 blocks of rows: no prediction sees more than one block, and the
    # accuracy is that of the per-block predictions
    model = init_model(2, 16, 2, 2, seed=1)
    rng = np.random.default_rng(2)
    n = 2 * BLOCK_ROWS + BLOCK_ROWS // 2
    x = rng.standard_normal((n, 2))
    y = rng.integers(0, 2, n)
    per_block = np.concatenate([model.predict(x[i:i + BLOCK_ROWS])
                                for i in range(0, n, BLOCK_ROWS)])
    rows = []
    predict = Model.predict
    monkeypatch.setattr(Model, "predict",
                        lambda self, xb: rows.append(len(xb)) or predict(self, xb))
    assert evaluate(model, x, y) == float(np.mean(per_block == y))
    assert rows == [BLOCK_ROWS, BLOCK_ROWS, BLOCK_ROWS // 2]
