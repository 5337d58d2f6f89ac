import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sabvi import experiments, rng, vi
from sabvi.divergence import DivergenceParams
from sabvi.experiments import (
    CSVFormatError,
    CVRunConfig,
    Dataset,
    GridSearchSpec,
    OUTLIER_SHIFT,
    ToyRunConfig,
    corrupt,
    gen_nonlinear,
    gen_toy,
    load_csv,
    metrics,
    nested_cv,
    normalize,
    run_toy_experiment,
    save_csv,
)
from sabvi.models import BLRModel, XYData, predict
from sabvi.optim import AdamConfig
from sabvi.vi import TrainingDiverged

TOY_W = 0.5


class TestGenToy:
    def test_outlier_count_is_exact(self):
        ds = gen_toy(1000, 4, 0.05, seed=0)
        assert int(ds.outlier_mask.sum()) == 50

    def test_clean_data_follows_the_linear_process(self):
        ds = gen_toy(1000, 4, 0.0, seed=1)
        assert not ds.outlier_mask.any()
        resid = ds.y - ds.X @ np.full(4, TOY_W)
        assert abs(resid.mean()) < 0.02
        assert np.all(np.abs(ds.X) <= 1.0)

    def test_corrupted_points_sit_one_shift_higher(self):
        ds = gen_toy(1000, 4, 0.05, seed=2)
        resid = ds.y - ds.X @ np.full(4, TOY_W)
        assert resid[ds.outlier_mask].mean() == pytest.approx(OUTLIER_SHIFT, abs=0.1)
        np.testing.assert_allclose(ds.y_clean[ds.outlier_mask],
                                   ds.y[ds.outlier_mask] - OUTLIER_SHIFT)

    def test_deterministic(self):
        a = gen_toy(100, 3, 0.1, seed=7)
        b = gen_toy(100, 3, 0.1, seed=7)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.outlier_mask, b.outlier_mask)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_toy(0, 4, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_toy(10, 4, 1.0, seed=0)


class TestCSVAndNormalization:
    def test_roundtrip(self, tmp_path):
        ds = gen_nonlinear(50, 3, seed=3)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path, "y")
        np.testing.assert_allclose(back.X, ds.X, rtol=1e-15)
        np.testing.assert_allclose(back.y, ds.y, rtol=1e-15)
        assert back.feature_names == ("x0", "x1", "x2")

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1.0,2.0,3.0\n1.0,oops,3.0\n")
        with pytest.raises(CSVFormatError, match=r"row 3, column 'b'"):
            load_csv(path, "y")

    @pytest.mark.parametrize("cell,column", [("nan", "b"), ("inf", "y"), (" -Infinity", "a")])
    def test_non_finite_cell_reports_location(self, tmp_path, cell, column):
        path = tmp_path / "bad.csv"
        row = {"a": "1.0", "b": "2.0", "y": "3.0", column: cell}
        path.write_text(f"a,b,y\n1.0,2.0,3.0\n{row['a']},{row['b']},{row['y']}\n")
        with pytest.raises(CSVFormatError, match=rf"non-finite .* row 3, column '{column}'"):
            load_csv(path, "y")

    @pytest.mark.parametrize("row,message", [
        ("1.0,nan,oops", "non-finite cell 'nan' at row 3, column 'b'"),
        ("oops,nan,3.0", "non-numeric cell at row 3, column 'a'"),
    ])
    def test_first_bad_cell_in_a_row_is_named(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b,y\n1.0,2.0,3.0\n{row}\n")
        with pytest.raises(CSVFormatError, match=message):
            load_csv(path, "y")

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(CSVFormatError, match="target"):
            load_csv(path, "y")

    @pytest.mark.parametrize("text,message", [
        ("y\n1\n2\n", "no feature columns beside the target 'y'"),
        ("x,y,y\n1,2,3\n", "the header names column 'y' twice"),
        ("x,x,y\n1,2,3\n", "the header names column 'x' twice"),
        ("x, y,y \n1,2,3\n", "the header names column 'y' twice"),
    ], ids=["target-only", "target-twice", "feature-twice", "padded-twice"])
    def test_header_without_one_target_and_a_feature_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CSVFormatError, match=message):
            load_csv(path, "y")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1,2\n3\n")
        with pytest.raises(CSVFormatError, match="row 3"):
            load_csv(path, "y")

    def test_constant_column_rejected(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("a,b,y\n1,5,0\n2,5,1\n3,5,2\n")
        with pytest.raises(ValueError, match="zero variance feature 'b'"):
            normalize(load_csv(path, "y"))

    def test_normalize_standardizes(self):
        ds = normalize(gen_nonlinear(200, 3, seed=4))
        assert np.all(np.abs(ds.X.mean(axis=0)) < 1e-10)
        np.testing.assert_allclose(ds.X.std(axis=0), 1.0, atol=1e-10)
        assert abs(ds.y.mean()) < 1e-10
        assert ds.y.std() == pytest.approx(1.0, abs=1e-10)


class TestCorrupt:
    def test_zero_fraction_is_identity(self):
        ds = normalize(gen_nonlinear(100, 3, seed=6))
        assert corrupt(ds, 0.0, seed=0) is ds

    def test_shift_count_and_magnitude(self):
        ds = normalize(gen_nonlinear(300, 3, seed=6))
        out = corrupt(ds, 0.10, seed=1)
        assert int(out.outlier_mask.sum()) == 30
        np.testing.assert_allclose(out.y[out.outlier_mask] - ds.y[out.outlier_mask],
                                   OUTLIER_SHIFT)
        np.testing.assert_array_equal(out.y[~out.outlier_mask], ds.y[~out.outlier_mask])

    def test_indices_never_repeat(self):
        ds = normalize(gen_nonlinear(50, 3, seed=6))
        out = corrupt(ds, 0.4, seed=2)
        shifted = out.y - ds.y
        assert set(np.round(shifted[out.outlier_mask], 12)) == {OUTLIER_SHIFT}

    def test_fraction_validated(self):
        ds = normalize(gen_nonlinear(50, 3, seed=6))
        with pytest.raises(ValueError):
            corrupt(ds, 1.0, seed=0)


class TestMetrics:
    def test_perfect_prediction(self):
        m = metrics([1.0, 2.0], [1.0, 2.0])
        assert m == {"mae": 0.0, "mse": 0.0, "rmse": 0.0}

    def test_hand_values(self):
        assert metrics([0.0, 0.0], [1.0, -1.0]) == {"mae": 1.0, "mse": 1.0, "rmse": 1.0}
        m = metrics([0.0], [3.0])
        assert (m["mae"], m["mse"], m["rmse"]) == (3.0, 9.0, 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics([1.0], [1.0, 2.0])


class TestGridSearchSpec:
    def test_default_grid_excludes_limit_surfaces_but_keeps_kl(self):
        cells = GridSearchSpec(step=0.25).cells()
        assert (1.0, 0.0) in cells
        for a, b in cells:
            if (a, b) == (1.0, 0.0):
                continue
            assert a != 0.0 and b != 0.0 and round(a + b, 10) != 0.0

    def test_coarse_grid_cell_count(self):
        # 7 x 7 lattice minus the alpha=0 row, beta=0 column and the
        # anti-diagonal, plus the KL corner added back
        cells = GridSearchSpec(step=0.5).cells()
        assert len(cells) == 33

    @pytest.mark.parametrize("step,count", [(0.5, 33), (0.25, 137), (0.1, 881),
                                            (0.05, 3561), (0.3, 111), (0.7, 25),
                                            (0.125, 561), (1 / 3, 93)])
    def test_cells_are_the_lattice_filtered_by_the_trainer_rule(self, step, count):
        spec = GridSearchSpec(step=step)

        def axis(lo, hi):
            return [round(lo + i * step, 10)
                    for i in range(int(math.floor((hi - lo) / step + 1e-9)) + 1)]

        lattice = [(a, b) for a in axis(*spec.alpha_range) for b in axis(*spec.beta_range)]
        by_rule = [cell for cell in lattice if vi.trainable(DivergenceParams(*cell))]
        # the rule the grid kept before it asked the trainer: lattice values
        # are rounded, so the anti-diagonal is found by rounding the sum
        by_hand = [(a, b) for a, b in lattice if (a, b) == (1.0, 0.0)
                   or (a != 0.0 and b != 0.0 and round(a + b, 10) != 0.0)]
        assert spec.cells() == by_rule == by_hand
        assert len(by_rule) == count

    def test_degenerate_single_cell_grid(self):
        spec = GridSearchSpec(alpha_range=(1.0, 1.0), beta_range=(0.0, 0.0), step=0.5)
        assert spec.cells() == [(1.0, 0.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSearchSpec(step=0.0)
        with pytest.raises(ValueError):
            GridSearchSpec(alpha_range=(2.0, 1.0))
        for field, value in [("step", math.nan), ("step", math.inf),
                             ("alpha_range", (math.nan, 1.0)), ("alpha_range", (0.0, math.inf)),
                             ("beta_range", (-math.inf, 1.0)), ("beta_range", (0.0, math.nan))]:
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                GridSearchSpec(**{field: value})


class TestToyExperiment:
    def test_clean_data_near_equivalence_of_converging_settings(self):
        # without corruption the KL path and the mode-seeking family
        # setting both recover the generating model, so their test MAEs
        # agree to well under 0.05 (settings with beta > 0 do not converge
        # under the sampling estimator at this scale and are not asserted)
        cfg = ToyRunConfig(n_train=400, n_test=400, p_outliers=0.0, steps=600,
                           predict_draws=300)
        res = run_toy_experiment([(1.0, 0.0), (1.9, -0.3)], [0, 1, 2], cfg)
        maes = [r["mae_mean"] for r in res["rows"]]
        assert abs(maes[0] - maes[1]) < 0.05

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            run_toy_experiment([(1.0, 0.0)], [])

    def test_equals_one_training_and_prediction_per_setting_bit_for_bit(self):
        # the settings of a seed train as one batch; each must come out as
        # if trained and scored alone, from the same streams
        cfg = ToyRunConfig(n_train=80, n_test=50, dim=2, mc_samples=3, steps=40,
                           predict_draws=30)
        settings, seeds = [(1.0, 0.0), (1.9, -0.3), (1.8, 0.8)], [3, 4]
        result = run_toy_experiment(settings, seeds, cfg, collect_reports=True)
        model = BLRModel(input_dim=cfg.dim, noise_sigma=experiments.TOY_NOISE_SIGMA)
        reports = []
        for i, (lam, beta) in enumerate(settings):
            for seed, scores in zip(seeds, result["rows"][i]["per_seed"]):
                fit = gen_toy(cfg.n_train, cfg.dim, cfg.p_outliers, seed,
                              stream=rng.compose_stream(rng.STREAM_DATA, 0))
                test = gen_toy(cfg.n_test, cfg.dim, 0.0, seed,
                               stream=rng.compose_stream(rng.STREAM_DATA, 1))
                report = vi.train(DivergenceParams.from_lambda(lam, beta),
                                  vi.MeanFieldGaussian.initial(model.dim), model,
                                  XYData(fit.X, fit.y), vi.MCConfig(cfg.mc_samples, seed),
                                  AdamConfig(learning_rate=cfg.learning_rate, steps=cfg.steps),
                                  stream=rng.compose_stream(rng.STREAM_TRAIN, i))
                summary = predict(report.final, model, test.X, cfg.predict_draws, seed,
                                  stream=rng.compose_stream(rng.STREAM_PREDICT, i))
                assert scores == {"seed": seed, **metrics(test.y, summary.mean)}
                reports.append(report.to_dict())
        assert json.dumps(result["reports"]) == json.dumps(reports)

    def test_structure_and_determinism(self):
        cfg = ToyRunConfig(n_train=60, n_test=60, dim=2, mc_samples=3, steps=30,
                           predict_draws=50)
        a = run_toy_experiment([(1.0, 0.0), (1.9, -0.3)], [0, 1], cfg)
        b = run_toy_experiment([(1.0, 0.0), (1.9, -0.3)], [0, 1], cfg)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert [r["kl_path"] for r in a["rows"]] == [True, False]
        assert all(len(r["per_seed"]) == 2 for r in a["rows"])
        assert all(math.isfinite(r["mae_mean"]) for r in a["rows"])


class TestNestedCV:
    def test_network_trains_at_the_configured_noise(self):
        assert CVRunConfig().build_model(4).noise_sigma == 0.1
        assert CVRunConfig(noise_sigma=0.05).build_model(4).noise_sigma == 0.05

    def _tiny_dataset(self, n=48):
        return corrupt(normalize(gen_nonlinear(n, 3, seed=9)), 0.1, seed=9)

    def test_single_cell_grid_selects_it(self):
        spec = GridSearchSpec(alpha_range=(1.0, 1.0), beta_range=(0.0, 0.0), step=0.5)
        cfg = CVRunConfig(hidden=(3,), mc_samples=2, steps=15, predict_draws=20)
        report = nested_cv(self._tiny_dataset(), spec, k1=2, k2=2, config=cfg, seed=1)
        assert tuple(report.selected) == (1.0, 0.0)
        assert all(tuple(f["selected"]) == (1.0, 0.0) for f in report.folds)
        # the winner is the KL cell, so its score is reused, not retrained
        assert all(f["test_rmse"] == f["kl_test_rmse"] for f in report.folds)

    def test_fold_partition_covers_dataset(self):
        spec = GridSearchSpec(alpha_range=(1.0, 1.0), beta_range=(0.0, 0.0), step=0.5)
        cfg = CVRunConfig(hidden=(3,), mc_samples=2, steps=10, predict_draws=20)
        ds = self._tiny_dataset()
        report = nested_cv(ds, spec, k1=3, k2=2, config=cfg, seed=2)
        assert report.k1 == 3
        sizes = [len(f) for f in np.array_split(np.arange(ds.n), 3)]
        assert sum(sizes) == ds.n

    def test_clean_data_selection_is_not_materially_worse_than_kl(self):
        # selection consistency: on clean data the winner cannot do
        # materially worse than the KL cell it competed against
        ds = normalize(gen_nonlinear(120, 3, seed=13))
        spec = GridSearchSpec(alpha_range=(0.5, 1.5), beta_range=(-0.5, 0.5), step=0.5)
        cfg = CVRunConfig(hidden=(4,), mc_samples=3, steps=150, predict_draws=100)
        rep = nested_cv(ds, spec, k1=2, k2=2, config=cfg, seed=3)
        assert rep.test_rmse_mean <= rep.kl_rmse_mean + 0.05

    def test_collected_reports_cover_every_fit(self):
        spec = GridSearchSpec(alpha_range=(1.0, 1.0), beta_range=(0.0, 0.0), step=0.5)
        cfg = CVRunConfig(hidden=(3,), mc_samples=2, steps=10, predict_draws=20)
        rep = nested_cv(self._tiny_dataset(), spec, k1=2, k2=2, config=cfg,
                        seed=1, collect_reports=True)
        # one cell, two folds: two inner fits plus one retrain per fold
        assert len(rep.train_reports) == 2 * 3
        assert "train_reports" in rep.to_dict()

    def test_deterministic_report(self):
        spec = GridSearchSpec(alpha_range=(0.5, 1.5), beta_range=(-0.5, 0.5), step=0.5)
        cfg = CVRunConfig(hidden=(3,), mc_samples=2, steps=10, predict_draws=20)
        ds = self._tiny_dataset()
        a = nested_cv(ds, spec, k1=2, k2=2, config=cfg, seed=3)
        b = nested_cv(ds, spec, k1=2, k2=2, config=cfg, seed=3)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_too_small_dataset_rejected(self):
        spec = GridSearchSpec(alpha_range=(1.0, 1.0), beta_range=(0.0, 0.0), step=0.5)
        with pytest.raises(ValueError):
            nested_cv(self._tiny_dataset(n=5), spec, k1=3, k2=2, seed=0)

    def test_constant_feature_inside_a_fold_is_named(self):
        # 'spike' varies only through one row, so the outer fold that holds
        # that row out trains on a constant column
        ds = self._tiny_dataset()
        spike = np.zeros((ds.n, 1))
        spike[0] = 1.0
        ds = Dataset.raw(np.hstack([ds.X, spike]), ds.y, ds.outlier_mask,
                         feature_names=("a", "b", "c", "spike"))
        spec = GridSearchSpec(alpha_range=(1.0, 1.0), beta_range=(0.0, 0.0), step=0.5)
        cfg = CVRunConfig(hidden=(3,), mc_samples=2, steps=2, predict_draws=5)
        with pytest.raises(CSVFormatError,
                           match="feature 'spike' on the training rows of outer fold"):
            nested_cv(ds, spec, k1=2, k2=2, config=cfg, seed=1)

    def test_every_fold_scaling_is_checked_before_the_first_training(self, monkeypatch):
        # 'spike' varies only through one row of outer fold 1, so fold 1
        # trains on a constant column; fold 0, which would train first, does not
        ds = self._tiny_dataset()
        perm = rng.generator(1, rng.compose_stream(rng.STREAM_FOLDS)).permutation(ds.n)
        spike = np.zeros((ds.n, 1))
        spike[np.array_split(perm, 2)[1][0]] = 1.0
        ds = Dataset.raw(np.hstack([ds.X, spike]), ds.y, ds.outlier_mask,
                         feature_names=("a", "b", "c", "spike"))
        trained, real_train_batch = [], experiments.train_batch

        def train_batch(cells, *args):
            trained.append(cells)
            return real_train_batch(cells, *args)

        monkeypatch.setattr(experiments, "train_batch", train_batch)
        spec = GridSearchSpec(alpha_range=(1.0, 1.0), beta_range=(0.0, 0.0), step=0.5)
        cfg = CVRunConfig(hidden=(3,), mc_samples=2, steps=2, predict_draws=5)
        with pytest.raises(CSVFormatError,
                           match="feature 'spike' on the training rows of outer fold 1"):
            nested_cv(ds, spec, k1=2, k2=2, config=cfg, seed=1)
        assert trained == []

    # three cells (0.5, 0.25), (1, 0.25), (1.5, 0.25) that share each split
    FAIL_GRID = GridSearchSpec(alpha_range=(0.5, 1.5), beta_range=(0.25, 0.25), step=0.5)
    FAIL_CONFIG = CVRunConfig(hidden=(3,), mc_samples=2, steps=5, predict_draws=10)

    def _diverge_on(self, monkeypatch, failing):
        # the cells of a split train as one batch: force a per-cell
        # divergence wherever failing(params, stream) holds
        real_train_batch = experiments.train_batch

        def train_batch(cells, q0, model, data, mc, opt, streams):
            reports = real_train_batch(cells, q0, model, data, mc, opt, streams)
            return [replace(report, diverged="forced divergence")
                    if failing(params, stream) else report
                    for params, stream, report in zip(cells, streams, reports)]

        monkeypatch.setattr(experiments, "train_batch", train_batch)

    def test_always_failing_cell_is_excluded_and_never_selected(self, monkeypatch):
        bad = (1.0, 0.25)
        self._diverge_on(monkeypatch, lambda p, stream: (p.alpha, p.beta) == bad)
        rep = nested_cv(self._tiny_dataset(), self.FAIL_GRID, k1=2, k2=2,
                        config=self.FAIL_CONFIG, seed=5, collect_reports=True)
        assert rep.excluded_cells == [list(bad)]
        assert rep.warnings == [
            "cell (alpha=1.0, beta=0.25) failed 4/4 fits; excluded from selection"]
        (row,) = [c for c in rep.cells if (c["alpha"], c["beta"]) == bad]
        assert (row["failures"], row["n_scores"], row["val_rmse_mean"]) == (4, 0, None)
        assert tuple(rep.selected) != bad
        assert all(tuple(f["selected"]) != bad for f in rep.folds)
        assert all((r["alpha"], r["beta"]) != bad for r in rep.train_reports)

    def test_cell_failing_half_its_fits_stays_selectable(self, monkeypatch):
        # both inner fits of outer fold 0 fail, both of fold 1 succeed: 2/4
        # is not more than half, so the cell is scored and not excluded
        seen = []

        def failing(p, stream):
            if (p.alpha, p.beta) != (1.5, 0.25):
                return False
            seen.append(p)
            return len(seen) <= 2

        self._diverge_on(monkeypatch, failing)
        rep = nested_cv(self._tiny_dataset(), self.FAIL_GRID, k1=2, k2=2,
                        config=self.FAIL_CONFIG, seed=5)
        assert rep.excluded_cells == [] and rep.warnings == []
        (row,) = [c for c in rep.cells if (c["alpha"], c["beta"]) == (1.5, 0.25)]
        assert (row["failures"], row["n_scores"]) == (2, 2)

    @staticmethod
    def _inner_fits_in_folds(folds_of_cell, k1=3, k2=2):
        """failing(params, stream) for the inner fits of each (alpha, beta)
        in the outer folds folds_of_cell names; retrainings never fail."""
        fold_of = {rng.compose_stream(rng.STREAM_TRAIN, f, c, j): f
                   for f in range(k1) for c in range(3) for j in range(k2)}
        return lambda p, stream: fold_of.get(stream) in folds_of_cell.get((p.alpha, p.beta), ())

    def test_excluded_cell_is_selected_by_no_fold(self, monkeypatch):
        # (1, 0.25) fails its inner fits in outer folds 1-2, 4/6 of them,
        # and (1.5, 0.25) both of fold 0.  A rule counting failures fold by
        # fold let fold 0 select (1, 0.25), and the vote then chose it.
        self._diverge_on(monkeypatch, self._inner_fits_in_folds(
            {(1.0, 0.25): (1, 2), (1.5, 0.25): (0,)}))
        rep = nested_cv(self._tiny_dataset(72), self.FAIL_GRID, k1=3, k2=2,
                        config=self.FAIL_CONFIG, seed=5)
        assert rep.excluded_cells == [[1.0, 0.25]]
        assert rep.warnings == [
            "cell (alpha=1.0, beta=0.25) failed 4/6 fits; excluded from selection"]
        assert [c["failures"] for c in rep.cells] == [0, 4, 2]
        assert [f["selected"] for f in rep.folds] == [[0.5, 0.25], [0.5, 0.25], [1.5, 0.25]]
        assert tuple(rep.selected) == (0.5, 0.25)

    def test_fold_whose_only_scored_cell_is_excluded_has_no_winner(self, monkeypatch):
        # (1, 0.25) fails 4/6 fits, all outside fold 0, and the other cells
        # fail every fit of fold 0: fold 0 has no cell it may select
        self._diverge_on(monkeypatch, self._inner_fits_in_folds(
            {(1.0, 0.25): (1, 2), (0.5, 0.25): (0,), (1.5, 0.25): (0,)}))
        with pytest.raises(TrainingDiverged, match="no trainable cell in outer fold 0"):
            nested_cv(self._tiny_dataset(72), self.FAIL_GRID, k1=3, k2=2,
                      config=self.FAIL_CONFIG, seed=5)

    def test_every_cell_failing_is_reported(self, monkeypatch):
        self._diverge_on(monkeypatch, lambda p, stream: True)
        with pytest.raises(TrainingDiverged, match="no trainable cell in outer fold 0"):
            nested_cv(self._tiny_dataset(), self.FAIL_GRID, k1=2, k2=2,
                      config=self.FAIL_CONFIG, seed=5)


class TestDataset:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Dataset.raw(np.zeros((3, 2)), np.zeros(4))
        ds = Dataset.raw(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1.0  # frozen storage
