import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sabvi import cli, experiments, vi
from sabvi.cli import main
from sabvi.divergence import DivergenceParams, DomainError, gaussian_log_pdf
from sabvi.experiments import CVRunConfig, Dataset, gen_nonlinear, save_csv
from sabvi.models import BLRModel, XYData
from sabvi.optim import AdamConfig


def run_cli(*args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestDivergenceCommand:
    def test_gaussian_kl_point(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("divergence", "--alpha", 1, "--beta", 0,
                       "--p", "gaussian:0,1", "--q", "gaussian:1,1", "--out", out)
        assert code == 0
        result = read_json(out / "results.json")
        assert result["value"] == pytest.approx(0.5, rel=1e-4)
        assert result["region"] == "BetaZero"
        assert "0.5" in capsys.readouterr().out

    def test_identical_densities_give_zero(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("divergence", "--alpha", 1.2, "--beta", 0.5,
                       "--p", "gaussian:0.3,1.1", "--q", "gaussian:0.3,1.1",
                       "--out", out) == 0
        assert abs(read_json(out / "results.json")["value"]) < 1e-10

    def test_sum_zero_region_reported(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("divergence", "--alpha", 2, "--beta", -2,
                       "--p", "gaussian:0,1", "--q", "gaussian:1,1", "--out", out) == 0
        assert read_json(out / "results.json")["region"] == "SumZero"

    def test_lambda_convention_accepted(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("divergence", "--lambda", 1.8, "--beta", 0.8,
                       "--p", "gaussian:0,1", "--q", "gaussian:1,1", "--out", out) == 0
        result = read_json(out / "results.json")
        assert result["alpha"] == pytest.approx(1.0)
        assert result["lambda"] == pytest.approx(1.8)

    def test_both_conventions_rejected(self, tmp_path):
        assert run_cli("divergence", "--alpha", 1, "--lambda", 1.8, "--beta", 0.8,
                       "--p", "gaussian:0,1", "--q", "gaussian:1,1",
                       "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize("params", [("--alpha", "nan", "--beta", 0.5),
                                        ("--lambda", "inf", "--beta", 0.5)])
    def test_non_finite_parameter_is_config_error(self, tmp_path, capsys, params):
        assert run_cli("divergence", *params, "--p", "gaussian:0,1", "--q", "gaussian:1,1",
                       "--out", tmp_path / "x") == 2
        assert "config error: alpha and beta must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,message", [
        ("gaussian:0,nan", "gaussian stddev must be finite"),
        ("gaussian:nan,1", "gaussian mean must be finite"),
        ("gaussian:0,inf", "gaussian stddev must be finite"),
        ('{"kind": "mixture", "components": [{"weight": 1.0, "location": NaN, '
         '"scale": 1.0, "shape": 0.0}]}', "component location must be finite"),
        ('{"kind": "grid", "lo": -1.0, "hi": 1.0, "n": 5, "log_values": [0.0, 0.0, 0.0]}',
         "n = 5 does not match the 3 log_values"),
        ('{"kind": "gaussian", "mean": true, "stddev": 1}', "--p: bad 'gaussian' density "
         "spec: mean must be a JSON number, got true"),
    ], ids=["nan_stddev", "nan_mean", "inf_stddev", "nan_location", "grid_n", "bool_mean"])
    def test_bad_density_spec_is_config_error(self, tmp_path, capsys, spec, message):
        out = tmp_path / "x"
        assert run_cli("divergence", "--alpha", 1.2, "--beta", 0.5, "--p", spec,
                       "--q", "gaussian:0,1", "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not (out / "results.json").exists()

    def test_missing_densities_is_config_error(self, tmp_path):
        assert run_cli("divergence", "--alpha", 1, "--beta", 0.5,
                       "--out", tmp_path / "x") == 2

    def test_floored_tail_is_numerical_error(self, tmp_path):
        spec = {"kind": "grid", "lo": -1.0, "hi": 1.0, "n": 101,
                "log_values": [0.0] * 50 + [-700.0] * 51}
        assert run_cli("divergence", "--alpha", -1.2, "--beta", 0.4,
                       "--p", json.dumps(spec), "--q", "gaussian:0,1",
                       "--out", tmp_path / "x") == 3

    def test_single_grid_point_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("divergence", "--alpha", 1, "--beta", 0.5, "--p", "gaussian:0,1",
                       "--q", "gaussian:1,1", "--grid-points", 1, "--out", out) == 2
        assert "--grid-points must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_specs_on_different_grids_are_config_error(self, tmp_path, capsys):
        def grid(n):
            x = np.linspace(-3.0, 3.0, n)
            return json.dumps({"kind": "grid", "lo": -3.0, "hi": 3.0, "n": n,
                               "log_values": gaussian_log_pdf(x, 0.0, 1.0).tolist()})

        out = tmp_path / "x"
        assert run_cli("divergence", "--alpha", 1.1, "--beta", 0.4, "--p", grid(201),
                       "--q", grid(101), "--out", out) == 2
        assert "grid-kind densities carry their own grid" in capsys.readouterr().err
        assert not (out / "results.json").exists()

    def test_json_density_specs(self, tmp_path):
        out = tmp_path / "run"
        p = json.dumps({"kind": "gaussian", "mean": 0.0, "stddev": 1.0})
        q = json.dumps({"kind": "mixture", "components": [
            {"weight": 1.0, "location": 0.0, "scale": 1.0, "shape": 0.0}]})
        assert run_cli("divergence", "--alpha", 1.1, "--beta", 0.4,
                       "--p", p, "--q", q, "--out", out) == 0
        assert abs(read_json(out / "results.json")["value"]) < 1e-9


class TestFitDensityCommand:
    def test_single_gaussian_recovery(self, tmp_path):
        out = tmp_path / "run"
        target = json.dumps({"kind": "mixture", "components": [
            {"weight": 1.0, "location": 0.4, "scale": 1.2, "shape": 0.0}]})
        assert run_cli("fit-density", "--divergence", "kl", "--target", target,
                       "--max-iters", 4000, "--out", out) == 0
        result = read_json(out / "results.json")
        assert result["mu"] == pytest.approx(0.4, abs=1e-3)
        assert result["sigma"] == pytest.approx(1.2, abs=1e-3)
        assert (out / "trace.csv").exists() and (out / "densities.csv").exists()

    def test_sab_fit_with_lambda(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("fit-density", "--divergence", "sab", "--lambda", 2.4,
                       "--beta", -1.0, "--max-iters", 600, "--out", out) == 0
        result = read_json(out / "results.json")
        assert result["objective"].startswith("sab(3.4")

    def test_renyi_requires_alpha(self, tmp_path):
        assert run_cli("fit-density", "--divergence", "renyi",
                       "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--grid-points", 1, "--grid-points must be at least 2"),
        ("--max-iters", 0, "--max-iters must be at least 1"),
        ("--learning-rate", 0, "--learning-rate must be positive"),
    ])
    def test_bad_argument_is_config_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x"
        assert run_cli("fit-density", "--divergence", "kl", flag, value, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("--divergence", "sab", "--alpha", 1, "--beta", 0),
        ("--divergence", "renyi", "--alpha", 1),
        ("--divergence", "gamma", "--beta", -1),
    ])
    def test_limit_parameters_are_config_errors(self, tmp_path, capsys, args):
        assert run_cli("fit-density", *args, "--out", tmp_path / "x") == 2
        assert "config error" in capsys.readouterr().err

    def test_init_mu_alone_starts_at_unit_sigma(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("fit-density", "--divergence", "kl", "--init-mu", 0.5,
                       "--max-iters", 1, "--out", out) == 0
        result = read_json(out / "results.json")
        assert (result["mu"], result["log_sigma"]) == (0.5, 0.0)

    @pytest.mark.parametrize("args,flag", [
        (("--init-mu", "nan"), "--init-mu"),
        (("--init-mu", 0.5, "--init-log-sigma", "inf"), "--init-log-sigma"),
    ])
    def test_non_finite_init_is_config_error(self, tmp_path, capsys, args, flag):
        assert run_cli("fit-density", "--divergence", "kl", *args,
                       "--out", tmp_path / "x") == 2
        assert f"{flag} must be finite" in capsys.readouterr().err

    def test_init_log_sigma_needs_init_mu(self, tmp_path, capsys):
        assert run_cli("fit-density", "--divergence", "kl", "--init-log-sigma", 0.3,
                       "--out", tmp_path / "x") == 2
        assert "--init-log-sigma needs --init-mu" in capsys.readouterr().err

    def test_floored_tail_mid_fit_is_numerical_error(self, tmp_path):
        # the Gaussian overshoots onto a clamped region of the target, where
        # the negative exponent of the sAB cross term is not evaluable
        x = np.linspace(-4.0, 4.0, 1601)
        log_values = np.where(x > 1.2, -700.0, gaussian_log_pdf(x, 1.1, 0.3))
        target = json.dumps({"kind": "grid", "lo": -4.0, "hi": 4.0, "n": 1601,
                             "log_values": log_values.tolist()})
        assert run_cli("fit-density", "--divergence", "sab", "--alpha", 1.5,
                       "--beta", -0.5, "--target", target, "--init-mu", -1.0,
                       "--init-log-sigma", math.log(0.1), "--learning-rate", 2.0,
                       "--max-iters", 50, "--out", tmp_path / "x") == 3

    def test_iterate_past_the_float_range_is_numerical_error(self, tmp_path, capsys):
        target = '{"kind": "grid", "lo": 0, "hi": 1e-200, "log_values": [0, 0, 0]}'
        assert run_cli("fit-density", "--divergence", "kl", "--target", target,
                       "--init-mu", 5e-201, "--init-log-sigma", -461, "--max-iters", 50,
                       "--out", tmp_path / "x") == 3
        assert "numerical error: the fit left the float range" in capsys.readouterr().err

    def test_iterate_the_grid_cannot_resolve_is_numerical_error(self, tmp_path, capsys):
        # a start the grid holds, but a step size that throws sigma past its width
        out = tmp_path / "x"
        assert run_cli("fit-density", "--divergence", "kl", "--target", "gaussian:0,1",
                       "--init-mu", 0, "--init-log-sigma", -2, "--learning-rate", 8,
                       "--max-iters", 3, "--out", out) == 3
        err = capsys.readouterr().err
        assert "numerical error: the fit's iterate 1: sigma exp(" in err
        assert "exceeds the grid's width 20" in err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("args,message", [
        (("--target", "gaussian:0,1e-300", "--init-mu", 0),
         "sigma exp(0.0) exceeds the grid's width 2e-299"),
        (("--target", "gaussian:0,1", "--init-mu", 0, "--init-log-sigma", -12),
         "sigma exp(-12.0) is below the grid's spacing 0.005, which cannot resolve it"),
        (("--target", "gaussian:0,1", "--init-mu", 1e6),
         "mu 1000000.0 lies outside the grid [-10.0, 10.0]"),
        (("--init-mu", 1e300), "mu 1e+300 lies outside the grid"),
        (("--init-mu", 0, "--init-log-sigma", -800),
         "sigma exp(-800.0) is below the grid's spacing"),
        (("--init-mu", 0, "--init-log-sigma", 800), "sigma exp(800.0) exceeds the grid's width"),
        (("--target", '{"kind": "grid", "lo": 0, "hi": 5e-324, "log_values": [0, 0, 0]}',
          "--init-mu", 0), "sigma exp(0.0) exceeds the grid's width 4.94066e-324"),
    ], ids=["narrow-target", "sigma-below-spacing", "mu-off-grid", "far-mu", "tiny-sigma",
            "huge-sigma", "zero-spacing"])
    def test_start_the_grid_cannot_hold_is_config_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "x"
        assert run_cli("fit-density", "--divergence", "kl", *args, "--max-iters", 5,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert "config error: --init-mu/--init-log-sigma: the start's " in err
        assert message in err
        assert not out.exists()


class TestGradcheckCommand:
    def test_default_run_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("gradcheck", "--out", out) == 0
        assert "all" in capsys.readouterr().out
        rows = read_json(out / "results.json")["rows"]
        assert all(r["ok"] for r in rows)
        assert max(r["max_rel_err"] for r in rows) < 1e-4

    def test_suite_filter(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("gradcheck", "--only", "models", "--out", out) == 0
        rows = read_json(out / "results.json")["rows"]
        assert {r["suite"] for r in rows} == {"models"}

    def test_injected_error_is_caught(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("gradcheck", "--only", "models",
                       "--inject-gradient-error", "--out", out) == 1
        assert "FAIL" in capsys.readouterr().out


class TestToyCommand:
    def test_tiny_run_writes_table(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("toy", "--settings", "1.0,0.0;1.9,-0.3", "--seeds", 1,
                       "--train-size", 60, "--test-size", 60, "--dim", 2,
                       "--steps", 25, "--mc-samples", 3, "--out", out)
        assert code == 0
        table = (out / "table.csv").read_text().strip().splitlines()
        assert table[0] == "lambda,beta,alpha,mae_mean,mae_std,mse_mean,mse_std"
        assert len(table) == 3
        reports = read_json(out / "reports.json")
        assert len(reports) == 2 and len(reports[0]["trace"]) == 25
        traces = (out / "traces.csv").read_text().strip().splitlines()
        assert len(traces) == 1 + 2 * 25
        assert "MAE" in capsys.readouterr().out

    def test_bad_settings_string(self, tmp_path):
        assert run_cli("toy", "--settings", "nope", "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize("flag,value", [("--steps", -1), ("--mc-samples", 0),
                                            ("--seeds", 0)])
    def test_bad_count_is_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run_cli("toy", flag, value, "--out", out) == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestUciCommand:
    @pytest.fixture
    def csv_path(self, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(gen_nonlinear(60, 3, seed=11), path)
        return path

    def test_tiny_grid_run(self, tmp_path, csv_path, capsys):
        out = tmp_path / "run"
        code = run_cli("uci", "--csv", csv_path, "--corrupt", 0.1, "--grid-step", 1.0,
                       "--k1", 2, "--k2", 2, "--hidden", 3, "--steps", 10,
                       "--mc-samples", 2, "--seed", 4, "--out", out)
        assert code == 0
        result = read_json(out / "results.json")
        assert len(result["folds"]) == 2
        assert result["model"]["kind"] == "bnn"
        assert (out / "cells.csv").exists() and (out / "heatmap.csv").exists()
        reports = read_json(out / "reports.json")
        assert all(len(r["trace"]) == 10 for r in reports)
        assert {r["role"] for r in reports} >= {"inner-0", "inner-1", "retrain"}
        assert "selected" in capsys.readouterr().out

    def test_model_config_file(self, tmp_path, csv_path):
        model_cfg = tmp_path / "model.json"
        model_cfg.write_text(json.dumps(
            {"kind": "bnn", "layer_sizes": [3, 4, 1], "noise_sigma": 0.05}))
        out = tmp_path / "run"
        code = run_cli("uci", "--csv", csv_path, "--grid-step", 2.0, "--k1", 2,
                       "--k2", 2, "--steps", 5, "--mc-samples", 2,
                       "--model-config", model_cfg, "--out", out)
        assert code == 0
        model = read_json(out / "results.json")["model"]
        assert model["layer_sizes"] == [3, 4, 1]
        assert json.dumps(model, sort_keys=True) == (
            '{"kind": "bnn", "layer_sizes": [3, 4, 1], "learn_noise": false, '
            '"noise_sigma": 0.05, "prior_sigma": 1.0}')

    def test_model_config_dim_mismatch(self, tmp_path, csv_path):
        model_cfg = tmp_path / "model.json"
        model_cfg.write_text(json.dumps({"kind": "bnn", "layer_sizes": [7, 4, 1]}))
        assert run_cli("uci", "--csv", csv_path, "--grid-step", 2.0,
                       "--model-config", model_cfg, "--out", tmp_path / "x") == 2

    def test_missing_csv_is_config_error(self, tmp_path):
        assert run_cli("uci", "--out", tmp_path / "x") == 2

    def test_nan_cell_is_config_error(self, tmp_path, csv_path, capsys):
        lines = csv_path.read_text().splitlines()
        lines[5] = ",".join(["nan"] + lines[5].split(",")[1:])
        csv_path.write_text("\n".join(lines) + "\n")
        assert run_cli("uci", "--csv", csv_path, "--grid-step", 2.0, "--k1", 2, "--k2", 2,
                       "--steps", 2, "--mc-samples", 2, "--out", tmp_path / "x") == 2
        assert "non-finite cell 'nan' at row 6" in capsys.readouterr().err

    def test_config_echo_reproduces_outputs(self, tmp_path, csv_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["uci", "--csv", csv_path, "--corrupt", 0.1, "--grid-step", 1.0,
                "--k1", 2, "--k2", 2, "--hidden", 3, "--steps", 8,
                "--mc-samples", 2, "--seed", 4]
        assert run_cli(*args, "--out", out1) == 0
        config = read_json(out1 / "config.json")
        config["out"] = str(out2)
        rerun_cfg = tmp_path / "rerun.json"
        rerun_cfg.write_text(json.dumps(config))
        assert run_cli("uci", "--config", rerun_cfg) == 0
        assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
        for name in ("cells.csv", "folds.csv", "heatmap.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("config,message", [
        # the grid search trains with a unit prior; another one would be ignored
        ({"kind": "bnn", "layer_sizes": [3, 4, 1], "prior_sigma": 2.0}, "prior_sigma 2.0"),
        ({"kind": "gp"}, "unknown model kind 'gp'"),
        ([1, 2], "model config must be a JSON object, got list"),
        ("bnn", "model config must be a JSON object, got str"),
        ({"kind": "bnn", "layer_sizes": [3, 4, 1], "noise_sigma": "x"},
         "field 'noise_sigma' must be a finite positive number, got 'x'"),
        ({"kind": "bnn", "layer_sizes": [3, 4, 1], "noise_sigma": -1},
         "field 'noise_sigma' must be a finite positive number, got -1"),
        ({"kind": "bnn", "layer_sizes": [3, 4, 1], "prior_sigma": math.nan},
         "field 'prior_sigma' must be a finite positive number, got nan"),
        ({"kind": "bnn", "layer_sizes": 3}, "field 'layer_sizes' must be a list, got 3"),
        ({"kind": "bnn", "layer_sizes": [3, None, 1]},
         "field 'layer_sizes' must be a finite positive number, got None"),
        ({"kind": "bnn", "layer_sizes": [3, 3.5, 1]},
         "field 'layer_sizes' must be an integer of at least 1, got 3.5"),
        ({"kind": "bnn", "layer_sizes": [3, True, 1]},
         "field 'layer_sizes' must be a finite positive number, got True"),
        ({"kind": "bnn", "layer_sizes": [3, 4, 1], "learn_noise": "false"},
         "field 'learn_noise' must be true or false, got 'false'"),
        ({"kind": "bnn", "layer_sizes": [3, 4, 1], "learn_noise": 0},
         "field 'learn_noise' must be true or false, got 0"),
        # the grid search trains networks, so "bnn" is the one kind
        ({"kind": "blr", "input_dim": 3},
         "unknown model kind 'blr'; a model config describes a 'bnn' network"),
        # integers beyond the float range
        ({"kind": "bnn", "layer_sizes": [3, 4, 1], "noise_sigma": 10**400},
         "field 'noise_sigma' must be a finite positive number, got 1000"),
        ({"kind": "bnn", "layer_sizes": [3, 10**400, 1]},
         "field 'layer_sizes' must be a finite positive number, got 1000"),
    ], ids=["prior_sigma", "kind", "list", "string", "noise_sigma_string",
            "noise_sigma_negative", "prior_sigma_nan", "layer_sizes_number",
            "layer_sizes_null", "layer_sizes_fraction", "layer_sizes_bool",
            "learn_noise_string", "learn_noise_int", "blr_kind", "noise_sigma_huge_int",
            "layer_sizes_huge_int"])
    def test_bad_model_config_is_config_error(self, tmp_path, csv_path, capsys, config,
                                              message):
        model_cfg = tmp_path / "model.json"
        model_cfg.write_text(json.dumps(config))
        out = tmp_path / "x"
        assert run_cli("uci", "--csv", csv_path, "--grid-step", 2.0, "--k1", 2,
                       "--model-config", model_cfg, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not (out / "results.json").exists()

    def test_full_preset_reaches_the_grid_search(self, tmp_path, csv_path, monkeypatch):
        seen = {}

        class Captured(Exception):
            pass

        def fake_nested_cv(dataset, grid, **kwargs):
            seen.update(grid=grid, **kwargs)
            raise Captured

        monkeypatch.setattr(cli, "nested_cv", fake_nested_cv)
        # the preset replaces --mc-samples 1 before it is validated
        with pytest.raises(Captured):
            run_cli("uci", "--csv", csv_path, "--full", "--mc-samples", 1,
                    "--out", tmp_path / "x")
        assert seen["grid"].step == 0.25 and len(seen["grid"].cells()) == 137
        assert (seen["k1"], seen["k2"]) == (10, 2)
        assert seen["config"] == CVRunConfig(hidden=(50, 50), mc_samples=25, steps=500)
        # config.json records what the run used, and replays to the same run
        config = read_json(tmp_path / "x" / "config.json")
        assert {key: config[key] for key in cli.UCI_FULL_SCALE} == cli.UCI_FULL_SCALE
        seen.clear()
        with pytest.raises(Captured):
            run_cli("uci", "--config", tmp_path / "x" / "config.json")
        assert seen["config"] == CVRunConfig(hidden=(50, 50), mc_samples=25, steps=500)

    def test_config_command_mismatch(self, tmp_path, csv_path):
        out = tmp_path / "run"
        assert run_cli("toy", "--settings", "1.0,0.0", "--seeds", 1,
                       "--train-size", 40, "--test-size", 40, "--dim", 2,
                       "--steps", 5, "--mc-samples", 2, "--out", out) == 0
        assert run_cli("uci", "--config", out / "config.json") == 2


class TestArgumentErrors:
    @pytest.mark.parametrize("args,message", [
        (["toy", "--dim", 0], "--dim must be at least 1"),
        (["toy", "--train-size", 0], "--train-size must be at least 1"),
        (["toy", "--test-size", 0], "--test-size must be at least 1"),
        (["toy", "--outliers", 1.5], "--outliers must be in [0, 1)"),
        (["uci", "--k1", 1], "--k1 must be at least 2"),
        (["uci", "--k2", 1], "--k2 must be at least 2"),
        (["uci", "--grid-step", 0], "--grid-step must be positive"),
        (["uci", "--hidden", 4, 0], "--hidden sizes must be at least 1"),
        (["uci", "--k1", 100], "--k1 100 x --k2 2 folds need at least 200 rows"),
        (["toy", "--settings", "nan,0.5"], "--settings: bad setting 'nan,0.5'"),
        (["toy", "--settings", "1,0;inf,0.5"], "--settings: bad setting 'inf,0.5'"),
        (["toy", "--settings", "0.5,0.5"], "--settings: setting '0.5,0.5' is on a limit"),
        (["toy", "--settings", "1,0.3;1,1"], "--settings: setting '1,1' is on a limit"),
        (["toy", "--settings", "1,0;1.8,0.8", "--mc-samples", 1],
         "--mc-samples must be at least 2 to train setting '1.8,0.8', got 1"),
        (["uci", "--mc-samples", 1], "--mc-samples must be at least 2, got 1"),
        (["toy", "--seed-base", -1], "--seed-base must be in [0, 2**64 - 1], got -1"),
        (["toy", "--seed-base", 2**64 - 2, "--seeds", 3],
         f"--seed-base {2**64 - 2} with --seeds 3 runs past the largest seed"),
        (["uci", "--seed", -1], "--seed must be in [0, 2**64 - 1], got -1"),
        (["uci", "--seed", 2**64], f"--seed must be in [0, 2**64 - 1], got {2**64}"),
        (["gradcheck", "--seed", -1], "--seed must be in [0, 2**64 - 1], got -1"),
    ], ids=lambda v: " ".join(map(str, v)) if isinstance(v, list) else None)
    def test_bad_argument_exits_2_naming_the_flag(self, tmp_path, capsys, args, message):
        path = tmp_path / "data.csv"
        save_csv(gen_nonlinear(40, 3, seed=11), path)
        extra = ["--csv", path] if args[0] == "uci" else []
        assert run_cli(*args, *extra, "--out", tmp_path / "x") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        ("[1]", "config file must hold a JSON object, got list"),
        ('{"command": "toy"}', "config file lacks field(s) dim, learning_rate, mc_samples, "
                               "out, outliers, seed_base, seeds, settings, steps, "
                               "test_size, train_size"),
        # a dict edits one field of a valid toy config
        ({"seeds": "2"}, 'config file field seeds must be int, got "2"'),
        ({"seeds": 2.5}, "config file field seeds must be int, got 2.5"),
        ({"seeds": True}, "config file field seeds must be int, got true"),
        ({"learning_rate": "0.1"}, 'config file field learning_rate must be float, got "0.1"'),
        ({"steps": None}, "config file field steps must be int, got null"),
        ({"settings": 5}, "config file field settings must be str, got 5"),
        ({"out": None}, "--out is required (or pass --config with an out field)"),
    ])
    def test_bad_config_file_exits_2_naming_the_cause(self, tmp_path, capsys, content,
                                                      message):
        if isinstance(content, dict):
            args = cli.build_parser().parse_args(["toy", "--out", str(tmp_path / "run")])
            config = {k: v for k, v in vars(args).items() if k != "config"}
            content = json.dumps({**config, **content})
        path = tmp_path / "config.json"
        path.write_text(content)
        assert run_cli("toy", "--config", path) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,field,message", [
        ("gradcheck", {"only": ["nope"]},
         'config file field only must be one of "density-fit", "mc", "models", got "nope"'),
        ("gradcheck", {"only": []}, "config file field only must hold at least one item"),
        ("uci", {"hidden": []}, "config file field hidden must hold at least one item"),
        ("fit-density", {"divergence": "hellinger"},
         'config file field divergence must be one of "sab", "kl", "renyi", "gamma", '
         'got "hellinger"'),
    ])
    def test_replayed_config_keeps_choices_and_one_or_more(self, tmp_path, capsys, command,
                                                          field, message):
        out = tmp_path / "run"
        args = cli.build_parser().parse_args([command, "--out", str(out)])
        config = {k: v for k, v in vars(args).items() if k != "config"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, **field}))
        assert run_cli(command, "--config", path) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_missing_one_field_names_it(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("toy", "--settings", "1.0,0.0", "--seeds", 1, "--train-size", 20,
                       "--test-size", 20, "--dim", 2, "--steps", 2, "--mc-samples", 2,
                       "--out", out) == 0
        config = read_json(out / "config.json")
        del config["seed_base"]
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(config))
        assert run_cli("toy", "--config", path) == 2
        assert "config file lacks field(s) seed_base" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["csv-dir", "config-dir", "spec-dir", "csv-not-utf8",
                                      "csv-target-only", "out-file", "out-under-file"])
    def test_unusable_path_exits_2_naming_it(self, tmp_path, capsys, case):
        folder, file = tmp_path / "folder", tmp_path / "file.txt"
        folder.mkdir()
        file.write_bytes(b"\xff\xfe,y\n1,2\n")  # not UTF-8
        csv_path, target_only = tmp_path / "data.csv", tmp_path / "y.csv"
        save_csv(gen_nonlinear(40, 3, seed=11), csv_path)
        target_only.write_text("y\n1\n2\n3\n4\n")
        out = tmp_path / "run"
        uci = ["uci", "--k1", 2]
        args, named = {
            "csv-dir": (uci + ["--csv", folder, "--out", out], folder),
            "config-dir": (["toy", "--config", folder], folder),
            "spec-dir": (["divergence", "--alpha", 1, "--beta", 0.5, "--p", f"@{folder}",
                          "--q", "gaussian:0,1", "--out", out], folder),
            "csv-not-utf8": (uci + ["--csv", file, "--out", out], file),
            "csv-target-only": (uci + ["--csv", target_only, "--out", out], target_only),
            "out-file": (uci + ["--csv", csv_path, "--out", file], file),
            "out-under-file": (uci + ["--csv", csv_path, "--out", file / "sub"], file / "sub"),
        }[case]
        assert run_cli(*args) == 2
        assert str(named) in capsys.readouterr().err


    @pytest.mark.parametrize("fault,message", [(b'{"kind": "gaussian",\n', "not valid JSON"),
                                               (b"\xff\xfe", "not UTF-8 text")],
                             ids=["truncated", "not-utf8"])
    @pytest.mark.parametrize("flag", ["--config", "--p", "--model-config"])
    def test_unreadable_json_file_exits_2_naming_it(self, tmp_path, capsys, flag, fault,
                                                    message):
        path, csv_path, out = tmp_path / "input.json", tmp_path / "data.csv", tmp_path / "run"
        path.write_bytes(fault)
        save_csv(gen_nonlinear(40, 3, seed=11), csv_path)
        args = {
            "--config": ["toy", "--config", path],
            "--p": ["divergence", "--alpha", 1, "--beta", 0.5, "--p", f"@{path}",
                    "--q", "gaussian:0,1", "--out", out],
            "--model-config": ["uci", "--csv", csv_path, "--model-config", path,
                               "--out", out],
        }[flag]
        assert run_cli(*args) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("args,shown", [
        (["divergence", "--alpha", 1, "--beta", 0.5, "--p", "gaussian:1e308,1",
          "--q", "gaussian:1e308,1"], "[1e+308, 1e+308]"),
        (["fit-density", "--divergence", "kl", "--target", "gaussian:1e20,1e-10"],
         "[1e+20, 1e+20]"),
    ], ids=["divergence", "fit-density"])
    def test_collapsed_shared_grid_exits_2_naming_the_range(self, tmp_path, capsys, args,
                                                            shown):
        out = tmp_path / "run"
        assert run_cli(*args, "--out", out) == 2
        assert f"config error: the densities' shared grid range {shown}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["inline", "file"])
    @pytest.mark.parametrize("flag", ["--p", "--q", "--target"])
    def test_malformed_density_spec_exits_2_naming_its_flag(self, tmp_path, capsys, flag,
                                                            fault):
        path, out = tmp_path / "spec.json", tmp_path / "run"
        path.write_text('{"kind": "gaussian",\n')
        spec = '{"kind": "gaussian",' if fault == "inline" else f"@{path}"
        args = {"--p": ["divergence", "--alpha", 1, "--beta", 0.5, "--p", spec,
                        "--q", "gaussian:0,1"],
                "--q": ["divergence", "--alpha", 1, "--beta", 0.5, "--p", "gaussian:0,1",
                        "--q", spec],
                "--target": ["fit-density", "--divergence", "kl", "--target", spec]}[flag]
        assert run_cli(*args, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"config error: {flag}: " in err and "not valid JSON" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--p", "--target"])
    def test_missing_spec_file_names_its_flag(self, tmp_path, capsys, flag):
        path, out = tmp_path / "absent.json", tmp_path / "run"
        args = (["divergence", "--alpha", 1, "--beta", 0.5, "--p", f"@{path}",
                 "--q", "gaussian:0,1"] if flag == "--p"
                else ["fit-density", "--divergence", "kl", "--target", f"@{path}"])
        assert run_cli(*args, "--out", out) == 2
        assert f"config error: {flag}: " in capsys.readouterr().err
        assert not out.exists()

    # (value of most rows, value of row 7) of feature 'b', or None for a
    # constant target.  Only row 7 sets 'b' apart in the rare cases, so the
    # outer fold that holds it out trains on a constant column; after
    # normalization, the std of 2.7's copies rounds to 5.6e-17, not 0.
    @pytest.mark.parametrize("column,message", [
        ((2.0, 2.0), "zero variance feature 'b'"),
        (None, "zero variance target"),
        ((0.0, 1.0), "zero variance feature 'b' on the training rows of outer fold"),
        ((2.7, 3.7), "zero variance feature 'b' on the training rows of outer fold"),
    ], ids=["feature", "target", "rare-feature", "rare-feature-rounded"])
    def test_constant_csv_column_exits_2_naming_it(self, tmp_path, capsys, column, message):
        ds = gen_nonlinear(40, 3, seed=11)
        X, y = ds.X.copy(), ds.y.copy()
        if column is None:
            y[:] = 0.5
        else:
            X[:, 1], X[7, 1] = column
        path = tmp_path / "data.csv"
        save_csv(Dataset.raw(X, y, feature_names=("a", "b", "c")), path)
        assert run_cli("uci", "--csv", path, "--grid-step", 2.0, "--hidden", 3, "--steps", 2,
                       "--mc-samples", 2, "--out", tmp_path / "run") == 2
        assert message in capsys.readouterr().err


class TestToyRefusesWhatTheTrainerRefuses:
    # (lambda, beta): a generic point, the KL corner, alpha = 0, beta = 0,
    # lambda = 0 and the origin
    @pytest.mark.parametrize("setting", ["1.8,0.8", "1,0", "0.5,0.5", "0.5,0", "0,0.5", "0,0"])
    @pytest.mark.parametrize("mc_samples", [1, 3])
    def test_settings_exit_2_exactly_when_train_batch_raises(self, tmp_path, setting,
                                                             mc_samples):
        params = DivergenceParams.from_lambda(*map(float, setting.split(",")))
        model = BLRModel(input_dim=1)
        try:
            vi.train_batch([params], vi.MeanFieldGaussian.initial(model.dim), model,
                           XYData(np.zeros((4, 1)), np.zeros(4)), vi.MCConfig(mc_samples),
                           AdamConfig(steps=1), [0])
            refused = False
        except DomainError:
            refused = True
        code = run_cli("toy", "--settings", setting, "--seeds", 1, "--train-size", 10,
                       "--test-size", 10, "--dim", 1, "--steps", 2,
                       "--mc-samples", mc_samples, "--out", tmp_path / "run")
        assert code == (2 if refused else 0)


class TestTrainingDivergedWritesError:
    @pytest.mark.parametrize("command", ["toy", "uci"])
    def test_error_json_and_numerical_exit(self, tmp_path, capsys, monkeypatch, command):
        real_train_batch = experiments.train_batch

        def train_batch(*args):  # both harnesses' training entry
            return [replace(report, diverged="forced divergence")
                    for report in real_train_batch(*args)]

        monkeypatch.setattr(experiments, "train_batch", train_batch)
        path = tmp_path / "data.csv"
        save_csv(gen_nonlinear(40, 3, seed=11), path)
        args, message = {
            "toy": (["toy", "--settings", "1.0,0.0", "--seeds", 1], "forced divergence"),
            "uci": (["uci", "--csv", path, "--k1", 2], "no trainable cell in outer fold 0"),
        }[command]
        out = tmp_path / "run"
        assert run_cli(*args, "--out", out) == 3
        assert message in read_json(out / "error.json")["error"]
        assert "numerical error" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["toy", "uci"])
    def test_a_q_past_the_float_range_is_a_numerical_error(self, tmp_path, capsys, command):
        # a first step of lr 1e300 sends some log sigma to about 1e300, where
        # sigma is inf, and the runs end before the cell gives up
        path = tmp_path / "data.csv"
        save_csv(gen_nonlinear(40, 3, seed=1), path)
        args, message = {
            "toy": (["toy", "--settings", "1.8,0.8", "--seeds", 1, "--steps", 3,
                     "--train-size", 20, "--test-size", 5],
                    "q's sigma not finite after the last step at (alpha=1.0, beta=0.8)"),
            "uci": (["uci", "--csv", path, "--k1", 2, "--k2", 2, "--steps", 2,
                     "--grid-step", 1.5], "no trainable cell in outer fold 0"),
        }[command]
        out = tmp_path / "run"
        assert run_cli(*args, "--learning-rate", 1e300, "--out", out) == 3
        assert message in read_json(out / "error.json")["error"]
        assert "numerical error" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == ["config.json", "error.json"]


TOY_RUN = ["toy", "--settings", "1.0,0.0", "--seeds", 1, "--train-size", 20,
           "--test-size", 20, "--dim", 2, "--steps", 2, "--mc-samples", 2]


def _grid_spec(n):
    x = np.linspace(-3.0, 3.0, n)
    return json.dumps({"kind": "grid", "lo": -3.0, "hi": 3.0, "n": n,
                       "log_values": gaussian_log_pdf(x, 0.0, 1.0).tolist()})


class TestRefusedRunWritesNothing:
    # refusals found once the command reads its own inputs: (arguments
    # given the input files, message)
    REFUSALS = {
        "alpha-and-lambda": (lambda paths: [
            "divergence", "--alpha", 1, "--lambda", 1.8, "--beta", 0.8,
            "--p", "gaussian:0,1", "--q", "gaussian:1,1"],
            "give exactly one of --alpha or --lambda"),
        "renyi-without-alpha": (lambda paths: ["fit-density", "--divergence", "renyi"],
                                "renyi fit needs --alpha"),
        "sab-on-a-limit": (lambda paths: ["fit-density", "--divergence", "sab",
                                          "--alpha", 1, "--beta", 0],
                           "sab(1.0,0.0) = sAB(1.0, 0.0) lies on the limit surface BetaZero"),
        "grids-differ": (lambda paths: ["divergence", "--alpha", 1.1, "--beta", 0.4,
                                        "--p", _grid_spec(201), "--q", _grid_spec(101)],
                         "grid-kind densities carry their own grid"),
        "folds-over-rows": (lambda paths: ["uci", "--csv", paths["csv"], "--k1", 100],
                            "--k1 100 x --k2 2 folds need at least 200 rows"),
        "bad-model-config": (lambda paths: ["uci", "--csv", paths["csv"],
                                            "--model-config", paths["model"]],
                             "model input size 7 does not match the 3 CSV features"),
        "constant-column": (lambda paths: ["uci", "--csv", paths["constant"]],
                            "zero variance feature 'b'"),
        "target-too-narrow": (lambda paths: ["fit-density", "--divergence", "kl",
                                             "--target", "gaussian:0,1e-300"],
                              "--target: the target's quadrature mean"),
        "grid-too-coarse": (lambda paths: ["divergence", "--alpha", 1, "--beta", 0.5,
                                           "--p", "gaussian:0,1e-9", "--q", "gaussian:0,1"],
                            "spacing 0.005 exceeds the smallest density scale 1e-09"),
        "grid-points-below-21": (lambda paths: ["divergence", "--alpha", 1, "--beta", 0.5,
                                                "--p", "gaussian:0,1", "--q", "gaussian:0,1",
                                                "--grid-points", 20],
                                 "spacing 1.05263 exceeds the smallest density scale 1"),
    }

    @staticmethod
    def _inputs(tmp_path):
        paths = {name: tmp_path / name for name in ("csv", "constant", "model")}
        ds = gen_nonlinear(40, 3, seed=11)
        save_csv(ds, paths["csv"])
        X = ds.X.copy()
        X[:, 1] = 2.0
        save_csv(Dataset.raw(X, ds.y, feature_names=("a", "b", "c")), paths["constant"])
        paths["model"].write_text(json.dumps({"kind": "bnn", "layer_sizes": [7, 4, 1]}))
        return paths

    @staticmethod
    def _files(folder):
        return {path.name: path.read_bytes() for path in folder.iterdir()}

    @pytest.mark.parametrize("refusal", list(REFUSALS))
    def test_refusal_leaves_out_untouched(self, tmp_path, capsys, refusal):
        build, message = self.REFUSALS[refusal]
        args = build(self._inputs(tmp_path))
        run, fresh = tmp_path / "run", tmp_path / "fresh"
        assert run_cli(*TOY_RUN, "--out", run) == 0
        before = self._files(run)
        capsys.readouterr()
        assert run_cli(*args, "--out", run) == 2
        assert message in capsys.readouterr().err
        assert self._files(run) == before
        # the earlier run still replays, byte for byte
        assert run_cli("toy", "--config", run / "config.json") == 0
        assert self._files(run) == before
        assert run_cli(*args, "--out", fresh) == 2
        assert not fresh.exists()

    @pytest.mark.parametrize("args,parsed", [
        (["divergence", "--alpha", 1.1, "--beta", 0.4, "--p", "gaussian:0,1",
          "--q", "gaussian:1,1"], ["gaussian:0,1", "gaussian:1,1"]),
        (["fit-density", "--divergence", "kl", "--target", "gaussian:0,1",
          "--max-iters", 1], ["gaussian:0,1"]),
        (TOY_RUN, ["1.0,0.0"]),
    ], ids=["divergence", "fit-density", "toy"])
    def test_each_spec_and_settings_string_is_parsed_once(self, tmp_path, monkeypatch,
                                                          args, parsed):
        seen = []

        def spy(real):
            def parse(text, *rest):
                seen.append(text)
                return real(text, *rest)
            return parse

        monkeypatch.setattr(cli, "parse_density_spec", spy(cli.parse_density_spec))
        monkeypatch.setattr(cli, "_parse_settings", spy(cli._parse_settings))
        assert run_cli(*args, "--out", tmp_path / "run") == 0
        assert seen == parsed
