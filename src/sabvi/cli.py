"""Command-line entry point.

Commands: ``divergence`` (evaluate between two densities), ``fit-density``
(Gaussian fit by divergence descent), ``gradcheck`` (finite-difference
diagnostics), ``toy`` (outlier-corrupted linear regression table) and
``uci`` (nested cross-validated grid search on a CSV).

Every run writes its fully resolved configuration to ``<out>/config.json``
next to the results; feeding that file back with ``--config`` reproduces
the outputs byte for byte.  A command checks all of its inputs before
`_start` creates ``--out``, so a refused run writes nothing.  Exit codes:
0 success, 1 diagnostic failure, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import gradcheck, vi
from .density_fit import FitObjective, Gaussian1D, fit_gaussian, moment_matched_init
from .density_spec import SpecError, check_start, parse_density_spec, read_json_file, tabulate
from .divergence import (DEFAULT_GRID_POINTS, DivergenceParams, DomainError, EvaluationError,
                         classify_region, eval_sab)
from .experiments import (
    CSVFormatError,
    CVRunConfig,
    GridSearchSpec,
    ToyRunConfig,
    corrupt,
    load_csv,
    nested_cv,
    normalize,
    run_toy_experiment,
)
from .models import model_from_config
from .optim import AdamConfig
from .vi import TrainingDiverged

EXIT_OK = 0
EXIT_DIAGNOSTIC = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _dump_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _resolve_params(config) -> DivergenceParams:
    alpha, lam, beta = config.get("alpha"), config.get("lam"), config.get("beta")
    if beta is None:
        raise ConfigError("beta is required")
    if (alpha is None) == (lam is None):
        raise ConfigError("give exactly one of --alpha or --lambda")
    # non-finite parameters are a bad request, not a numerical failure
    try:
        if alpha is None:
            return DivergenceParams.from_lambda(lam, beta)
        return DivergenceParams(alpha, beta)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _start(config: dict) -> Path:
    """Create --out and write config.json into it: the run's first write,
    made once the command has checked all of its inputs."""
    outdir = Path(config["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    _dump_json(outdir / "config.json", config)
    return outdir


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _density_spec(config: dict, key: str):
    """The density spec of --key; a bad spec or @FILE is a SpecError naming the flag."""
    try:
        return parse_density_spec(config[key])
    except (SpecError, OSError) as exc:
        raise SpecError(f"--{key}: {exc}") from exc


def cmd_divergence(config: dict) -> int:
    if not config.get("p") or not config.get("q"):
        raise ConfigError("divergence needs --p and --q density specs")
    specs = [_density_spec(config, key) for key in ("p", "q")]
    params = _resolve_params(config)
    p, q = tabulate(specs, config["grid_points"])
    outdir = _start(config)
    value = eval_sab(params, p, q)
    result = {"value": value, "region": classify_region(params).value,
              "alpha": params.alpha, "beta": params.beta, "lambda": params.lam}
    _dump_json(outdir / "results.json", result)
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def _fit_objective(config: dict) -> FitObjective:
    kind = config["divergence"]  # one of the option's choices, also in a replayed config
    if kind == "kl":
        return FitObjective.kl()
    if kind == "renyi":
        if config.get("alpha") is None:
            raise ConfigError("renyi fit needs --alpha")
        return FitObjective.renyi(config["alpha"])
    if kind == "gamma":
        if config.get("beta") is None:
            raise ConfigError("gamma fit needs --beta")
        return FitObjective.gamma(config["beta"])
    params = _resolve_params(config)
    return FitObjective.sab(params.alpha, params.beta)


def cmd_fit_density(config: dict) -> int:
    for key in ("init_mu", "init_log_sigma"):
        value = config.get(key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{key.replace('_', '-')} must be finite, got {value}")
    if config.get("init_log_sigma") is not None and config.get("init_mu") is None:
        raise ConfigError("--init-log-sigma needs --init-mu")
    spec = _density_spec(config, "target")
    # parameters on a limit surface (or non-finite) are a bad request, not
    # a numerical failure of the fit
    try:
        objective = _fit_objective(config)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    (target,) = tabulate([spec], config["grid_points"])

    if config.get("init_mu") is not None:
        log_sigma = config.get("init_log_sigma")
        init = Gaussian1D(config["init_mu"], 0.0 if log_sigma is None else log_sigma)
        try:
            check_start(target, init.mu, init.log_sigma)
        except SpecError as exc:
            raise ConfigError(f"--init-mu/--init-log-sigma: {exc}") from exc
    else:
        try:
            init = moment_matched_init(target)
        except EvaluationError as exc:
            raise ConfigError(f"--target: {exc}") from exc
    opt = AdamConfig(learning_rate=config["learning_rate"])
    outdir = _start(config)
    result = fit_gaussian(objective, target, init=init, opt=opt,
                          max_iters=config["max_iters"])

    payload = {"objective": objective.label(), **result.to_dict()}
    _dump_json(outdir / "results.json", payload)
    _write_csv(outdir / "trace.csv", ["iteration", "divergence"],
               [(i, repr(float(v))) for i, v in enumerate(result.divergence_trace)])
    fitted = result.final.tabulate(target)
    _write_csv(outdir / "densities.csv", ["x", "target_pdf", "fitted_pdf"],
               [(repr(float(x)), repr(float(tp)), repr(float(fp)))
                for x, tp, fp in zip(target.x, np.exp(target.log_values),
                                     np.exp(fitted.log_values))])
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(config: dict) -> int:
    outdir = _start(config)
    perturb = 0.01 if config.get("inject_gradient_error") else 0.0
    rows = gradcheck.run_suites(only=config.get("only"), seed=config["seed"],
                                perturb=perturb)
    _dump_json(outdir / "results.json", {"rows": rows})
    width = max(len(r["case"]) for r in rows)
    for r in rows:
        print(f"{r['suite']:12s} {r['case']:{width}s} "
              f"max_rel_err={r['max_rel_err']:.3e} "
              f"threshold={r['threshold']:.0e} {'ok' if r['ok'] else 'FAIL'}")
    failures = [r for r in rows if not r["ok"]]
    if failures:
        print(f"{len(failures)} gradient check(s) failed")
        return EXIT_DIAGNOSTIC
    print(f"all {len(rows)} gradient checks passed")
    return EXIT_OK


def _parse_settings(text: str, n_samples: int) -> list[tuple[float, float]]:
    """The (lambda, beta) pairs of --settings, each one finite and
    `vi.trainable` with n_samples MC samples."""
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            lam, beta = (float(v) for v in part.split(","))
            params = DivergenceParams.from_lambda(lam, beta)
        except ValueError:  # DomainError, for a non-finite setting, is one too
            raise ConfigError(f"--settings: bad setting {part!r}; want finite "
                              f"LAMBDA,BETA") from None
        if not vi.trainable(params):
            raise ConfigError(f"--settings: setting {part!r} is on a limit surface "
                              f"(alpha = lambda - beta, beta or lambda is 0), where "
                              f"only the KL corner 1,0 trains")
        if not vi.trainable(params, n_samples):
            raise ConfigError(f"--mc-samples must be at least {vi.MIN_SAB_SAMPLES} to train "
                              f"setting {part!r}, got {n_samples}")
        out.append((lam, beta))
    if not out:
        raise ConfigError("no settings given")
    return out


def cmd_toy(config: dict) -> int:
    settings = _parse_settings(config["settings"], config["mc_samples"])
    seeds = [config["seed_base"] + i for i in range(config["seeds"])]
    cfg = ToyRunConfig(n_train=config["train_size"], n_test=config["test_size"],
                       dim=config["dim"], p_outliers=config["outliers"],
                       mc_samples=config["mc_samples"], steps=config["steps"],
                       learning_rate=config["learning_rate"])
    outdir = _start(config)
    result = run_toy_experiment(settings, seeds, cfg, collect_reports=True)
    reports = result.pop("reports")
    _dump_json(outdir / "results.json", result)
    _dump_json(outdir / "reports.json", reports)
    _write_csv(outdir / "traces.csv", ["lambda", "beta", "seed", "step", "objective"],
               [(r["lambda"], r["beta"], r["seed"], step, repr(v))
                for r in reports for step, v in enumerate(r["trace"])])
    _write_csv(outdir / "table.csv",
               ["lambda", "beta", "alpha", "mae_mean", "mae_std", "mse_mean", "mse_std"],
               [(r["lambda"], r["beta"], r["alpha"], repr(r["mae_mean"]), repr(r["mae_std"]),
                 repr(r["mse_mean"]), repr(r["mse_std"])) for r in result["rows"]])
    for r in result["rows"]:
        print(f"(lambda={r['lambda']}, beta={r['beta']})  "
              f"MAE {r['mae_mean']:.4f} +/- {r['mae_std']:.4f}  "
              f"MSE {r['mse_mean']:.4f} +/- {r['mse_std']:.4f}")
    return EXIT_OK


# What `uci --full` runs, whatever the other flags say.
UCI_FULL_SCALE = {"grid_step": 0.25, "k1": 10, "k2": 2, "hidden": [50, 50],
                  "mc_samples": 25, "steps": 500}


def cmd_uci(config: dict) -> int:
    if not config.get("csv"):
        raise ConfigError("uci needs --csv")
    if min(config["hidden"]) < 1:
        raise ConfigError(f"--hidden sizes must be at least 1, got {config['hidden']}")
    dataset = normalize(load_csv(config["csv"], config["target_column"]))
    if config["corrupt"] > 0:
        dataset = corrupt(dataset, config["corrupt"], config["seed"])
    k1, k2 = config["k1"], config["k2"]
    if dataset.n < k1 * k2:
        raise ConfigError(f"--k1 {k1} x --k2 {k2} folds need at least {k1 * k2} rows, "
                          f"the CSV has {dataset.n}")
    cv_cfg = CVRunConfig(hidden=tuple(config["hidden"]),
                         mc_samples=config["mc_samples"], steps=config["steps"],
                         learning_rate=config["learning_rate"])
    if config.get("model_config"):
        try:
            model = model_from_config(read_json_file(config["model_config"]))
        except ValueError as exc:
            raise ConfigError(f"--model-config: {exc}") from exc
        if model.layer_sizes[0] != dataset.dim:
            raise ConfigError(f"model input size {model.layer_sizes[0]} does not "
                              f"match the {dataset.dim} CSV features")
        cv_cfg = replace(cv_cfg, hidden=model.layer_sizes[1:-1],
                         noise_sigma=model.noise_sigma, learn_noise=model.learn_noise)
    outdir = _start(config)  # nested_cv refuses a column constant on one outer fold
    report = nested_cv(dataset, GridSearchSpec(step=config["grid_step"]), k1=k1, k2=k2,
                       config=cv_cfg, seed=config["seed"], collect_reports=True)
    payload = report.to_dict()
    _dump_json(outdir / "reports.json", payload.pop("train_reports"))
    payload["model"] = cv_cfg.build_model(dataset.dim).to_config()
    _dump_json(outdir / "results.json", payload)
    _write_csv(outdir / "cells.csv",
               ["alpha", "beta", "lambda", "val_rmse_mean", "val_rmse_std", "failures"],
               [(c["alpha"], c["beta"], c["lambda"],
                 "" if c["val_rmse_mean"] is None else repr(c["val_rmse_mean"]),
                 "" if c["val_rmse_std"] is None else repr(c["val_rmse_std"]),
                 c["failures"]) for c in report.cells])
    _write_csv(outdir / "folds.csv",
               ["fold", "selected_alpha", "selected_beta", "test_rmse", "kl_test_rmse"],
               [(f["fold"], f["selected"][0], f["selected"][1],
                 repr(f["test_rmse"]), repr(f["kl_test_rmse"])) for f in report.folds])
    _write_csv(outdir / "heatmap.csv", ["alpha", "beta", "val_rmse_mean"],
               [(c["alpha"], c["beta"],
                 "" if c["val_rmse_mean"] is None else repr(c["val_rmse_mean"]))
                for c in report.cells])
    print(f"selected (alpha, beta) = {tuple(report.selected)}  "
          f"test RMSE {report.test_rmse_mean:.4f} +/- {report.test_rmse_std:.4f}  "
          f"KL cell RMSE {report.kl_rmse_mean:.4f}")
    return EXIT_OK


COMMANDS = {
    "divergence": cmd_divergence,
    "fit-density": cmd_fit_density,
    "gradcheck": cmd_gradcheck,
    "toy": cmd_toy,
    "uci": cmd_uci,
}


# ---------------------------------------------------------------------------
# argument parsing and config resolution
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sabvi",
        description="scale-invariant alpha-beta divergence toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory (required unless --config)")
        p.add_argument("--config", help="resolved config JSON from a previous run")

    p = sub.add_parser("divergence", help="evaluate the divergence between two densities")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", dest="lam", type=float,
                   help="alpha + beta (alternative to --alpha)")
    p.add_argument("--beta", type=float)
    p.add_argument("--p", help="first density spec")
    p.add_argument("--q", help="second density spec")
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)

    p = sub.add_parser("fit-density", help="fit a Gaussian by divergence descent")
    common(p)
    p.add_argument("--divergence", default="sab", choices=["sab", "kl", "renyi", "gamma"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--target", default="mixture:default")
    p.add_argument("--init-mu", type=float)
    p.add_argument("--init-log-sigma", type=float)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)

    p = sub.add_parser("gradcheck", help="finite-difference gradient diagnostics")
    common(p)
    p.add_argument("--only", action="append", choices=sorted(gradcheck.SUITES),
                   help="run a subset of suites (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-gradient-error", action="store_true",
                   help="negative control: perturb analytic gradients so checks fail")

    p = sub.add_parser("toy", help="outlier-corrupted linear regression table")
    common(p)
    p.add_argument("--settings", default="1.0,0.0;1.0,0.3;1.8,0.8;1.9,-0.3",
                   help="semicolon-separated LAMBDA,BETA pairs")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--outliers", type=float, default=0.05)
    p.add_argument("--train-size", type=int, default=1000)
    p.add_argument("--test-size", type=int, default=1000)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--mc-samples", type=int, default=5)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--learning-rate", type=float, default=0.01)

    p = sub.add_parser("uci", help="nested cross-validated grid search on a CSV")
    common(p)
    p.add_argument("--csv")
    p.add_argument("--target-column", default="y")
    p.add_argument("--corrupt", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-step", type=float, default=0.5)
    p.add_argument("--k1", type=int, default=5)
    p.add_argument("--k2", type=int, default=2)
    p.add_argument("--hidden", type=int, nargs="+", default=[10])
    p.add_argument("--mc-samples", type=int, default=5)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--model-config",
                   help="JSON model configuration file overriding the network shape")
    p.add_argument("--full", action="store_true",
                   help="full-scale settings: 0.25 grid step, 10 outer folds, "
                        "two 50-unit layers, 500 steps, 25 MC samples")

    return parser


def resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Either load a previous run's config verbatim or snapshot the CLI args,
    then apply the `uci --full` preset, which a replayed config already holds."""
    if args.config:
        config = read_json_file(args.config)
        if not isinstance(config, dict):
            raise ConfigError(f"config file must hold a JSON object, "
                              f"got {type(config).__name__}")
        if config.get("command") != args.command:
            raise ConfigError(
                f"config file is for {config.get('command')!r}, not {args.command!r}")
        missing = sorted(vars(args).keys() - {"config"} - config.keys())
        if missing:
            raise ConfigError(f"config file lacks field(s) {', '.join(missing)}")
        (commands,) = (action.choices for action in parser._actions
                       if action.dest == "command")
        _check_field_types(config, commands[args.command]._actions)
    else:
        config = {k: v for k, v in vars(args).items() if k != "config"}
    if args.command == "uci" and config["full"]:
        config = {**config, **UCI_FULL_SCALE}
    if not config.get("out"):
        raise ConfigError("--out is required (or pass --config with an out field)")
    return config


def _check_field_types(config: dict, actions) -> None:
    """Each config file field must hold what argparse makes of its option:
    a bool for a flag, a list for a repeated option, else the option's type
    (str if it has none; an int passes for a float, a bool never for an
    int), and null only where the option's default is None.  As on the
    command line, a value is one of the option's choices, if it has any,
    and a list holds at least one item unless its option has a default."""
    for action in actions:
        value = config.get(action.dest)
        if action.dest not in config or (value is None and action.default is None):
            continue
        kind = bool if action.nargs == 0 else action.type or str
        many = action.nargs == "+" or isinstance(action, argparse._AppendAction)
        items = value if many and isinstance(value, list) else [value]
        if isinstance(value, list) != many or not all(
                type(v) is kind or (kind is float and type(v) is int) for v in items):
            want = f"a list of {kind.__name__}" if many else kind.__name__
            raise ConfigError(f"config file field {action.dest} must be {want}, "
                              f"got {json.dumps(value)}")
        if many and not items and (action.nargs == "+" or action.default is None):
            raise ConfigError(f"config file field {action.dest} must hold at least one "
                              f"item, got []")
        for v in items:
            if action.choices is not None and v not in action.choices:
                raise ConfigError(f"config file field {action.dest} must be one of "
                                  f"{', '.join(map(json.dumps, action.choices))}, "
                                  f"got {json.dumps(v)}")


_MIN_COUNTS = {
    "divergence": {"grid_points": 2},
    "fit-density": {"grid_points": 2, "max_iters": 1},
    "toy": {"seeds": 1, "steps": 1, "mc_samples": 1, "dim": 1, "train_size": 1,
            "test_size": 1},
    # every grid holds sAB cells, so uci needs the sAB estimator's samples
    "uci": {"steps": 1, "mc_samples": vi.MIN_SAB_SAMPLES, "k1": 2, "k2": 2},
}
_FRACTIONS = {"toy": "outliers", "uci": "corrupt"}  # each must lie in [0, 1)
_SEEDS = {"toy": "seed_base", "uci": "seed", "gradcheck": "seed"}
_MAX_SEED = 2**64 - 1  # seeds key 64-bit Philox streams


def _validate(config: dict) -> None:
    """The checks shared across commands: counts, learning rate and grid
    step, fractions and seeds.  Each command checks the rest of its inputs
    itself, before `_start`."""
    cmd = config["command"]
    for key, least in _MIN_COUNTS.get(cmd, {}).items():
        if config[key] < least:
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"{flag} must be at least {least}, got {config[key]}")
    for key in ("learning_rate", "grid_step"):
        value = config.get(key)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--{key.replace('_', '-')} must be positive and finite, "
                              f"got {value}")
    if cmd in _FRACTIONS:
        key = _FRACTIONS[cmd]
        if not 0.0 <= config[key] < 1.0:
            raise ConfigError(f"--{key} must be in [0, 1), got {config[key]}")
    if cmd in _SEEDS:
        key = _SEEDS[cmd]
        seed, flag = config[key], "--" + key.replace("_", "-")
        if not 0 <= seed <= _MAX_SEED:
            raise ConfigError(f"{flag} must be in [0, 2**64 - 1], got {seed}")
        if cmd == "toy" and seed + config["seeds"] - 1 > _MAX_SEED:
            raise ConfigError(f"{flag} {seed} with --seeds {config['seeds']} runs past "
                              f"the largest seed, 2**64 - 1")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args, parser)
        _validate(config)
        return COMMANDS[config["command"]](config)
    except (ConfigError, SpecError, CSVFormatError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, FileExistsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvaluationError, DomainError, TrainingDiverged, np.linalg.LinAlgError) as exc:
        if isinstance(exc, TrainingDiverged):  # trainings run only after _start
            _dump_json(Path(config["out"]) / "error.json", {"error": str(exc)})
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
