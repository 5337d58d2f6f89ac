"""Dataset handling and the two experiment harnesses.

The toy harness fits Bayesian linear regression to synthetic data whose
training targets are partially shifted by a constant outlier offset, then
scores each divergence setting on a fresh clean test draw.  The
cross-validation harness runs a nested grid search over (alpha, beta) for
a small Bayesian network on a corrupted regression table.  Every fit is
train, predict, score, through one `_train_and_score`: the toy settings
of one seed, like the grid cells of one data split, train as one batch
(`vi.train_batch`), which is exact because a model row's log joint does
not depend on the other rows of its batch.

Corruption bookkeeping: `corrupt` adds OUTLIER_SHIFT to the normalized
target at a sampled index set and records the mask, so evaluation code can
always recover the clean targets (training always sees the corrupted
values, validation and test scores never do).

Random streams: every task gets its own counter-based stream composed from
a purpose id and the (fold, cell, split) indices, so grid cells and folds
are independent and a rerun with the same seed reproduces every file
byte for byte.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .divergence import DivergenceParams
from .models import BLRModel, BNNModel, XYData, predict
from .optim import AdamConfig
from .vi import KL_CORNER, MCConfig, MeanFieldGaussian, TrainingDiverged, train_batch, trainable
# `train` is not called here: the traced benchmark (perfbench/layers.py)
# wraps it as this module's attribute, so the name has to stay importable.
from .vi import train  # noqa: F401

OUTLIER_SHIFT = 5.0
TOY_WEIGHT = 0.5
TOY_NOISE_SIGMA = 0.1
TOY_OUTLIER_X_SIGMA = 0.2
# nested CV streams a grid cell by its index, and the retraining and the KL
# baseline by the next two, all within rng's 16-bit task indices
MAX_GRID_CELLS = rng.INDEX_LIMIT - 2


@dataclass(frozen=True)
class Dataset:
    """A regression table plus the corruption bookkeeping."""

    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    outlier_mask: np.ndarray = field(repr=False)
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        mask = np.asarray(self.outlier_mask, dtype=bool)
        if X.ndim != 2 or y.shape != (X.shape[0],) or mask.shape != y.shape:
            raise ValueError("inconsistent dataset dimensions")
        for name, arr in (("X", X), ("y", y), ("outlier_mask", mask)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def y_clean(self) -> np.ndarray:
        """Targets with the known corruption shift removed."""
        return self.y - OUTLIER_SHIFT * self.outlier_mask

    @classmethod
    def raw(cls, X, y, mask=None, feature_names=None) -> "Dataset":
        if mask is None:
            mask = np.zeros(np.size(y), dtype=bool)
        return cls(X=X, y=y, outlier_mask=mask, feature_names=feature_names)


# ---------------------------------------------------------------------------
# data generation and ingestion
# ---------------------------------------------------------------------------


def gen_toy(n: int, dim: int, p_outliers: float, seed: int,
            stream: int | None = None) -> Dataset:
    """Linear data with slope 1/2 per feature; a fixed fraction of points is
    replaced by near-origin inputs whose targets sit OUTLIER_SHIFT higher."""
    if n < 1 or dim < 1 or not 0.0 <= p_outliers < 1.0:
        raise ValueError("need n >= 1, dim >= 1 and 0 <= p_outliers < 1")
    if stream is None:
        stream = rng.compose_stream(rng.STREAM_DATA)
    g = rng.generator(seed, stream)
    w = np.full(dim, TOY_WEIGHT)
    X = g.uniform(-1.0, 1.0, (n, dim))
    y = X @ w + TOY_NOISE_SIGMA * g.standard_normal(n)
    mask = np.zeros(n, dtype=bool)
    n_out = round(p_outliers * n)
    if n_out:
        idx = g.choice(n, size=n_out, replace=False)
        X = X.copy()
        X[idx] = TOY_OUTLIER_X_SIGMA * g.standard_normal((n_out, dim))
        y[idx] = OUTLIER_SHIFT + X[idx] @ w + TOY_NOISE_SIGMA * g.standard_normal(n_out)
        mask[idx] = True
    return Dataset.raw(X, y, mask)


def gen_nonlinear(n: int, dim: int, seed: int) -> Dataset:
    """Small smooth nonlinear regression table for the desk-scale CV runs,
    with Gaussian target noise of stddev 0.1."""
    if dim < 2:
        raise ValueError("need at least two features")
    g = rng.generator(seed, rng.compose_stream(rng.STREAM_DATA, 2))
    X = g.uniform(-1.0, 1.0, (n, dim))
    y = 1.5 * np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2
    if dim >= 3:
        y = y - 0.8 * X[:, 2]
    y = y + 0.1 * g.standard_normal(n)
    return Dataset.raw(X, y)


class CSVFormatError(ValueError):
    pass


def load_csv(path, target_column: str) -> Dataset:
    """Numeric CSV with a header row; the named column becomes the target."""
    with open(path, newline="") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise CSVFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise CSVFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if target_column not in header:
            raise CSVFormatError(f"{path}: missing target column {target_column!r}")
        twice = [name for name, count in Counter(header).items() if count > 1]
        if twice:
            raise CSVFormatError(f"{path}: the header names column {twice[0]!r} twice")
        if len(header) < 2:
            raise CSVFormatError(f"{path}: no feature columns beside the target {target_column!r}")
        t_idx = header.index(target_column)
        rows = []
        for r, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CSVFormatError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            values = []
            for name, cell in zip(header, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise CSVFormatError(
                        f"{path}: non-numeric cell at row {r}, column {name!r}") from None
                # float() accepts "nan" and "inf"; either would poison every fit
                if not math.isfinite(values[-1]):
                    raise CSVFormatError(f"{path}: non-finite cell {cell.strip()!r} at row {r}, "
                                         f"column {name!r}")
            rows.append(values)
    if not rows:
        raise CSVFormatError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    feat_idx = [i for i in range(len(header)) if i != t_idx]
    names = tuple(header[i] for i in feat_idx)
    return Dataset.raw(table[:, feat_idx], table[:, t_idx], feature_names=names)


def _moments(dataset: Dataset, rows=slice(None), where: str = ""):
    """Feature means and stds, target mean and std over the given rows; a
    constant column there is a CSVFormatError naming it, followed by `where`."""
    X, y = dataset.X[rows], dataset.y[rows]
    # max == min, not std == 0: the std of equal values can round to 1e-17
    constant = np.flatnonzero(X.max(axis=0) == X.min(axis=0))
    if constant.size:
        i = constant[0]
        name = dataset.feature_names[i] if dataset.feature_names else f"column {i}"
        raise CSVFormatError(f"zero variance feature {name!r}{where}")
    if y.max() == y.min():
        raise CSVFormatError(f"zero variance target{where}")
    return X.mean(axis=0), X.std(axis=0), float(y.mean()), float(y.std())


def normalize(dataset: Dataset) -> Dataset:
    """Standardize features and target to zero mean, unit variance."""
    x_mean, x_std, y_mean, y_std = _moments(dataset)
    return replace(dataset,
                   X=(dataset.X - x_mean) / x_std,
                   y=(dataset.y - y_mean) / y_std)


def corrupt(dataset: Dataset, p: float, seed: int) -> Dataset:
    """Shift round(p * N) targets up by OUTLIER_SHIFT (normalized units).

    Indices are sampled without replacement, so no point is ever shifted
    twice; the mask records exactly which rows were touched.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("corruption fraction must be in [0, 1)")
    n_out = round(p * dataset.n)
    if n_out == 0:
        return dataset
    g = rng.generator(seed, rng.compose_stream(rng.STREAM_CORRUPT))
    idx = g.choice(dataset.n, size=n_out, replace=False)
    y = dataset.y.copy()
    y[idx] += OUTLIER_SHIFT
    mask = dataset.outlier_mask.copy()
    mask[idx] = True
    return replace(dataset, y=y, outlier_mask=mask)


def metrics(y_true, y_pred) -> dict:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise ValueError("metrics need non-empty arrays of equal length")
    err = y_pred - y_true
    mse = float(np.mean(err**2))
    return {"mae": float(np.mean(np.abs(err))), "mse": mse, "rmse": math.sqrt(mse)}


def _train_and_score(cells, model, split, cfg, seed: int, stream_ids):
    """Train the cells on split = (X_fit, y_fit, X_eval, y_eval) as one batch
    and score each predictive mean against y_eval.

    Cell i trains and predicts from the streams addressed by stream_ids[i].
    Returns one (metrics dict, training report) pair per cell; a cell whose
    report is `diverged` is not scored, and its metrics are None.
    """
    X_fit, y_fit, X_eval, y_eval = split
    reports = train_batch(cells, MeanFieldGaussian.initial(model.dim), model,
                          XYData(X_fit, y_fit), MCConfig(cfg.mc_samples, seed),
                          AdamConfig(learning_rate=cfg.learning_rate, steps=cfg.steps),
                          [rng.compose_stream(rng.STREAM_TRAIN, *ids) for ids in stream_ids])
    return [(None if report.diverged else metrics(y_eval, predict(
                report.final, model, X_eval, cfg.predict_draws, seed,
                stream=rng.compose_stream(rng.STREAM_PREDICT, *ids))), report)
            for report, ids in zip(reports, stream_ids)]


# ---------------------------------------------------------------------------
# toy experiment (table of MAE/MSE per divergence setting)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyRunConfig:
    n_train: int = 1000
    n_test: int = 1000
    dim: int = 4
    p_outliers: float = 0.05
    mc_samples: int = 5
    steps: int = 1000
    learning_rate: float = 0.01
    predict_draws: int = 1000

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def run_toy_experiment(settings: list[tuple[float, float]], seeds: list[int],
                       config: ToyRunConfig | None = None,
                       collect_reports: bool = False) -> dict:
    """Train one BLR per (lambda, beta) setting and seed; aggregate MAE/MSE.

    Settings are (lambda, beta) pairs, each one `vi.trainable` at
    config.mc_samples; (1, 0) runs the KL path.  Each seed draws its training
    data and a fresh clean test set once, and its settings train on them
    as one batch, each from its own (setting,) stream; rows, seeds and
    reports are ordered settings first, then seeds.  Test data is scored
    against the predictive mean.  With collect_reports the serialized
    per-run training reports (traces included) ride along in the result.
    """
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    cfg = config or ToyRunConfig()
    model = BLRModel(input_dim=cfg.dim, noise_sigma=TOY_NOISE_SIGMA)
    cells = [DivergenceParams.from_lambda(lam, beta) for lam, beta in settings]
    per_seed_outcomes = []  # per seed, one outcome per setting
    for seed in seeds:
        train_ds = gen_toy(cfg.n_train, cfg.dim, cfg.p_outliers, seed,
                           stream=rng.compose_stream(rng.STREAM_DATA, 0))
        test_ds = gen_toy(cfg.n_test, cfg.dim, 0.0, seed,
                          stream=rng.compose_stream(rng.STREAM_DATA, 1))
        split = (train_ds.X, train_ds.y, test_ds.X, test_ds.y)
        per_seed_outcomes.append(_train_and_score(cells, model, split, cfg, seed,
                                                  [(i,) for i in range(len(cells))]))
    rows = []
    reports = []
    for setting_idx, ((lam, beta), params) in enumerate(zip(settings, cells)):
        per_seed = []
        for seed, outcomes in zip(seeds, per_seed_outcomes):
            m, report = outcomes[setting_idx]
            if report.diverged:
                raise TrainingDiverged(f"toy setting (lambda={lam}, beta={beta}) seed {seed}: "
                                       f"{report.diverged}", report)
            per_seed.append({"seed": seed, **m})
            if collect_reports:
                reports.append(report.to_dict())
        to_arr = lambda key: np.array([r[key] for r in per_seed])
        rows.append({
            "lambda": lam, "beta": beta, "alpha": params.alpha,
            "kl_path": report.used_kl_path,
            "mae_mean": float(to_arr("mae").mean()), "mae_std": float(to_arr("mae").std()),
            "mse_mean": float(to_arr("mse").mean()), "mse_std": float(to_arr("mse").std()),
            "rmse_mean": float(to_arr("rmse").mean()),
            "per_seed": per_seed,
        })
    result = {"config": cfg.to_dict(), "seeds": list(seeds), "rows": rows}
    if collect_reports:
        result["reports"] = reports
    return result


# ---------------------------------------------------------------------------
# nested cross-validated grid search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSearchSpec:
    """The (alpha, beta) grid, restricted to the cells `vi.trainable`
    accepts: the generic ones and the KL corner (1, 0).  A step whose full
    grid, counted from its axis lengths, holds more than MAX_GRID_CELLS
    cells is refused before any list is built."""

    alpha_range: tuple[float, float] = (-0.5, 2.5)
    beta_range: tuple[float, float] = (-1.5, 1.5)
    step: float = 0.25

    def __post_init__(self):
        for name in ("step", "alpha_range", "beta_range"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.alpha_range[0] > self.alpha_range[1] or self.beta_range[0] > self.beta_range[1]:
            raise ValueError("ranges must be ordered")
        if self._length(*self.alpha_range) * self._length(*self.beta_range) > MAX_GRID_CELLS:
            raise ValueError(f"step {self.step} makes a grid of more than {MAX_GRID_CELLS} "
                             f"(alpha, beta) cells, the most nested CV can address")

    def _length(self, lo, hi) -> int:
        """How many grid values [lo, hi] holds, at most MAX_GRID_CELLS + 1,
        so that a tiny step cannot overflow the count."""
        return math.floor(min((hi - lo) / self.step, MAX_GRID_CELLS) + 1e-9) + 1

    def cells(self) -> list[tuple[float, float]]:
        def axis(lo, hi):
            return [round(lo + i * self.step, 10) for i in range(self._length(lo, hi))]

        # values rounded to 10 decimals sum to exactly 0 on the anti-diagonal
        return [(a, b) for a in axis(*self.alpha_range) for b in axis(*self.beta_range)
                if trainable(DivergenceParams(a, b))]


@dataclass(frozen=True)
class CVRunConfig:
    hidden: tuple[int, ...] = (10,)
    mc_samples: int = 5
    steps: int = 300
    learning_rate: float = 0.01
    predict_draws: int = 200
    noise_sigma: float = 0.1
    learn_noise: bool = False

    def build_model(self, input_dim: int) -> BNNModel:
        return BNNModel(layer_sizes=(input_dim, *self.hidden, 1),
                        noise_sigma=self.noise_sigma, learn_noise=self.learn_noise)


@dataclass
class CVReport:
    """Everything the selection produced, fold by fold and cell by cell."""

    grid: GridSearchSpec
    k1: int
    k2: int
    seed: int
    cells: list
    folds: list
    excluded_cells: list
    warnings: list
    selected: tuple[float, float]
    test_rmse_mean: float
    test_rmse_std: float
    kl_rmse_mean: float
    train_reports: list | None = None

    def to_dict(self) -> dict:
        out = {
            "grid": {"alpha_range": list(self.grid.alpha_range),
                     "beta_range": list(self.grid.beta_range), "step": self.grid.step},
            "k1": self.k1, "k2": self.k2, "seed": self.seed,
            "cells": self.cells, "folds": self.folds,
            "excluded_cells": self.excluded_cells, "warnings": self.warnings,
            "selected": list(self.selected),
            "test_rmse_mean": self.test_rmse_mean,
            "test_rmse_std": self.test_rmse_std,
            "kl_rmse_mean": self.kl_rmse_mean,
        }
        if self.train_reports is not None:
            out["train_reports"] = self.train_reports
        return out


def _kl_distance(cell: tuple[float, float]) -> float:
    return abs(cell[0] - KL_CORNER[0]) + abs(cell[1] - KL_CORNER[1])


def nested_cv(dataset: Dataset, grid: GridSearchSpec, k1: int = 5, k2: int = 2,
              config: CVRunConfig | None = None, seed: int = 0,
              collect_reports: bool = False) -> CVReport:
    """Outer k1-fold / inner k2-fold grid search over (alpha, beta).

    Expects a normalized (and usually corrupted) dataset.  Scaling is
    refit on every outer training split, all of them before the first
    training, so a column constant on one of them is a CSVFormatError
    before any cell trains; inner splits reuse the outer
    fold's scaling and are built once per outer fold, shared by every
    cell.  Training always sees observed (corrupted) targets while
    validation and test scores use the clean ones.  The per-fold winner
    is retrained on the whole outer training split, and the KL cell is
    scored the same way for comparison.  The cells of each inner split
    train as one batch, as do the retraining and the KL baseline; every
    training keeps its own (fold, cell, split) stream, so the results are
    those of one training per cell.  Every cell is tried k2 times per
    fold.  One rule, applied once after all k1 * k2 inner fits of every
    cell, decides exclusion: a cell that failed more than half of them is
    excluded with a recorded warning, and no fold selects it.  Each fold
    then selects among the other cells scored at least once in it, and
    retrains its winner.
    """
    if k1 < 2 or k2 < 2:
        raise ValueError("need k1 >= 2 and k2 >= 2")
    if dataset.n < k1 * k2:
        raise ValueError("dataset too small for the requested folds")
    cfg = config or CVRunConfig()
    cells = grid.cells()
    model = cfg.build_model(dataset.dim)

    perm = rng.generator(seed, rng.compose_stream(rng.STREAM_FOLDS)).permutation(dataset.n)
    outer_folds = np.array_split(perm, k1)
    y_clean = dataset.y_clean

    cell_params = [DivergenceParams(*cell) for cell in cells]
    train_rows = [np.concatenate([fold for j, fold in enumerate(outer_folds) if j != f])
                  for f in range(k1)]
    scalings = [_moments(dataset, train_idx, f" on the training rows of outer fold {f}")
                for f, train_idx in enumerate(train_rows)]
    outer_splits, inner = [], []  # per outer fold: its split, and its inner splits' outcomes
    for f, (test_idx, train_idx, (xm, xs, ym, ys)) in enumerate(
            zip(outer_folds, train_rows, scalings)):
        X_tr = (dataset.X[train_idx] - xm) / xs
        y_tr = (dataset.y[train_idx] - ym) / ys
        y_tr_clean = (y_clean[train_idx] - ym) / ys
        outer_splits.append((X_tr, y_tr, (dataset.X[test_idx] - xm) / xs,
                             (y_clean[test_idx] - ym) / ys))

        inner_perm = rng.generator(seed, rng.compose_stream(rng.STREAM_FOLDS, 1, f)) \
            .permutation(train_idx.size)
        inner_folds = np.array_split(inner_perm, k2)
        inner.append([])
        for j, val_rows in enumerate(inner_folds):
            fit_rows = np.concatenate([rows for jj, rows in enumerate(inner_folds) if jj != j])
            split = (X_tr[fit_rows], y_tr[fit_rows], X_tr[val_rows], y_tr_clean[val_rows])
            inner[f].append(_train_and_score(cell_params, model, split, cfg, seed,
                                             [(f, c, j) for c in range(len(cells))]))

    failures = {cell: sum(outcomes[c][0] is None for splits in inner for outcomes in splits)
                for c, cell in enumerate(cells)}
    excluded = sorted(cell for cell in cells if failures[cell] > k1 * k2 / 2)
    warnings = [f"cell (alpha={cell[0]}, beta={cell[1]}) failed {failures[cell]}/{k1 * k2} "
                "fits; excluded from selection" for cell in excluded]

    val_scores = {cell: [] for cell in cells}
    fold_rows, trained = [], []  # trained: (fold, role, report) in report order
    for f, (outer_split, splits) in enumerate(zip(outer_splits, inner)):
        selectable = {}  # cell -> mean inner validation RMSE in this fold
        for c, cell in enumerate(cells):
            scores = []
            for j, outcomes in enumerate(splits):
                m, report = outcomes[c]
                if m is not None:
                    scores.append(m["rmse"])
                    trained.append((f, f"inner-{j}", report))
            val_scores[cell] += scores
            if scores and cell not in excluded:
                selectable[cell] = float(np.mean(scores))
        if not selectable:
            raise TrainingDiverged(f"no trainable cell in outer fold {f}", None)
        winner = min(selectable, key=lambda cell: (selectable[cell], _kl_distance(cell)))

        # the winner's retraining and, unless the winner is KL, the KL baseline
        final_cells = [winner] if winner == KL_CORNER else [winner, KL_CORNER]
        outcomes = _train_and_score([DivergenceParams(*cell) for cell in final_cells], model,
                                    outer_split, cfg, seed,
                                    [(f, len(cells) + i, 0) for i in range(len(final_cells))])
        for (_, report), role in zip(outcomes, ("retrain", "kl-baseline")):
            if report.diverged:
                raise TrainingDiverged(report.diverged, report)
            trained.append((f, role, report))
        fold_rows.append({"fold": f, "selected": list(winner),
                          "selected_lambda": winner[0] + winner[1],
                          "test_rmse": outcomes[0][0]["rmse"],
                          "kl_test_rmse": outcomes[-1][0]["rmse"]})

    cell_rows = [{
        "alpha": cell[0], "beta": cell[1], "lambda": round(cell[0] + cell[1], 10),
        "val_rmse_mean": float(np.mean(val_scores[cell])) if val_scores[cell] else None,
        "val_rmse_std": float(np.std(val_scores[cell])) if val_scores[cell] else None,
        "n_scores": len(val_scores[cell]), "failures": failures[cell],
    } for cell in cells]

    votes = Counter(tuple(row["selected"]) for row in fold_rows)
    best = max(votes.values())
    selected = min((cell for cell, n in votes.items() if n == best), key=_kl_distance)

    test_rmses = np.array([row["test_rmse"] for row in fold_rows])
    kl_rmses = np.array([row["kl_test_rmse"] for row in fold_rows])
    return CVReport(grid=grid, k1=k1, k2=k2, seed=seed, cells=cell_rows,
                    folds=fold_rows, excluded_cells=[list(c) for c in excluded],
                    warnings=warnings, selected=selected, test_rmse_mean=float(test_rmses.mean()),
                    test_rmse_std=float(test_rmses.std()), kl_rmse_mean=float(kl_rmses.mean()),
                    train_reports=[{"fold": f, "role": role, **report.to_dict()}
                                   for f, role, report in trained] if collect_reports else None)
