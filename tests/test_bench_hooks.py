"""The benchmark's hook points still exist where the benchmark looks for them.

The traced benchmark run (``perfbench/``) wraps entry points by reading
them from their owner's ``__dict__`` and counts ADAM steps by wrapping
the VI estimators that the training loop looks up as module globals,
once per cell and step however many cells train as one batch.  Moving
one of those attributes, or calling an estimator some other way, breaks
the benchmark; these tests make it break tier-1 first.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from sabvi import divergence, experiments, vi
from sabvi.divergence import DivergenceParams
from sabvi.experiments import CVRunConfig, GridSearchSpec, corrupt, gen_nonlinear, normalize
from sabvi.models import BNNModel, XYData
from sabvi.optim import AdamConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers"), importlib.import_module("tracing")


def _small_training(model=BNNModel(layer_sizes=(2, 3, 1)), steps=7,
                    params=DivergenceParams(1.2, 0.4)):
    g = np.random.default_rng(0)
    data = XYData(g.uniform(-1, 1, (8, 2)), g.standard_normal(8))
    return vi.train(params, vi.MeanFieldGaussian.initial(model.dim),
                    model, data, vi.MCConfig(3, 0), AdamConfig(steps=steps))


def test_traced_targets_patch_and_restore(bench):
    # both estimators' results pass through the counters' unpacking
    layers, tracing = bench
    originals = {name: vars(experiments)[name] for name in ("train", "predict")}
    tracer, counters = tracing.Tracer(), layers.Counters()
    with tracer.patched(layers.targets(counters)):
        assert vars(experiments)["train"] is not originals["train"]
        _small_training(steps=2)
        _small_training(steps=3, params=DivergenceParams(*vi.KL_CORNER))
    assert {name: vars(experiments)[name] for name in originals} == originals
    assert [s[0] for s in tracer.spans].count("vi.estimator") == 5
    assert counters.skipped_steps == 0


def test_step_count_is_one_estimator_call_per_adam_step(bench):
    layers, _ = bench
    report, calls = layers.count_steps(lambda _: _small_training(steps=7), None)
    assert calls == 7 and report.trace.size == 7


def test_batched_nested_cv_counts_one_estimator_call_per_cell_step(bench):
    # k1 = k2 = 2 and three cells, the KL cell off the grid: per outer fold
    # 2 x 3 inner trainings, the winner's retraining and the KL baseline
    layers, _ = bench
    steps = 4
    dataset = corrupt(normalize(gen_nonlinear(48, 3, seed=9)), 0.1, seed=9)
    grid = GridSearchSpec(alpha_range=(0.5, 1.5), beta_range=(0.25, 0.25), step=0.5)
    cfg = CVRunConfig(hidden=(3,), mc_samples=2, steps=steps, predict_draws=10)
    report, calls = layers.count_steps(
        lambda ds: experiments.nested_cv(ds, grid, k1=2, k2=2, config=cfg, seed=5), dataset)
    assert len(grid.cells()) == 3 and (1.0, 0.0) not in grid.cells()
    assert sum(c["failures"] for c in report.cells) == 0
    assert calls == 2 * (2 * 3 + 2) * steps


def test_batched_toy_run_counts_one_estimator_call_per_setting_seed_step(bench):
    layers, _ = bench
    steps, settings, seeds = 6, [(1.0, 0.0), (1.9, -0.3), (1.8, 0.8)], [0, 1]
    cfg = experiments.ToyRunConfig(n_train=40, n_test=20, dim=2, mc_samples=3, steps=steps,
                                   predict_draws=10)
    result, calls = layers.count_steps(
        lambda s: experiments.run_toy_experiment(s, seeds, cfg), settings)
    assert [len(row["per_seed"]) for row in result["rows"]] == [2, 2, 2]
    assert calls == len(settings) * len(seeds) * steps


def test_quadrature_sweep_references_are_finite_oracle_values(monkeypatch):
    # the sweep's references are the Gaussian oracle's "kl" and "renyi" kinds
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    oracle, kinds = divergence.gaussian_oracle, set()

    def recording_oracle(kind, *args, **kwargs):
        kinds.add(kind)
        return oracle(kind, *args, **kwargs)

    monkeypatch.setattr(divergence, "gaussian_oracle", recording_oracle)
    sweep = workloads.quadrature_setup(7).sweep
    assert len(sweep) == 112 and kinds == {"kl", "renyi"}
    assert all(np.isfinite(reference) for *_, reference in sweep)


@pytest.mark.parametrize("name", ["quadrature", "cv-bnn"])
def test_benchmark_workload_passes_its_checks(monkeypatch, name):
    # one seed-7 pass of each benchmark workload, with cv-bnn's extra check:
    # a deletion in the package that breaks the benchmark fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    setup, run_pass, extra_check = importlib.import_module("workloads").WORKLOADS[name]
    inputs = setup(7)
    result = run_pass(inputs)
    checks = result.checks + (extra_check(inputs)[0] if extra_check else [])
    assert result.failed == 0 and result.attempted > 0
    assert checks and [check for check in checks if not check[1]] == []
