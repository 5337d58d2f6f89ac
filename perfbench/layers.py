"""Which entry points the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<entry point>``.  Wrapped attributes are the
names the callers look up at call time: ``density_fit`` imports
``eval_sab`` and ``adam_step`` by name, ``vi`` imports ``adam_step`` and
``experiments`` imports ``train`` and ``predict``, so those are wrapped in
the importing module.  ``sweep.<region>`` spans come from the benchmark's
own code around the eval_sab sweep.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from sabvi import density_fit, divergence, experiments, models, rng, vi

import tracing

LAYERS = ("divergence", "density_fit", "models", "vi", "rng", "optim", "experiments")
REGIONS = ("generic", "alpha_zero", "beta_zero", "sum_zero", "origin")


class Counters:
    """Outcomes the wrappers observe: skipped steps and diverged trainings."""

    def __init__(self):
        self.skipped_steps = 0
        self.diverged = 0

    def after_estimator(self, result, exc):
        if exc is None:
            value, d_mu, d_ls = result
            if not (math.isfinite(value) and np.isfinite(d_mu).all()
                    and np.isfinite(d_ls).all()):
                self.skipped_steps += 1

    def after_train(self, result, exc):
        if isinstance(exc, vi.TrainingDiverged):
            self.diverged += 1


ESTIMATORS = ("mc_objective_with_grad", "kl_elbo_with_grad")


def count_steps(run_pass, inputs):
    """Run one pass with the VI estimators counted: (result, estimator calls).

    ``vi.train`` calls the estimator once per ADAM step, also for a step it
    skips and for the step that ends a diverged training, so the count is
    the steps attempted however many trainings fail.  The spans are kept
    only for the count.
    """
    tracer = tracing.Tracer()
    with tracer.patched([(vi, name, "vi.estimator", None) for name in ESTIMATORS]):
        result = run_pass(inputs)
    return result, len(tracer.spans)


def targets(counters: Counters):
    """(owner, attribute, span name, after) for every wrapped entry point."""
    out = [
        (divergence, "eval_sab", "divergence.eval_sab", None),
        (density_fit, "eval_sab", "divergence.eval_sab", None),
        (density_fit, "fit_gaussian", "density_fit.fit_gaussian", None),
        (density_fit, "divergence_value", "density_fit.divergence_value", None),
        (density_fit, "analytic_gradient", "density_fit.analytic_gradient", None),
        (density_fit, "adam_step", "optim.adam_step", None),
        (vi, "adam_step", "optim.adam_step", None),
        *[(vi, name, "vi.estimator", counters.after_estimator) for name in ESTIMATORS],
        (experiments, "train", "vi.train", counters.after_train),
        (experiments, "predict", "models.predict", None),
        (experiments, "run_toy_experiment", "experiments.run_toy_experiment", None),
        (experiments, "nested_cv", "experiments.nested_cv", None),
        (rng, "noise_block", "rng.noise_block", None),
        (rng, "generator", "rng.generator", None),
    ]
    for cls in (models.BLRModel, models.BNNModel):
        out.append((cls, "log_joint", "models.eval", None))
        out.append((cls, "grad_log_joint", "models.eval", None))
    return out


def _task_times(spans) -> list[float]:
    """Time per fit (quadrature) or per training plus its prediction."""
    fits = [end - start for name, _, start, end in spans
            if name == "density_fit.fit_gaussian"]
    if fits:
        return fits
    tasks = []
    pending = {}  # parent span -> duration of a training awaiting its prediction
    for name, parent, start, end in spans:
        if name == "vi.train":
            pending[parent] = end - start
        elif name == "models.predict" and parent in pending:
            tasks.append(pending.pop(parent) + end - start)
    return tasks


def per_layer(spans, passes: int, traced_s: float, overhead: float,
              counters: Counters, info: dict, attempted: int, failed: int) -> dict:
    """Every per-layer metric as {name: (value, unit)}.

    `traced_s` is the wall time of the traced passes, the base of each
    layer's share; `overhead` is the traced run's cost over the untraced
    one.  Counts are per pass.  A layer the workload does not call reads 0.
    """
    selfs = tracing.self_times(spans)
    stats = tracing.summarize(spans, selfs)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def us_per_call(name, key="total_s"):
        row = stats.get(name)
        return 1e6 * row[key] / row["calls"] if row else 0.0

    sweeps = {sid: s[0].split(".", 1)[1] for sid, s in enumerate(spans)
              if s[0].startswith("sweep.")}
    region_durs = {region: [] for region in REGIONS}
    for name, parent, start, end in spans:
        if parent in sweeps and name == "divergence.eval_sab":
            region_durs[sweeps[parent]].append(end - start)
    region_us = {r: 1e6 * sum(d) / len(d) if d else 0.0 for r, d in region_durs.items()}

    steps = calls("vi.estimator")
    train_self = stats.get("vi.train", {}).get("self_s", 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, _, _, _), self_s in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_s

    tasks = _task_times(spans)
    tail = tracing.tail(tasks)
    m = {
        "divergence.eval_sab.calls": (calls("divergence.eval_sab") / passes, "count"),
        "divergence.eval_sab.us_per_call": (us_per_call("divergence.eval_sab"), "us"),
        **{f"divergence.eval_sab.{r}.us_per_call": (region_us[r], "us") for r in REGIONS},
        "density_fit.divergence_value.us_per_call":
            (us_per_call("density_fit.divergence_value"), "us"),
        "density_fit.analytic_gradient.us_per_call":
            (us_per_call("density_fit.analytic_gradient"), "us"),
        "density_fit.iterations": (info.get("density_fit.iterations", 0), "count"),
        "density_fit.converged_frac": (info.get("density_fit.converged_frac", 0.0), "ratio"),
        "models.eval.us_per_call": (us_per_call("models.eval"), "us"),
        "models.eval.calls": (calls("models.eval") / passes, "count"),
        "models.calls_per_step": (calls("models.eval") / steps if steps else 0.0, "count"),
        "models.predict.us_per_call": (us_per_call("models.predict"), "us"),
        "vi.estimator.self_us_per_call": (us_per_call("vi.estimator", "self_s"), "us"),
        "vi.train.self_us_per_step": (1e6 * train_self / steps if steps else 0.0, "us"),
        "vi.skipped_steps": (counters.skipped_steps / passes, "count"),
        "vi.diverged": (counters.diverged / passes, "count"),
        "rng.noise_block.us_per_call": (us_per_call("rng.noise_block"), "us"),
        "rng.generator.calls": (calls("rng.generator") / passes, "count"),
        "optim.adam_step.us_per_call": (us_per_call("optim.adam_step"), "us"),
        "experiments.self_s": (layer_self["experiments"] / passes, "s"),
        **{f"{layer}.share": (layer_self[layer] / traced_s, "ratio") for layer in LAYERS},
        "task_s.p50": (statistics.median(tasks) if tasks else 0.0, "s"),
        "task_s.tail": (tail[1] if tail else 0.0, "s"),
        "task_s.tail_pct": (tail[0] if tail else 0.0, "%"),
        "task_s.count": (len(tasks), "count"),
        "failed_frac": (failed / attempted, "ratio"),
        "check.oracle_err": (info.get("check.oracle_err", 0.0), "ratio"),
        "check.kl_posterior_err": (info.get("check.kl_posterior_err", 0.0), "sd"),
        "trace.overhead": (overhead, "ratio"),
    }
    return m
