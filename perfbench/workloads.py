"""The three workloads: inputs made from the seed, one pass, output checks.

Each workload has ``setup(seed) -> inputs``, ``run_pass(inputs, span)
-> PassResult`` and, optionally, ``extra_check(inputs) -> (checks, info)``,
an untimed check run once per run.  A pass does a fixed amount of work for given inputs and
calls the package only through its public modules, by module attribute,
so the traced run can wrap the entry points.  ``span(name)`` is a context
manager for the benchmark's own blocks (a no-op outside the traced run).

* ``quadrature``: Gaussian fits to the stock skew-mixture target on the
  4001-point grid, plus an eval_sab sweep over all five regions of the
  (alpha, beta) plane on seeded Gaussian pairs.  No Monte Carlo, no model.
* ``toy-blr``: the toy outlier experiment with BLR (d = 5, N = 1000),
  K = 5, 1000 steps and 1000 predictive draws on 1000 test points, for
  three settings including the KL corner, on one seeded data set.
* ``cv-bnn``: nested cross-validation of a BNN 4-10-1 (K = 5, 300 steps,
  128 rows per inner fit, 200 predictive draws) over three grid cells that
  share each data split, on a seeded, corrupted 512-row table.  Its extra
  check trains the toy-blr KL corner once and compares the mean with the
  exact posterior, so the driven workloads check the KL path too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from sabvi import density_fit, divergence, experiments, models, rng, vi


@dataclass
class PassResult:
    attempted: int   # fits, trainings and sweep evaluations started
    failed: int      # those that raised TrainingDiverged or EvaluationError
    digest: str      # sha256 of the serialized results
    steps: int = 0   # fit iterations; child.py counts the ADAM steps of VI trainings
    checks: list = field(default_factory=list)   # (label, passed, detail)
    info: dict = field(default_factory=dict)     # exact counts and errors


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def no_span(name):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

FIG_SETTINGS = ((1.8, 2.0), (1.8, -1.0), (2.4, 2.0), (2.4, -1.0))  # (lambda, beta)
EXTRA_OBJECTIVES = (density_fit.FitObjective.kl(),
                    density_fit.FitObjective.renyi(0.5),
                    density_fit.FitObjective.gamma(0.5))
SWEEP_POINTS = {  # (alpha, beta) per region of the plane
    "generic": ((1.4, 0.7), (2.0, -0.6), (-0.5, 1.5), (0.6, 0.6)),
    "beta_zero": ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0)),
    "alpha_zero": ((0.0, 0.5), (0.0, 1.0), (0.0, 2.0)),
    "sum_zero": ((-1.3, 1.3), (0.7, -0.7), (1.3, -1.3)),
    "origin": ((0.0, 0.0),),
}
SWEEP_PAIRS = 8
# Largest relative error of the sweep.  The generic and a = 0, b = 0
# regions agree to about 1e-9; the a + b = 0 and origin references are
# integrals of exponential and quadratic functions of x, which the
# trapezoid rule on this grid gets to about 1e-6.
SWEEP_TOL = 1e-5


def sab_reference(alpha, beta, mu1, s1, mu2, s2, lo, hi) -> float:
    """Closed-form D[alpha,beta] between two Gaussians tabulated on [lo, hi].

    With lam = alpha + beta > 0, the powers p^lam and q^lam normalize to
    Gaussians P, Q with stddevs s/sqrt(lam), and the family reduces to
    Renyi_t(P || Q) / (alpha lam) with t = alpha / lam; on b = 0 and a = 0
    that becomes KL(P || Q) / a^2 and KL(Q || P) / b^2.  On a + b = 0 and
    at the origin the value depends on the reference measure (uniform on
    [lo, hi]); for equal stddevs log(p/q) = c1 x + c0 is linear and both
    integrals have closed forms.
    """
    lam = alpha + beta
    if alpha != 0.0 and beta != 0.0 and lam != 0.0:
        r = lam ** -0.5
        return divergence.gaussian_oracle("renyi", mu1, s1 * r, mu2, s2 * r,
                                          order=alpha / lam) / (alpha * lam)
    if beta == 0.0 and alpha != 0.0:
        r = alpha ** -0.5
        return divergence.gaussian_oracle("kl", mu1, s1 * r, mu2, s2 * r) / alpha**2
    if alpha == 0.0 and beta != 0.0:
        r = beta ** -0.5
        return divergence.gaussian_oracle("kl", mu2, s2 * r, mu1, s1 * r) / beta**2
    if s1 != s2:
        raise ValueError("the a + b = 0 and origin references need equal stddevs")
    c1 = (mu1 - mu2) / s1**2
    c0 = (mu2**2 - mu1**2) / (2.0 * s1**2)
    length = hi - lo
    if alpha == 0.0:
        return 0.5 * c1 * c1 * length * length / 12.0
    k = alpha * c1
    log_i = alpha * c0 + math.log((math.exp(k * hi) - math.exp(k * lo)) / (k * length))
    mean_d = c1 * 0.5 * (lo + hi) + c0
    return (log_i - alpha * mean_d) / alpha**2


@dataclass
class QuadratureInputs:
    target: divergence.GridDensity
    objectives: list            # (label, FitObjective)
    tall_mode: float
    target_std: float
    sweep: list                 # (region, DivergenceParams, p, q, reference)


def quadrature_setup(seed: int) -> QuadratureInputs:
    mixture = density_fit.SkewMixtureTarget.default()
    target = mixture.tabulate()
    x = target.x
    first = mixture.components[0]
    tall_mode = float(x[np.argmax(density_fit.skew_normal_log_pdf(
        x, first.location, first.scale, first.shape))])
    _, target_std = density_fit.density_moments(target)
    objectives = [(f"sab{lam},{beta}", density_fit.FitObjective.sab(lam - beta, beta))
                  for lam, beta in FIG_SETTINGS]
    objectives += [(obj.label(), obj) for obj in EXTRA_OBJECTIVES]

    g = np.random.default_rng(seed)
    sweep = []
    for _ in range(SWEEP_PAIRS):
        mu1, mu2 = (float(v) for v in g.uniform(-1.0, 1.0, 2))
        s1, s2 = (float(v) for v in g.uniform(0.8, 1.25, 2))
        for region, points in SWEEP_POINTS.items():
            s2r = s1 if region in ("sum_zero", "origin") else s2
            p, q = divergence.gaussian_pair(mu1, s1, mu2, s2r)
            for a, b in points:
                ref = sab_reference(a, b, mu1, s1, mu2, s2r, p.lo, p.hi)
                sweep.append((region, divergence.DivergenceParams(a, b), p, q, ref))
    return QuadratureInputs(target, objectives, tall_mode, target_std, sweep)


def quadrature_pass(inp: QuadratureInputs, span=no_span) -> PassResult:
    fits, failed, results = {}, 0, {}
    for label, obj in inp.objectives:
        try:
            res = density_fit.fit_gaussian(obj, inp.target)
        except divergence.EvaluationError as exc:
            failed += 1
            results[label] = f"EvaluationError: {exc}"
            continue
        fits[label] = res
        results[label] = {**res.to_dict(), "trace": res.divergence_trace.tolist()}

    worst, sweep_values = 0.0, []
    for region in SWEEP_POINTS:
        with span(f"sweep.{region}"):
            for reg, params, p, q, ref in inp.sweep:
                if reg != region:
                    continue
                try:
                    value = divergence.eval_sab(params, p, q)
                except divergence.EvaluationError:
                    failed += 1
                    worst = math.inf
                    continue
                sweep_values.append(value)
                worst = max(worst, abs(value - ref) / max(abs(ref), 1e-3))
    results["sweep"] = sweep_values

    checks = [("sweep agrees with the Gaussian closed forms in every region",
               worst < SWEEP_TOL, f"worst relative error {worst:.2e}")]
    finite = all(_finite(r.final.mu, r.final.sigma, float(r.divergence_trace[-1]))
                 for r in fits.values()) and len(fits) == len(inp.objectives)
    checks.append(("all fits finite", finite, f"{len(fits)}/{len(inp.objectives)} fits"))
    fig = {(lam, beta): fits.get(f"sab{lam},{beta}") for lam, beta in FIG_SETTINGS}
    if all(fig.values()):
        for lam in (1.8, 2.4):
            wide, narrow = fig[(lam, 2.0)].final.sigma, fig[(lam, -1.0)].final.sigma
            checks.append((f"mass covering: sigma(beta=2) > sigma(beta=-1) at lambda={lam}",
                           wide > narrow, f"{wide:.4f} vs {narrow:.4f}"))
        gap = abs(fig[(1.8, -1.0)].final.mu - inp.tall_mode)
        checks.append(("mode seeking: mu(1.8,-1) within one target stddev of the tall mode",
                       gap < inp.target_std, f"gap {gap:.3f} std {inp.target_std:.3f}"))
    else:
        checks.append(("figure fits present", False, "a figure fit failed"))

    iterations = sum(r.iterations for r in fits.values())
    return PassResult(
        attempted=len(inp.objectives) + len(inp.sweep), failed=failed,
        digest=_digest(results), steps=iterations, checks=checks,
        info={"density_fit.iterations": iterations,
              "density_fit.converged_frac": sum(r.converged for r in fits.values())
              / len(inp.objectives),
              "check.oracle_err": worst})


# ---------------------------------------------------------------------------
# toy-blr
# ---------------------------------------------------------------------------

TOY_SETTINGS = [(1.9, -0.3), (1.8, 0.8), (1.0, 0.0)]  # (lambda, beta)
TOY_CONFIG = experiments.ToyRunConfig(n_train=1000, n_test=1000, dim=4, mc_samples=5,
                                      steps=1000, predict_draws=1000)
# The KL path's final mean against the exact posterior, in posterior
# standard deviations.  ADAM at this step size keeps jittering by about
# one posterior stddev; a wrong gradient lands tens of stddevs away.
KL_TOL = 5.0


@dataclass
class ToyInputs:
    seed: int
    posterior_mean: np.ndarray
    posterior_sd: np.ndarray


def toy_setup(seed: int) -> ToyInputs:
    cfg = TOY_CONFIG
    model = models.BLRModel(input_dim=cfg.dim, noise_sigma=experiments.TOY_NOISE_SIGMA)
    # the training draw run_toy_experiment makes for this seed
    data = experiments.gen_toy(cfg.n_train, cfg.dim, cfg.p_outliers, seed,
                               stream=rng.compose_stream(rng.STREAM_DATA, 0))
    mean, cov = models.blr_exact_posterior(model, data)
    return ToyInputs(seed, mean, np.sqrt(np.diag(cov)))


def _kl_check(result, inp: ToyInputs):
    """The KL-path report of a toy run against the exact posterior: (check, error)."""
    (kl_report,) = [rep for rep in result["reports"] if rep["used_kl_path"]]
    kl_err = float(np.max(np.abs(np.array(kl_report["final_mu"]) - inp.posterior_mean)
                          / inp.posterior_sd))
    return (("KL-path mean near the exact posterior", kl_err < KL_TOL,
             f"worst {kl_err:.3f} posterior stddevs (tolerance {KL_TOL})"), kl_err)


def toy_pass(inp: ToyInputs, span=no_span) -> PassResult:
    attempted = len(TOY_SETTINGS)
    try:
        result = experiments.run_toy_experiment(TOY_SETTINGS, [inp.seed], TOY_CONFIG,
                                                collect_reports=True)
    except vi.TrainingDiverged as exc:
        return PassResult(attempted, attempted, "", checks=[("toy run", False, str(exc))])

    kl_check, kl_err = _kl_check(result, inp)
    maes = [r["mae"] for row in result["rows"] for r in row["per_seed"]]
    checks = [kl_check, ("all MAE finite", _finite(*maes), f"{len(maes)} scores")]
    return PassResult(attempted, 0, _digest(result), checks=checks,
                      info={"check.kl_posterior_err": kl_err})


# The KL corner alone, with a small prediction: only the fitted mean is checked.
KL_CHECK_CONFIG = dataclasses.replace(TOY_CONFIG, n_test=10, predict_draws=10)


def blr_kl_check(inp: ToyInputs):
    """Train the toy-blr KL corner once; (checks, info) for its mean."""
    try:
        result = experiments.run_toy_experiment([(1.0, 0.0)], [inp.seed], KL_CHECK_CONFIG,
                                                collect_reports=True)
    except vi.TrainingDiverged as exc:
        return [("KL-path training", False, str(exc))], {}
    kl_check, kl_err = _kl_check(result, inp)
    return [kl_check], {"check.kl_posterior_err": kl_err}


# ---------------------------------------------------------------------------
# cv-bnn
# ---------------------------------------------------------------------------

CV_ROWS = 512
CV_FEATURES = 4
CV_CORRUPT = 0.10
CV_K1, CV_K2 = 2, 2   # 256 outer-training rows, so 128 rows per inner fit
# Three cells that share each data split.  The KL cell (1, 0) is left out
# of the grid, so every outer fold also trains the KL baseline and a pass
# always runs 2 x (3 x 2 + 2) = 16 trainings, whichever cell wins.
CV_GRID = experiments.GridSearchSpec(alpha_range=(0.5, 1.5), beta_range=(0.25, 0.25),
                                     step=0.5)
CV_CONFIG = experiments.CVRunConfig(hidden=(10,), mc_samples=5, steps=300,
                                    predict_draws=200)


@dataclass
class CVInputs:
    dataset: experiments.Dataset
    seed: int
    blr: ToyInputs   # for the extra KL-path check


def cv_setup(seed: int) -> CVInputs:
    table = experiments.gen_nonlinear(CV_ROWS, CV_FEATURES, seed=seed)
    dataset = experiments.corrupt(experiments.normalize(table), CV_CORRUPT, seed=seed)
    return CVInputs(dataset, seed, toy_setup(seed))


def cv_pass(inp: CVInputs, span=no_span) -> PassResult:
    cells = CV_GRID.cells()
    try:
        rep = experiments.nested_cv(inp.dataset, CV_GRID, k1=CV_K1, k2=CV_K2,
                                    config=CV_CONFIG, seed=inp.seed)
    except vi.TrainingDiverged as exc:
        n = CV_K1 * (CV_K2 * len(cells) + 2)
        return PassResult(n, n, "", checks=[("cv run", False, str(exc))])

    inner = sum(c["n_scores"] + c["failures"] for c in rep.cells)
    outer = 2 * len(rep.folds)  # the winner's retraining and the KL baseline
    failed = sum(c["failures"] for c in rep.cells)
    values = [rep.test_rmse_mean, rep.test_rmse_std, rep.kl_rmse_mean]
    values += [f[k] for f in rep.folds for k in ("test_rmse", "kl_test_rmse")]
    values += [c["val_rmse_mean"] for c in rep.cells if c["n_scores"]]
    on_grid = tuple(rep.selected) in cells and all(
        tuple(f["selected"]) in cells for f in rep.folds)
    checks = [("report finite", _finite(*values), f"{len(values)} scores"),
              ("selected cells lie on the grid", on_grid,
               f"selected {tuple(rep.selected)}, per fold "
               f"{[tuple(f['selected']) for f in rep.folds]}")]
    return PassResult(inner + outer, failed, _digest(rep.to_dict()), checks=checks)


WORKLOADS = {  # name: (setup, run_pass, extra_check)
    "quadrature": (quadrature_setup, quadrature_pass, None),
    "toy-blr": (toy_setup, toy_pass, None),
    "cv-bnn": (cv_setup, cv_pass, lambda inp: blr_kl_check(inp.blr)),
}
