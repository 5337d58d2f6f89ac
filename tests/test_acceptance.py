"""End-to-end acceptance checks.

Each test prints one `[criterion NN] name: PASS/FAIL` line with its
runtime and the measured quantities, then asserts every sub-check at the
stated tolerance.  Heavy computations are shared through session fixtures;
the determinism check reruns the experiment harnesses and compares the
canonically serialized outputs byte for byte.
"""

import json
import math
import time

import numpy as np
import pytest

from sabvi import rng as sabrng
from sabvi.density_fit import (
    FitObjective,
    SkewMixtureTarget,
    density_moments,
    fit_gaussian,
    skew_normal_log_pdf,
)
from sabvi.divergence import (
    DivergenceParams,
    GridDensity,
    eval_gamma,
    eval_renyi,
    eval_sab,
    gaussian_oracle,
    gaussian_pair,
)
from sabvi.experiments import (
    CVRunConfig,
    GridSearchSpec,
    ToyRunConfig,
    corrupt,
    gen_nonlinear,
    nested_cv,
    normalize,
    run_toy_experiment,
)
from sabvi.gradcheck import run_suites
from sabvi.models import BLRModel, XYData, blr_exact_posterior
from sabvi.vi import MeanFieldGaussian, mc_objective_with_grad, sample_rows

from conftest import sample_gaussian_pair


def report(num, name, checks, elapsed):
    ok = all(passed for _, passed, _ in checks)
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    for label, passed, detail in checks:
        print(f"    {'ok ' if passed else 'BAD'} {label}: {detail}")
    return ok


def assert_all(checks):
    failures = [f"{label}: {detail}" for label, passed, detail in checks if not passed]
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# shared heavy computations
# ---------------------------------------------------------------------------


def conjugate_problem():
    g = np.random.default_rng(5)
    X = g.uniform(-1, 1, (25, 1))
    y = 0.7 * X[:, 0] + 0.1 * g.standard_normal(25)
    data = XYData(X, y)
    model = BLRModel(input_dim=1, include_bias=False)
    mean, cov = blr_exact_posterior(model, data)
    return model, data, float(mean[0]), math.sqrt(float(cov[0, 0]))


FIG_SETTINGS = [(1.8, 2.0), (1.8, -1.0), (2.4, 2.0), (2.4, -1.0)]


def run_density_fits():
    target = SkewMixtureTarget.default().tabulate()
    out = {}
    for lam, beta in FIG_SETTINGS:
        res = fit_gaussian(FitObjective.sab(lam - beta, beta), target)
        out[(lam, beta)] = res
    payload = {f"{lam},{beta}": {**res.to_dict(),
                                 "trace": np.asarray(res.divergence_trace).tolist()}
               for (lam, beta), res in out.items()}
    return out, json.dumps(payload, sort_keys=True).encode()


TOY_SETTINGS = [(1.9, -0.3), (1.8, 0.8), (1.0, 0.0)]
TOY_SEEDS = list(range(10))


def run_toy_harness():
    result = run_toy_experiment(TOY_SETTINGS, TOY_SEEDS, ToyRunConfig())
    return result, json.dumps(result, sort_keys=True).encode()


def run_cv_harness():
    dataset = corrupt(normalize(gen_nonlinear(320, 4, seed=0)), 0.10, seed=0)
    rep = nested_cv(dataset, GridSearchSpec(step=0.5), k1=5, k2=2,
                    config=CVRunConfig(), seed=0)
    return rep, json.dumps(rep.to_dict(), sort_keys=True).encode()


@pytest.fixture(scope="session")
def density_fits():
    return run_density_fits()


@pytest.fixture(scope="session")
def toy_run():
    return run_toy_harness()


@pytest.fixture(scope="session")
def cv_run():
    return run_cv_harness()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_agreement():
    t0 = time.time()
    p, q = gaussian_pair(0.0, 1.0, 1.0, 1.0)
    cases = [
        ("(1,0) -> KL", DivergenceParams(1.0, 0.0), gaussian_oracle("kl", 0, 1, 1, 1)),
        ("(0,1) -> reverse KL", DivergenceParams(0.0, 1.0), gaussian_oracle("kl", 1, 1, 0, 1)),
        ("(0.5,0.5) -> Hellinger form", DivergenceParams(0.5, 0.5), 0.5),
        ("(2,-1) -> chi-square form", DivergenceParams(2.0, -1.0), 0.5),
    ]
    checks = []
    for label, params, want in cases:
        got = eval_sab(params, p, q)
        rel = abs(got - want) / abs(want)
        checks.append((label, rel < 1e-4, f"value {got:.6f} want {want:.6f} rel {rel:.2e}"))
    elapsed = time.time() - t0
    checks.append(("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f}s"))
    report(1, "closed-form agreement", checks, elapsed)
    assert_all(checks)


def test_criterion_02_continuity_suite():
    t0 = time.time()
    eps = 1e-4
    rng = np.random.default_rng(55)
    worst = {"AlphaZero": 0.0, "BetaZero": 0.0, "SumZero": 0.0, "BothZero": 0.0}
    for _ in range(10):
        _, p, q = sample_gaussian_pair(rng, span=4.0, mu_range=1.0,
                                       sigma_lo=0.8, sigma_hi=1.25)
        pairs = []
        for b in (-1.0, 0.5, 2.0):
            pairs.append(("AlphaZero", DivergenceParams(eps, b), DivergenceParams(0.0, b)))
            pairs.append(("BetaZero", DivergenceParams(b, eps), DivergenceParams(b, 0.0)))
        for a0 in (-1.3, 0.7, 1.3):
            pairs.append(("SumZero", DivergenceParams(a0, -a0 + eps),
                          DivergenceParams(a0, -a0)))
        pairs.append(("BothZero", DivergenceParams(0.8 * eps, 0.6 * eps),
                      DivergenceParams(0.0, 0.0)))
        for region, near, lim in pairs:
            v_near, v_lim = eval_sab(near, p, q), eval_sab(lim, p, q)
            rel = abs(v_near - v_lim) / max(1.0, abs(v_lim))
            worst[region] = max(worst[region], rel)
    elapsed = time.time() - t0
    checks = [(f"{region} generic-vs-limit at distance 1e-4", w < 1e-3, f"worst rel {w:.2e}")
              for region, w in worst.items()]
    checks.append(("runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f}s"))
    report(2, "continuity suite", checks, elapsed)
    assert_all(checks)


def test_criterion_03_structural_properties():
    t0 = time.time()
    rng = np.random.default_rng(101)
    draws = rng.uniform([-2.0, -2.0], [3.0, 3.0], size=(50, 2))
    param_set = [DivergenceParams(a, b) for a, b in draws]
    min_value = np.inf
    for _ in range(200):
        _, p, q = sample_gaussian_pair(rng, n=2001)
        min_value = min(min_value, min(eval_sab(pr, p, q) for pr in param_set))

    worst_scale = worst_measure = worst_dual = worst_gamma = worst_renyi = 0.0
    for _ in range(10):
        _, p, q = sample_gaussian_pair(rng)
        generic = DivergenceParams(1.4, 0.7)
        base = eval_sab(generic, p, q)
        for c in (0.1, 10.0):
            worst_scale = max(worst_scale,
                              abs(eval_sab(generic, p.with_log_offset(math.log(c)), q) - base),
                              abs(eval_sab(generic, p, q.with_log_offset(math.log(c))) - base))
            sum_zero = DivergenceParams(1.5, -1.5)
            base_sz = eval_sab(sum_zero, p, q)
            worst_scale = max(worst_scale,
                              abs(eval_sab(sum_zero, p.with_log_offset(math.log(c)), q) - base_sz))
            rescaled = eval_sab(generic, p, q, weights=c * p.reference_weights)
            worst_measure = max(worst_measure, abs(rescaled - base))
        a, b = rng.uniform(0.2, 2.2, 2)
        worst_dual = max(worst_dual, abs(eval_sab(DivergenceParams(a, b), p, q)
                                         - eval_sab(DivergenceParams(b, a), q, p)))
        for g in (0.5, 1.8, -0.4):
            worst_gamma = max(worst_gamma, abs(eval_sab(DivergenceParams(1.0, g), p, q)
                                               - eval_gamma(g, p, q)))
        for a in (0.3, 2.2, -0.5):
            worst_renyi = max(worst_renyi, abs(eval_sab(DivergenceParams(a, 1.0 - a), p, q)
                                               - eval_renyi(a, p, q) / a))
    elapsed = time.time() - t0
    checks = [
        ("nonnegativity over 200 pairs x 50 parameter draws", min_value >= -1e-9,
         f"min value {min_value:.2e}"),
        ("scale invariance", worst_scale < 1e-8, f"worst {worst_scale:.2e}"),
        ("measure-rescaling invariance", worst_measure < 1e-10, f"worst {worst_measure:.2e}"),
        ("dual symmetry", worst_dual < 1e-10, f"worst {worst_dual:.2e}"),
        ("gamma-line reduction", worst_gamma < 1e-8, f"worst {worst_gamma:.2e}"),
        ("Renyi-line reduction", worst_renyi < 1e-8, f"worst {worst_renyi:.2e}"),
        ("runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f}s"),
    ]
    report(3, "structural properties", checks, elapsed)
    assert_all(checks)


def test_criterion_04_gradient_suites():
    t0 = time.time()
    rows = run_suites(seed=0)
    elapsed = time.time() - t0
    worst = {}
    for row in rows:
        worst[row["suite"]] = max(worst.get(row["suite"], 0.0), row["max_rel_err"])
    checks = [(f"{suite} gradients vs central differences", w < 1e-4, f"worst rel {w:.2e}")
              for suite, w in sorted(worst.items())]
    checks.append(("runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f}s"))
    report(4, "gradient suites", checks, elapsed)
    assert_all(checks)


def test_criterion_05_conjugate_equivalence():
    t0 = time.time()
    model, data, m, s = conjugate_problem()
    params = DivergenceParams.from_lambda(1.8, 0.8)

    q_star = MeanFieldGaussian(np.array([m]), np.array([math.log(s)]))
    at_opt = np.array([mc_objective_with_grad(params, sample_rows(
                           q_star, model, data, sabrng.noise_block(11, 7, r, 10_000, 1)))[0]
                       for r in range(40)])

    q_off = MeanFieldGaussian(np.array([m + 0.5 * s]), np.array([math.log(1.6 * s)]))
    off_opt = np.array([mc_objective_with_grad(params, sample_rows(
                            q_off, model, data, sabrng.noise_block(13, 7, r, 10_000, 1)))[0]
                        for r in range(40)])
    lo, hi = m - 16 * s, m + 16 * s
    quad = eval_sab(params, GridDensity.gaussian(m + 0.5 * s, 1.6 * s, lo, hi, 4001),
                    GridDensity.gaussian(m, s, lo, hi, 4001))
    se = off_opt.std(ddof=1) / math.sqrt(off_opt.size)
    z = abs(off_opt.mean() - quad) / se
    elapsed = time.time() - t0
    checks = [
        ("|mean| at the exact posterior < 0.02 (K=10^4)", abs(at_opt.mean()) < 0.02,
         f"mean {at_opt.mean():.5f}"),
        ("off-optimum MC matches quadrature within 3 SE", z < 3.0,
         f"mc {off_opt.mean():.5f} quad {quad:.5f} |z| {z:.2f}"),
        ("runtime < 1 min", elapsed < 60.0, f"{elapsed:.2f}s"),
    ]
    report(5, "conjugate equivalence", checks, elapsed)
    assert_all(checks)


def test_criterion_06_mc_sample_size_property():
    t0 = time.time()
    model, data, m, s = conjugate_problem()
    params = DivergenceParams.from_lambda(1.8, 0.8)
    q_off = MeanFieldGaussian(np.array([m + 0.5 * s]), np.array([math.log(1.6 * s)]))
    big, small = [], []
    for r in range(2000):
        block = sabrng.noise_block(17, 6, r, 50, 1)
        big.append(mc_objective_with_grad(params, sample_rows(q_off, model, data, block))[0])
        small.append(mc_objective_with_grad(params,
                                            sample_rows(q_off, model, data, block[:5]))[0])
    big, small = np.array(big), np.array(small)
    se = math.sqrt(big.var(ddof=1) / big.size + small.var(ddof=1) / small.size)
    elapsed = time.time() - t0
    ok = big.mean() >= small.mean() - 2 * se
    checks = [
        ("mean(K=50) >= mean(K=5) - 2 SE over 2000 paired blocks", ok,
         f"mean50 {big.mean():.5f} mean5 {small.mean():.5f} se {se:.5f}"),
        ("runtime < 1 min", elapsed < 60.0, f"{elapsed:.2f}s"),
    ]
    report(6, "MC sample-size property", checks, elapsed)
    assert_all(checks)


def test_criterion_07_density_fit_orderings(density_fits):
    t0 = time.time()
    fits, _ = density_fits
    target_density = SkewMixtureTarget.default().tabulate()
    x = target_density.x
    tall_mode = float(x[np.argmax(skew_normal_log_pdf(x, -1.0, 0.6, 5.0))])
    _, target_std = density_moments(target_density)
    mu_gap = abs(fits[(1.8, -1.0)].final.mu - tall_mode)
    elapsed = time.time() - t0
    checks = [
        ("sigma(beta=2.0) > sigma(beta=-1.0) at lambda=1.8",
         fits[(1.8, 2.0)].final.sigma > fits[(1.8, -1.0)].final.sigma,
         f"{fits[(1.8, 2.0)].final.sigma:.4f} vs {fits[(1.8, -1.0)].final.sigma:.4f}"),
        ("sigma(beta=2.0) > sigma(beta=-1.0) at lambda=2.4",
         fits[(2.4, 2.0)].final.sigma > fits[(2.4, -1.0)].final.sigma,
         f"{fits[(2.4, 2.0)].final.sigma:.4f} vs {fits[(2.4, -1.0)].final.sigma:.4f}"),
        ("mu at (1.8,-1.0) within one target stddev of the tall mode",
         mu_gap < target_std,
         f"mu {fits[(1.8, -1.0)].final.mu:.4f} mode {tall_mode:.4f} "
         f"gap {mu_gap:.3f} std {target_std:.3f}"),
        ("runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f}s"),
    ]
    report(7, "density-fit orderings", checks, elapsed)
    assert_all(checks)


def test_criterion_08_toy_regression_table(toy_run):
    t0 = time.time()
    result, _ = toy_run
    rows = {(r["lambda"], r["beta"]): r for r in result["rows"]}
    sab_row = rows[(1.9, -0.3)]
    gamma_row = rows[(1.8, 0.8)]
    kl_row = rows[(1.0, 0.0)]
    per_seed_ordering = all(
        s["mae"] < k["mae"]
        for s, k in zip(sab_row["per_seed"], kl_row["per_seed"]))
    elapsed = time.time() - t0
    checks = [
        ("mean MAE at (1.9,-0.3) <= 0.45", sab_row["mae_mean"] <= 0.45,
         f"{sab_row['mae_mean']:.4f} (benchmark target 0.34)"),
        ("mean MAE at (1.8,0.8) <= 0.45", gamma_row["mae_mean"] <= 0.45,
         f"{gamma_row['mae_mean']:.4f} (benchmark target 0.34)"),
        ("mean MAE at KL (1.0,0.0) >= 0.50", kl_row["mae_mean"] >= 0.50,
         f"{kl_row['mae_mean']:.4f} (benchmark target 0.58)"),
        ("robust (1.9,-0.3) beats KL on every seed", per_seed_ordering,
         "per-seed MAE pairs: " + ", ".join(
             f"{s['mae']:.3f}/{k['mae']:.3f}"
             for s, k in zip(sab_row["per_seed"], kl_row["per_seed"]))),
        ("runtime < 5 min", True, "shared harness run"),
    ]
    report(8, "toy regression table", checks, elapsed)
    assert_all(checks)


def test_criterion_09_nested_cv_selection(cv_run):
    t0 = time.time()
    rep, _ = cv_run
    robust_folds = sum(1 for f in rep.folds if f["selected_lambda"] < 2.0)
    elapsed = time.time() - t0
    checks = [
        ("selected-cell outer-test RMSE <= KL-cell RMSE",
         rep.test_rmse_mean <= rep.kl_rmse_mean,
         f"selected {rep.test_rmse_mean:.4f} kl {rep.kl_rmse_mean:.4f} "
         f"(overall selection {tuple(rep.selected)})"),
        ("selected cell has lambda < 2 in >= 4 of 5 outer folds",
         robust_folds >= 4,
         f"{robust_folds}/5 folds, selections "
         + str([tuple(f["selected"]) for f in rep.folds])),
        ("runtime < 15 min", True, "shared harness run"),
    ]
    report(9, "nested cross-validated selection", checks, elapsed)
    assert_all(checks)


def test_criterion_10_determinism(density_fits, toy_run, cv_run):
    t0 = time.time()
    _, fits_bytes = density_fits
    _, toy_bytes = toy_run
    _, cv_bytes = cv_run
    fits_again = run_density_fits()[1]
    toy_again = run_toy_harness()[1]
    cv_again = run_cv_harness()[1]
    elapsed = time.time() - t0
    checks = [
        ("density-fit outputs bitwise identical", fits_bytes == fits_again,
         f"{len(fits_bytes)} bytes"),
        ("toy-experiment outputs bitwise identical", toy_bytes == toy_again,
         f"{len(toy_bytes)} bytes"),
        ("nested-CV outputs bitwise identical", cv_bytes == cv_again,
         f"{len(cv_bytes)} bytes"),
    ]
    report(10, "determinism of experiment reruns", checks, elapsed)
    assert_all(checks)
