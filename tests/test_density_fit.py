import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sabvi
from sabvi.density_fit import (
    GRADIENT_TOL,
    FitEvaluator,
    FitObjective,
    FitResult,
    Gaussian1D,
    GridBounds,
    SkewComponent,
    SkewMixtureTarget,
    _normal_log_cdf,
    analytic_gradient,
    density_moments,
    divergence_value,
    fit_gaussian,
    moment_matched_init,
    skew_normal_log_pdf,
)
from sabvi.divergence import (
    DivergenceParams,
    DomainError,
    EvaluationError,
    GridDensity,
    eval_sab,
    gaussian_log_pdf,
)
from sabvi.gradcheck import FIT_GRAD_TOL, density_fit_gradient_suite, finite_diff_gradient
from sabvi.optim import AdamConfig, AdamState, adam_step


class TestSkewNormal:
    def test_zero_shape_reduces_to_normal(self):
        assert skew_normal_log_pdf(0.0, 0.0, 1.0, 0.0) == pytest.approx(
            math.log(2.0) + gaussian_log_pdf(0.0, 0.0, 1.0) + math.log(0.5))
        x = np.linspace(-4, 4, 9)
        np.testing.assert_allclose(skew_normal_log_pdf(x, 0.0, 1.0, 0.0),
                                   gaussian_log_pdf(x, 0.0, 1.0), rtol=1e-12)

    @pytest.mark.parametrize("shape", [0.0, 2.5, -4.0, 8.0])
    def test_normalization(self, shape):
        x = np.linspace(-30, 30, 20001)
        mass = np.trapezoid(np.exp(skew_normal_log_pdf(x, 0.3, 1.4, shape)), x)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_positive_shape_shifts_mode_right(self):
        x = np.linspace(-6, 6, 24001)
        mode = x[np.argmax(skew_normal_log_pdf(x, 0.0, 1.0, 4.0))]
        assert mode > 0.0

    def test_extreme_tail_stays_finite(self):
        assert np.isfinite(skew_normal_log_pdf(-40.0, 0.0, 1.0, 5.0))

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            skew_normal_log_pdf(0.0, 0.0, -1.0, 0.0)

    def test_normal_log_cdf_matches_scipy(self):
        # a dense grid, past where erfc(|a| / sqrt 2) underflows (|a| > 37.5),
        # and the switch between the a < 0 and a >= 0 branches
        tiny = np.finfo(float).tiny
        a = np.concatenate([np.linspace(-250.0, 250.0, 500_001),
                            [-0.0, 0.0, -tiny, tiny, -5e-324, 5e-324]])
        ref = scipy.special.log_ndtr(a)
        err = np.abs(_normal_log_cdf(a) - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-14, (err.max(), a[err.argmax()])

    def test_normal_log_cdf_special_values(self):
        # pyproject turns RuntimeWarnings into errors, so none may be raised
        assert _normal_log_cdf(-np.inf) == -np.inf
        assert _normal_log_cdf(np.inf) == 0.0
        assert np.isnan(_normal_log_cdf(np.nan))
        assert _normal_log_cdf(0.0) == pytest.approx(math.log(0.5), rel=1e-15)
        assert _normal_log_cdf(-1e300) == -np.inf
        assert _normal_log_cdf(1e300) == 0.0


def test_package_imports_no_scipy():
    """Importing every module of the package loads no part of scipy."""
    modules = ["cli", "gradcheck", "experiments", "density_spec", "density_fit",
               "divergence", "vi", "models", "optim", "rng"]
    code = ("import sys\n"
            + "".join(f"import sabvi.{m}\n" for m in modules)
            + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sabvi.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]", out.stdout


class TestSkewMixtureTarget:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SkewMixtureTarget((SkewComponent(0.5, 0.0, 1.0, 0.0),
                               SkewComponent(0.4, 1.0, 1.0, 0.0)))

    def test_default_target_normalized(self):
        d = SkewMixtureTarget.default().tabulate()
        mass = np.trapezoid(np.exp(d.log_values), d.x)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_single_component_is_that_density(self):
        t = SkewMixtureTarget((SkewComponent(1.0, 0.0, 1.0, 0.0),))
        x = np.linspace(-3, 3, 5)
        np.testing.assert_allclose(t.log_pdf(x), gaussian_log_pdf(x, 0.0, 1.0), rtol=1e-12)

    def test_moment_matched_init(self):
        t = SkewMixtureTarget((SkewComponent(1.0, 0.7, 1.3, 0.0),))
        init = moment_matched_init(t.tabulate())
        assert init.mu == pytest.approx(0.7, abs=1e-6)
        assert init.sigma == pytest.approx(1.3, abs=1e-6)

    def test_moment_matched_init_of_an_unresolved_target_is_evaluation_error(self):
        # stddev 1e-300 on its +-10 sigma grid: (x - mean)^2 underflows to 0
        x = np.linspace(-1e-299, 1e-299, 4001)
        target = GridDensity(-1e-299, 1e-299, gaussian_log_pdf(x, 0.0, 1e-300))
        with pytest.raises(EvaluationError, match=r"stddev 0\.0 give no Gaussian start"):
            moment_matched_init(target)
        with pytest.raises(EvaluationError, match="give no Gaussian start"):
            fit_gaussian(FitObjective.kl(), target, max_iters=1)


class TestGradients:
    def test_randomized_fd_agreement(self):
        rows = density_fit_gradient_suite(seed=0)
        worst = max(r["max_rel_err"] for r in rows)
        assert worst < FIT_GRAD_TOL, worst

    def test_every_seed_draws_cases_that_evaluate(self):
        # a drawn case whose integrals land on floored nodes is drawn again
        # rather than failing the whole suite
        for seed in range(40):
            rows = density_fit_gradient_suite(seed=seed)
            worst = max(r["max_rel_err"] for r in rows)
            assert len(rows) == 50 and worst < FIT_GRAD_TOL, (seed, worst)

    @pytest.mark.parametrize("objective", [
        FitObjective.kl(), FitObjective.renyi(1.5),
        FitObjective.gamma(0.8), FitObjective.sab(1.2, 0.6)])
    def test_stationary_at_exact_recovery(self, objective):
        p = GridDensity.gaussian(0.0, 1.0, -10.0, 10.0, 4001)
        grad = analytic_gradient(objective, Gaussian1D(0.0, 0.0), p)
        np.testing.assert_allclose(grad, 0.0, atol=1e-8)

    def test_gamma_one_equals_family_point(self):
        p = SkewMixtureTarget.default().tabulate()
        q = Gaussian1D(-0.2, math.log(0.9))
        g1 = analytic_gradient(FitObjective.gamma(1.0), q, p)
        g2 = analytic_gradient(FitObjective.sab(1.0, 1.0), q, p)
        np.testing.assert_allclose(g1, g2, atol=1e-8)

    def test_kl_is_the_limit_of_the_family_gradient(self):
        # generic-formula gradient just off the KL corner, normalized inputs
        p = GridDensity.gaussian(0.3, 1.1, -12.0, 12.0, 4001)
        q = Gaussian1D(-0.1, 0.1)
        g_kl = analytic_gradient(FitObjective.kl(), q, p)
        g_near = analytic_gradient(FitObjective.sab(1.0 + 1e-6, 1e-6), q, p)
        np.testing.assert_allclose(g_near, g_kl, atol=1e-6)

    @pytest.mark.parametrize("kind,orders,surface", [
        ("renyi", (0.0,), "AlphaZero"), ("renyi", (1.0,), "BetaZero"),
        ("gamma", (0.0,), "BetaZero"), ("gamma", (-1.0,), "SumZero"),
        ("sab", (0.0, 0.7), "AlphaZero"), ("sab", (1.0, 0.0), "BetaZero"),
        ("sab", (0.5, -0.5), "SumZero"), ("sab", (0.0, 0.0), "BothZero"),
        ("renyi", (math.nan,), "must be finite"), ("gamma", (math.inf,), "must be finite"),
    ])
    def test_one_region_rule_refuses_the_limit_surfaces(self, kind, orders, surface):
        with pytest.raises(DomainError, match=surface) as info:
            getattr(FitObjective, kind)(*orders)
        if surface.endswith("Zero"):
            label = f"{kind}({','.join(map(str, orders))})"
            assert f"fit objective {label} = sAB(" in str(info.value)

    @pytest.mark.parametrize("a", [0.3, -0.7, 1.5, 0.1 + 0.2, 1e-300])
    def test_renyi_stores_its_sab_point(self, a):
        objective = FitObjective.renyi(a)
        assert objective.alpha == a and objective.beta == 1.0 - a
        assert FitObjective.gamma(a).alpha == 1.0


_ORDER = st.one_of(st.floats(0.2, 2.5), st.floats(-2.5, -0.2))


@st.composite
def _objectives(draw):
    """Fit objectives of every kind, with orders away from excluded values."""
    kind = draw(st.sampled_from(["kl", "renyi", "gamma", "sab"]))
    if kind == "kl":
        return FitObjective.kl()
    if kind == "renyi":
        return FitObjective.renyi(draw(_ORDER.filter(lambda a: abs(a - 1.0) >= 0.2)))
    if kind == "gamma":
        return FitObjective.gamma(draw(_ORDER.filter(lambda b: abs(b + 1.0) >= 0.2)))
    a = draw(_ORDER)
    return FitObjective.sab(a, draw(_ORDER.filter(lambda b: abs(a + b) >= 0.2)))


_GAUSSIANS = st.builds(Gaussian1D, st.floats(-3.0, 3.0), st.floats(-3.0, 0.7))
_FLOORED_Q = Gaussian1D(-1.0, math.log(0.02))


def _fused_checked_against_reference(objective, q, p):
    """The fused (value, grad) after checking it against divergence_value:
    both raise EvaluationError (then None), naming the same term, or the
    values agree."""
    try:
        reference = divergence_value(objective, q, p)
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as fused:
            FitEvaluator(objective, p).value_and_grad(q.mu, q.log_sigma)
        if objective.kind != "gamma":  # the gamma reference names its own terms
            assert str(fused.value) == str(exc)
        return None
    value, grad = FitEvaluator(objective, p).value_and_grad(q.mu, q.log_sigma)
    assert math.isclose(value, reference, rel_tol=1e-12, abs_tol=1e-15)
    return value, grad


_NARROW_Q = Gaussian1D(-0.5, math.log(0.05))


class TestFusedEvaluator:
    """The fused fit step against the independent divergence_value."""

    @settings(max_examples=150, deadline=None)
    @given(objective=_objectives(), q=_GAUSSIANS, n=st.just(801))
    # a narrow q floored at 775 of the 801 nodes: the fused path floors q
    # itself, and must raise or agree exactly as the reference does
    @example(objective=FitObjective.sab(-0.5, 1.5), q=_FLOORED_Q, n=801)
    @example(objective=FitObjective.renyi(-0.5), q=_FLOORED_Q, n=801)
    @example(objective=FitObjective.sab(1.5, 0.5), q=_FLOORED_Q, n=801)
    @example(objective=FitObjective.kl(), q=_FLOORED_Q, n=801)
    @example(objective=FitObjective.gamma(0.5), q=_FLOORED_Q, n=801)
    # the stock 4001-point grid the fits run on, where a step's power-term
    # rows have thousands of nodes below exp's normal range; (-0.49, -0.63)
    # is near where the sAB(2.8, -1) fit stops
    @example(objective=FitObjective.kl(), q=_NARROW_Q, n=4001)
    @example(objective=FitObjective.renyi(0.5), q=_NARROW_Q, n=4001)
    @example(objective=FitObjective.gamma(0.5), q=_NARROW_Q, n=4001)
    @example(objective=FitObjective.sab(2.8, -1.0), q=_NARROW_Q, n=4001)
    @example(objective=FitObjective.sab(2.8, -1.0), q=Gaussian1D(-0.49, -0.63), n=4001)
    @example(objective=FitObjective.sab(-0.5, 1.5), q=_NARROW_Q, n=4001)
    @example(objective=FitObjective.sab(-0.5, 1.5), q=Gaussian1D(-0.3, 0.2), n=4001)
    # lambda < 0 on a floored target: the target-only term and q's own
    # power term both fail, and q's is named first, as eval_sab names it
    @example(objective=FitObjective.sab(-1.2, 0.4), q=_NARROW_Q, n=4001)
    def test_value_matches_reference_and_grad_is_analytic_gradient(self, objective, q, n):
        p = SkewMixtureTarget.default().tabulate(n)
        fused = _fused_checked_against_reference(objective, q, p)
        if fused is not None:
            np.testing.assert_array_equal(fused[1], analytic_gradient(objective, q, p))

    @settings(max_examples=150, deadline=None)
    @given(objective=_objectives(), q=_GAUSSIANS)
    @example(objective=FitObjective.sab(1.5, -0.5), q=Gaussian1D(2.5, math.log(0.3)))
    @example(objective=FitObjective.sab(1.5, 0.5), q=Gaussian1D(1.0, math.log(0.3)))
    @example(objective=FitObjective.sab(1.5, -0.5), q=Gaussian1D(1.0, math.log(0.02)))
    @example(objective=FitObjective.kl(), q=Gaussian1D(1.0, math.log(0.02)))
    # q and the target both floored, on disjoint sides: the floored
    # products carry the value, so an unfloored q would change it
    @example(objective=FitObjective.renyi(0.5), q=Gaussian1D(2.5, math.log(0.02)))
    @example(objective=FitObjective.sab(0.5, 1.5), q=Gaussian1D(2.5, math.log(0.02)))
    def test_floored_target_raises_exactly_when_reference_does(self, objective, q):
        x = np.linspace(-4.0, 4.0, 801)
        log_values = np.where(x > 1.2, -700.0, gaussian_log_pdf(x, 1.1, 0.3))
        _fused_checked_against_reference(objective, q, GridDensity(-4.0, 4.0, log_values))


class TestFiniteDifferenceOracle:
    def test_second_order_in_h(self):
        p = SkewMixtureTarget.default().tabulate()
        q = Gaussian1D(0.1, 0.1)
        obj = FitObjective.sab(1.0, 0.3)
        exact = analytic_gradient(obj, q, p)
        err = lambda h: np.max(np.abs(finite_diff_gradient(obj, q, p, h) - exact))
        e1, e2 = err(1e-3), err(5e-4)
        assert e2 < e1 / 3.0  # central differences: error ~ h^2

    def test_near_zero_at_stationary_point(self):
        p = GridDensity.gaussian(0.0, 1.0, -10.0, 10.0, 4001)
        fd = finite_diff_gradient(FitObjective.kl(), Gaussian1D(0.0, 0.0), p, h=1e-4)
        np.testing.assert_allclose(fd, 0.0, atol=1e-7)

    def test_positive_h_required(self):
        p = GridDensity.gaussian(0.0, 1.0, -10.0, 10.0, 401)
        with pytest.raises(ValueError):
            finite_diff_gradient(FitObjective.kl(), Gaussian1D(0.0, 0.0), p, h=0.0)


class TestFitGaussian:
    def test_recovers_single_gaussian_target(self):
        target = SkewMixtureTarget((SkewComponent(1.0, 0.0, 1.0, 0.0),))
        res = fit_gaussian(FitObjective.kl(), target.tabulate(),
                           init=Gaussian1D(2.0, math.log(3.0)), max_iters=5000)
        assert res.converged
        assert res.final.mu == pytest.approx(0.0, abs=1e-3)
        assert res.final.log_sigma == pytest.approx(0.0, abs=1e-3)

    def test_trace_descends_when_smoothed(self):
        res = fit_gaussian(FitObjective.sab(-0.2, 2.0), SkewMixtureTarget.default().tabulate(),
                           max_iters=400)
        trace = res.divergence_trace
        window = 20
        smoothed = np.convolve(trace, np.ones(window) / window, mode="valid")
        start = 50
        diffs = np.diff(smoothed[start:])
        # ADAM transients leave sub-1e-6 ripples after smoothing; anything
        # macroscopic (a stalled or diverging run) blows well past this
        assert np.all(diffs <= 1e-5 * max(1.0, abs(smoothed[start])))

    def test_divergence_value_matches_family_evaluator(self):
        p = SkewMixtureTarget.default().tabulate()
        q = Gaussian1D(0.0, 0.0)
        assert divergence_value(FitObjective.sab(1.2, 0.6), q, p) == pytest.approx(
            eval_sab(DivergenceParams(1.2, 0.6), q.tabulate(p), p))

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            FitResult(Gaussian1D(0, 0), np.array([]), True, 0)
        with pytest.raises(ValueError):
            FitResult(Gaussian1D(0, 0), np.array([1.0, np.nan]), True, 2)

    def test_mid_run_evaluation_error_carries_partial_trace(self):
        # a hard-clamped region next to the target: an aggressive step
        # jumps the Gaussian onto it and the floored-tail guard fires
        x = np.linspace(-4, 4, 1601)
        lv = gaussian_log_pdf(x, 1.1, 0.3)
        lv[x > 1.2] = -700.0
        target = GridDensity(-4.0, 4.0, lv)
        with pytest.raises(EvaluationError) as excinfo:
            fit_gaussian(FitObjective.sab(1.5, -0.5), target,
                         init=Gaussian1D(-1.0, math.log(0.1)),
                         opt=AdamConfig(learning_rate=2.0), max_iters=50)
        partial = getattr(excinfo.value, "partial_result", None)
        assert partial is not None
        assert partial.iterations >= 1 and not partial.converged

    @pytest.mark.parametrize("target,init,learning_rate,evaluated,message", [
        (None, Gaussian1D(1e300, 0.0), 0.01, 0, "mu 1e+300 lies outside the grid"),
        (None, Gaussian1D(0.0, -800.0), 0.01, 0, "sigma exp(-800.0) is below the grid's spacing"),
        (None, Gaussian1D(0.0, 800.0), 0.01, 0, "sigma exp(800.0) exceeds the grid's width"),
        (None, None, 1e300, 1, "lies outside the grid"),  # the first step sends mu off it
        # the second iterate's sigma is e^6, wider than the 20-wide grid
        (GridDensity(-10.0, 10.0, gaussian_log_pdf(np.linspace(-10.0, 10.0, 4001), 0.0, 1.0)),
         Gaussian1D(0.0, -2.0), 8.0, 1, "exceeds the grid's width 20"),
    ], ids=["far-mu", "tiny-sigma", "huge-sigma", "huge-step", "mid-fit"])
    def test_iterate_the_grid_cannot_resolve_is_evaluation_error(self, target, init,
                                                                learning_rate, evaluated,
                                                                message):
        if target is None:
            target = SkewMixtureTarget.default().tabulate()
        with pytest.raises(EvaluationError, match=r"the fit's iterate \d+: ") as excinfo:
            fit_gaussian(FitObjective.kl(), target, init=init,
                         opt=AdamConfig(learning_rate=learning_rate), max_iters=50)
        assert message in str(excinfo.value)
        partial = getattr(excinfo.value, "partial_result", None)
        assert (0 if partial is None else partial.iterations) == evaluated

    def test_iterate_past_the_float_range_is_evaluation_error(self):
        # on a grid 1e-200 wide the first gradient's 1 / sigma^2 overflows
        target = GridDensity(0.0, 1e-200, np.zeros(3))
        with pytest.raises(EvaluationError, match="the fit left the float range"):
            fit_gaussian(FitObjective.kl(), target, init=Gaussian1D(5e-201, -461.0),
                         max_iters=50)

    def test_overflowing_float_step_raises_numpy_message(self):
        # lr 1e308 overflows lr * m_hat on the first step: on floats a silent
        # inf, which must still end the fit with the stacked step's error
        with pytest.raises(EvaluationError) as excinfo:
            fit_gaussian(FitObjective.kl(), SkewMixtureTarget.default().tabulate(),
                         init=Gaussian1D(2.0, math.log(0.3)),
                         opt=AdamConfig(learning_rate=1e308), max_iters=5)
        assert str(excinfo.value) == (
            "the fit left the float range at mu = 2.0, log sigma = -1.2039728043259361 "
            "(overflow encountered in multiply)")
        partial = excinfo.value.partial_result
        assert partial.iterations == 1 and not partial.converged
        assert (partial.final.mu, partial.final.log_sigma) == (2.0, math.log(0.3))

    def test_overflowing_second_moment_ratio_raises_numpy_message(self, monkeypatch):
        # v = 1e-3 * g * g is finite at g = 1e155, but v / c2 overflows: on
        # floats its root is inf, which zeroes the step and leaves six finite values
        monkeypatch.setattr(FitEvaluator, "value_and_grad",
                            lambda self, mu, log_sigma: (0.5, np.array([1e155, 0.0])))
        target = SkewMixtureTarget.default().tabulate()
        init = moment_matched_init(target)
        with pytest.raises(EvaluationError) as excinfo:
            fit_gaussian(FitObjective.kl(), target, init=init, max_iters=5)
        assert str(excinfo.value) == (
            f"the fit left the float range at mu = {init.mu!r}, "
            f"log sigma = {init.log_sigma!r} (overflow encountered in divide)")
        partial = excinfo.value.partial_result
        assert partial.iterations == 1 and not partial.converged
        assert (partial.final.mu, partial.final.log_sigma) == (init.mu, init.log_sigma)

    @pytest.mark.parametrize("grad", [(0.0, math.nan), (math.nan, 0.0)])
    def test_nan_gradient_never_reads_as_converged(self, monkeypatch, grad):
        # max(abs(g0), abs(g1)) would drop the NaN; np.abs(grad).max() keeps it
        monkeypatch.setattr(FitEvaluator, "value_and_grad",
                            lambda self, mu, log_sigma: (0.5, np.array(grad)))
        with pytest.raises(EvaluationError, match="the fit left the float range at mu = ") as exc:
            fit_gaussian(FitObjective.kl(), SkewMixtureTarget.default().tabulate(), max_iters=5)
        assert "is not finite" in str(exc.value)
        partial = exc.value.partial_result
        assert partial.iterations == 1 and not partial.converged

    def test_grid_bounds_resolve_exactly_the_grid_range(self):
        grid = GridDensity(-2.0, 2.0, np.zeros(5))  # spacing 1, width 4
        bounds = GridBounds.of(grid)
        assert (bounds.log_spacing, bounds.log_width) == (0.0, math.log(4.0))
        for mu, log_sigma in [(-2.0, 0.0), (2.0, math.log(4.0)), (0.0, 1.0)]:
            assert bounds.unresolved(mu, log_sigma) is None
        assert "lies outside the grid" in bounds.unresolved(math.nextafter(2.0, 3.0), 0.0)
        assert "below the grid's spacing 1" in bounds.unresolved(0.0, -1e-300)
        assert "exceeds the grid's width 4" in bounds.unresolved(0.0, math.log(4.0) + 1e-15)
        # a subnormal width's spacing of 0 resolves any sigma
        tiny = GridBounds.of(GridDensity(0.0, 5e-324, np.zeros(3)))
        assert tiny.spacing == 0.0 and tiny.unresolved(0.0, -1e300) is None

    def test_max_iters_validated(self):
        with pytest.raises(ValueError):
            fit_gaussian(FitObjective.kl(), SkewMixtureTarget.default().tabulate(), max_iters=0)


@pytest.fixture(scope="module")
def mode_seeking_fit():
    # the mode-seeking runs need the full iteration budget to settle
    return fit_gaussian(FitObjective.sab(1.8 + 1.0, -1.0), SkewMixtureTarget.default().tabulate())


class TestMassCoveringVsModeSeeking:
    """Fits on the stock two-mode target: larger beta spreads the fit."""

    def test_beta_orders_fitted_width(self, mode_seeking_fit):
        wide = fit_gaussian(FitObjective.sab(1.8 - 2.0, 2.0), SkewMixtureTarget.default().tabulate())
        assert wide.final.sigma > mode_seeking_fit.final.sigma

    def test_robust_fit_tracks_the_tall_component(self, mode_seeking_fit):
        p = SkewMixtureTarget.default().tabulate()
        x = p.x
        tall_mode = x[np.argmax(skew_normal_log_pdf(x, -1.0, 0.6, 5.0))]
        _, target_std = density_moments(p)
        assert abs(mode_seeking_fit.final.mu - tall_mode) < target_std


def _stacked_adam_fit(objective, target, max_iters):
    """The fit loop on a one-row AdamState stepped by adam_step, with the
    sup-norm convergence test: the oracle for fit_gaussian's float loop."""
    evaluator, init = FitEvaluator(objective, target), moment_matched_init(target)
    state = AdamState.init(np.array([init.mu, init.log_sigma]))
    trace, converged = [], False
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for _ in range(max_iters):
            mu, log_sigma = state.params[0]
            value, grad = evaluator.value_and_grad(mu, log_sigma)
            trace.append(value)
            if np.abs(grad).max() < GRADIENT_TOL:
                converged = True
                break
            adam_step(state, grad, AdamConfig())
    return (mu, log_sigma), np.array(trace), converged


def _assert_fit_equals_stacked_oracle(result, objective, target, max_iters):
    final, trace, converged = _stacked_adam_fit(objective, target, max_iters)
    assert (result.final.mu, result.final.log_sigma) == final
    np.testing.assert_array_equal(result.divergence_trace, trace)
    assert (result.iterations, result.converged) == (trace.size, converged)


class TestFloatLoopEqualsStackedAdam:
    """fit_gaussian steps two floats with optim.adam_rule; the one-row
    AdamState loop it replaced gives the same fits bit for bit."""

    @pytest.mark.parametrize("objective", [
        *(FitObjective.sab(lam - beta, beta)
          for lam, beta in ((1.8, 2.0), (1.8, -1.0), (2.4, 2.0), (2.4, -1.0))),
        FitObjective.kl(), FitObjective.renyi(0.5), FitObjective.gamma(0.5),
    ], ids=lambda objective: objective.label())
    def test_every_benchmark_objective_at_300_iterations(self, objective):
        target = SkewMixtureTarget.default().tabulate()
        _assert_fit_equals_stacked_oracle(fit_gaussian(objective, target, max_iters=300),
                                          objective, target, 300)

    def test_the_full_non_converging_fit(self, mode_seeking_fit):
        assert mode_seeking_fit.iterations == 5000 and not mode_seeking_fit.converged
        _assert_fit_equals_stacked_oracle(mode_seeking_fit, FitObjective.sab(1.8 + 1.0, -1.0),
                                          SkewMixtureTarget.default().tabulate(), 5000)
