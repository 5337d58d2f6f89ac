import math

import numpy as np
import pytest

from sabvi import rng as sabrng
from sabvi.divergence import DivergenceParams, GridDensity, eval_sab
from sabvi.gradcheck import MC_GRAD_TOL, mc_gradient_suite
from sabvi.models import BLRModel, XYData, blr_exact_posterior
from sabvi.optim import AdamConfig, AdamState, adam_step
from sabvi.vi import (
    MCConfig,
    MeanFieldGaussian,
    TrainingDiverged,
    UnsupportedRegionError,
    kl_elbo_objective,
    kl_elbo_with_grad,
    mc_objective,
    mc_objective_with_grad,
    sample_reparam,
    train,
)

from conftest import GaussianJointModel


def conjugate_problem(seed=5, n=25):
    g = np.random.default_rng(seed)
    X = g.uniform(-1, 1, (n, 1))
    y = 0.7 * X[:, 0] + 0.1 * g.standard_normal(n)
    data = XYData(X, y)
    model = BLRModel(input_dim=1, include_bias=False)
    mean, cov = blr_exact_posterior(model, data)
    return model, data, float(mean[0]), math.sqrt(float(cov[0, 0]))


class TestSampleReparam:
    def test_zero_noise_returns_mean(self):
        q = MeanFieldGaussian(np.array([1.0, -2.0]), np.array([0.3, -0.5]))
        noise = sabrng.NoiseBlock(np.zeros((4, 2)))
        np.testing.assert_array_equal(sample_reparam(q, noise),
                                      np.tile(q.mu, (4, 1)))

    def test_standard_q_returns_noise(self):
        q = MeanFieldGaussian(np.zeros(3), np.zeros(3))
        noise = sabrng.noise_block(1, 0, 0, 5, 3)
        np.testing.assert_array_equal(sample_reparam(q, noise), noise.epsilons)

    def test_sample_mean_clt_bound(self):
        q = MeanFieldGaussian(np.array([0.7]), np.array([math.log(2.0)]))
        noise = sabrng.noise_block(2, 0, 0, 100_000, 1)
        mean = sample_reparam(q, noise).mean()
        assert abs(mean - 0.7) < 4 * 2.0 / math.sqrt(100_000)

    def test_dim_mismatch(self):
        q = MeanFieldGaussian(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            sample_reparam(q, sabrng.noise_block(0, 0, 0, 3, 5))


class TestMCObjective:
    def test_matches_raw_space_brute_force(self):
        model = GaussianJointModel(0.6, 1.2)
        q = MeanFieldGaussian(np.array([0.2]), np.array([math.log(0.9)]))
        params = DivergenceParams(1.3, 0.4)
        noise = sabrng.noise_block(3, 0, 0, 64, 1)
        thetas = sample_reparam(q, noise)
        a, _ = model.log_joint_and_grad(thetas, None)
        b = np.array([-0.5 * ((t[0] - 0.2) / 0.9) ** 2 - math.log(0.9)
                      - 0.5 * math.log(2 * math.pi) for t in thetas])
        al, be, lam = 1.3, 0.4, 1.7
        pj, qd = np.exp(a), np.exp(b)
        raw = (math.log(np.mean(pj**lam / qd)) / (al * lam)
               + math.log(np.mean(qd**(lam - 1))) / (be * lam)
               - math.log(np.mean(qd**(lam - 1) * (pj / qd)**be)) / (al * be))
        assert mc_objective(params, q, model, None, noise) == pytest.approx(raw, abs=1e-12)

    def test_near_zero_at_exact_posterior(self):
        model, data, m, s = conjugate_problem()
        q_star = MeanFieldGaussian(np.array([m]), np.array([math.log(s)]))
        params = DivergenceParams.from_lambda(1.8, 0.8)
        values = [mc_objective(params, q_star, model, data,
                               sabrng.noise_block(11, 7, r, 10_000, 1))
                  for r in range(10)]
        assert abs(np.mean(values)) < 0.02

    def test_positive_away_from_posterior(self):
        model, data, m, s = conjugate_problem()
        q_off = MeanFieldGaussian(np.array([m + s]), np.array([math.log(2 * s)]))
        params = DivergenceParams.from_lambda(1.8, 0.8)
        values = [mc_objective(params, q_off, model, data,
                               sabrng.noise_block(12, 7, r, 200, 1))
                  for r in range(100)]
        assert np.mean(values) > 0

    def test_joint_rescaling_cancels_exactly(self):
        q = MeanFieldGaussian(np.array([0.1]), np.array([-0.4]))
        params = DivergenceParams(1.4, -0.3)
        noise = sabrng.noise_block(4, 0, 0, 32, 1)
        base_model = GaussianJointModel(0.5, 1.0)
        scaled_model = GaussianJointModel(0.5, 1.0, log_scale=37.9)
        v0 = mc_objective(params, q, base_model, None, noise)
        v1 = mc_objective(params, q, scaled_model, None, noise)
        assert abs(v1 - v0) < 1e-10
        _, g0_mu, g0_ls = mc_objective_with_grad(params, q, base_model, None, noise)
        _, g1_mu, g1_ls = mc_objective_with_grad(params, q, scaled_model, None, noise)
        assert np.max(np.abs(g1_mu - g0_mu)) < 1e-10
        assert np.max(np.abs(g1_ls - g0_ls)) < 1e-10

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.0, 0.8), (1.5, -1.5), (0.0, 0.0)])
    def test_exact_limits_rejected(self, alpha, beta):
        q = MeanFieldGaussian(np.zeros(1), np.zeros(1))
        noise = sabrng.noise_block(0, 0, 0, 4, 1)
        with pytest.raises(UnsupportedRegionError, match="quadrature"):
            mc_objective(DivergenceParams(alpha, beta), q, GaussianJointModel(0, 1), None, noise)

    def test_non_finite_log_joint_is_a_model_error(self):
        class BadModel(GaussianJointModel):
            def log_joint_and_grad(self, thetas, data):
                a, grads = super().log_joint_and_grad(thetas, data)
                return np.full_like(a, math.nan), grads

        q = MeanFieldGaussian(np.zeros(1), np.zeros(1))
        noise = sabrng.noise_block(0, 0, 0, 4, 1)
        with pytest.raises(ValueError, match="non-finite"):
            mc_objective(DivergenceParams(1.2, 0.4), q, BadModel(0, 1), None, noise)

    def test_mc_mean_approaches_quadrature(self):
        model = GaussianJointModel(0.6, 1.2)
        q = MeanFieldGaussian(np.array([0.2]), np.array([math.log(0.9)]))
        params = DivergenceParams(1.3, 0.4)
        values = np.array([mc_objective(params, q, model, None,
                                        sabrng.noise_block(9, 1, r, 20_000, 1))
                           for r in range(20)])
        qg = GridDensity.gaussian(0.2, 0.9, -12.0, 12.6, 8001)
        pg = GridDensity.gaussian(0.6, 1.2, -12.0, 12.6, 8001)
        quad = eval_sab(params, qg, pg)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - quad) < 3 * se


class TestMCGradient:
    def test_randomized_fd_agreement(self):
        rows = mc_gradient_suite(n_cases=20, seed=0)
        worst = max(r["max_rel_err"] for r in rows)
        assert worst < MC_GRAD_TOL, worst

    def test_small_gradient_at_exact_posterior(self):
        model, data, m, s = conjugate_problem()
        q_star = MeanFieldGaussian(np.array([m]), np.array([math.log(s)]))
        params = DivergenceParams.from_lambda(1.8, 0.8)
        noise = sabrng.noise_block(21, 7, 0, 10_000, 1)
        _, d_mu, d_ls = mc_objective_with_grad(params, q_star, model, data, noise)
        assert math.hypot(d_mu[0], d_ls[0]) < 0.05


class TestSampleSizeOrdering:
    def test_bigger_blocks_estimate_no_lower(self):
        # statistical check: the mean estimate with K=50 sits above the
        # K=5 mean up to two pooled standard errors (paired prefixes)
        model, data, m, s = conjugate_problem()
        q_off = MeanFieldGaussian(np.array([m + 0.5 * s]), np.array([math.log(1.6 * s)]))
        params = DivergenceParams.from_lambda(1.8, 0.8)
        v50, v5 = [], []
        for r in range(400):
            block = sabrng.noise_block(17, 6, r, 50, 1)
            v50.append(mc_objective(params, q_off, model, data, block))
            v5.append(mc_objective(params, q_off, model, data,
                                   sabrng.NoiseBlock(block.epsilons[:5])))
        v50, v5 = np.array(v50), np.array(v5)
        se = math.sqrt(v50.var(ddof=1) / v50.size + v5.var(ddof=1) / v5.size)
        assert v50.mean() >= v5.mean() - 2 * se


class TestKLPath:
    def test_zero_for_q_equal_prior_and_flat_likelihood(self):
        model = BLRModel(input_dim=2, include_bias=False, prior_w_sigma=1.0)
        data = XYData(np.zeros((0, 2)), np.zeros(0))
        q = MeanFieldGaussian(np.zeros(2), np.zeros(2))  # the prior itself
        noise = sabrng.noise_block(8, 0, 0, 64, 2)
        assert kl_elbo_objective(q, model, data, noise) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        model, data, _, _ = conjugate_problem()
        q = MeanFieldGaussian(np.array([0.3]), np.array([-1.0]))
        noise = sabrng.noise_block(14, 0, 0, 16, 1)
        _, d_mu, d_ls = kl_elbo_with_grad(q, model, data, noise)
        h = 1e-5
        fd_mu = (kl_elbo_objective(MeanFieldGaussian(q.mu + h, q.log_sigma), model, data, noise)
                 - kl_elbo_objective(MeanFieldGaussian(q.mu - h, q.log_sigma), model, data, noise)) / (2 * h)
        fd_ls = (kl_elbo_objective(MeanFieldGaussian(q.mu, q.log_sigma + h), model, data, noise)
                 - kl_elbo_objective(MeanFieldGaussian(q.mu, q.log_sigma - h), model, data, noise)) / (2 * h)
        assert abs(d_mu[0] - fd_mu) / max(1.0, abs(fd_mu)) < 1e-4
        assert abs(d_ls[0] - fd_ls) / max(1.0, abs(fd_ls)) < 1e-4

    def test_training_recovers_conjugate_posterior(self):
        model, data, m, s = conjugate_problem()
        report = train(DivergenceParams(1.0, 0.0), MeanFieldGaussian.initial(1),
                       model, data, MCConfig(5, 3), AdamConfig(steps=1500))
        assert report.used_kl_path
        assert abs(report.final.mu[0] - m) < 1e-2
        assert abs(report.final.sigma[0] - s) < 5e-2


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        state = AdamState.init(np.zeros(3))
        new = adam_step(state, np.ones(3), AdamConfig(learning_rate=0.01))
        assert np.all(np.abs(new.params + 0.01) < 1e-6)

    def test_zero_gradient_keeps_parameters(self):
        state = AdamState.init(np.array([1.0, -2.0]))
        new = adam_step(state, np.zeros(2), AdamConfig())
        np.testing.assert_array_equal(new.params, state.params)

    def test_two_constant_steps_bounded_by_lr(self):
        cfg = AdamConfig(learning_rate=0.01)
        state = AdamState.init(np.zeros(1))
        s1 = adam_step(state, np.full(1, 3.7), cfg)
        s2 = adam_step(s1, np.full(1, 3.7), cfg)
        assert abs(s2.params[0] - s1.params[0]) <= cfg.learning_rate * (1 + 1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdamConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            AdamConfig(beta1=1.0)
        with pytest.raises(ValueError, match="steps"):
            AdamConfig(steps=-1)


class BrokenModel(GaussianJointModel):
    def log_joint_and_grad(self, thetas, data):
        return np.full(len(thetas), math.nan), np.full((len(thetas), 1), math.nan)


class TestTrain:
    def test_deterministic_replay_is_bitwise(self):
        model, data, _, _ = conjugate_problem()
        params = DivergenceParams.from_lambda(1.9, -0.3)
        runs = [train(params, MeanFieldGaussian.initial(1), model, data,
                      MCConfig(5, 3), AdamConfig(steps=200)) for _ in range(2)]
        assert np.array_equal(runs[0].trace, runs[1].trace)
        assert np.array_equal(runs[0].final.mu, runs[1].final.mu)
        assert np.array_equal(runs[0].final.log_sigma, runs[1].final.log_sigma)

    def test_sab_training_approaches_posterior_mean(self):
        model, data, m, s = conjugate_problem()
        report = train(DivergenceParams.from_lambda(1.9, -0.3),
                       MeanFieldGaussian.initial(1), model, data,
                       MCConfig(5, 3), AdamConfig(steps=1000))
        assert abs(report.final.mu[0] - m) < 0.05

    def test_smoothed_trace_descends(self):
        model, data, _, _ = conjugate_problem()
        report = train(DivergenceParams.from_lambda(1.9, -0.3),
                       MeanFieldGaussian.initial(1), model, data,
                       MCConfig(5, 3), AdamConfig(steps=600))
        window = 50
        smoothed = np.convolve(report.trace, np.ones(window) / window, mode="valid")
        diffs = np.diff(smoothed[200:])
        drop = smoothed[0] - smoothed[-1]
        assert drop > 0
        # stochastic trace: tolerate noise-scale ripples, not real ascent
        assert np.all(diffs <= 0.05 * drop)

    def test_aborts_after_persistent_non_finite_objective(self):
        with pytest.raises(TrainingDiverged) as excinfo:
            train(DivergenceParams(1.2, 0.4), MeanFieldGaussian.initial(1),
                  BrokenModel(0, 1), None, MCConfig(4, 0), AdamConfig(steps=100))
        report = excinfo.value.report
        assert report is not None and report.trace.size == 10

    @pytest.mark.parametrize("alpha,beta", [(1.2, 0.4), (1.0, 0.0)])
    def test_short_run_without_a_finite_step_diverges(self, alpha, beta):
        # fewer steps than the consecutive-failure limit: the run still
        # must not return q0 as a fitted posterior
        with pytest.raises(TrainingDiverged, match="all 5 steps") as excinfo:
            train(DivergenceParams(alpha, beta), MeanFieldGaussian.initial(1),
                  BrokenModel(0, 1), None, MCConfig(4, 0), AdamConfig(steps=5))
        report = excinfo.value.report
        assert report.trace.size == 5 and np.all(np.isnan(report.trace))

    def test_one_finite_step_is_enough_to_finish(self):
        class FlakyModel(GaussianJointModel):
            calls = 0

            def log_joint_and_grad(self, thetas, data):
                self.calls += 1
                a, grads = super().log_joint_and_grad(thetas, data)
                return (a if self.calls == 3 else np.full_like(a, math.nan)), grads

        report = train(DivergenceParams(1.2, 0.4), MeanFieldGaussian.initial(1),
                       FlakyModel(0, 1), None, MCConfig(4, 0), AdamConfig(steps=5))
        assert np.isfinite(report.trace).sum() == 1
        assert report.final.mu[0] != 0.0

    def test_report_serializes(self):
        model, data, _, _ = conjugate_problem()
        report = train(DivergenceParams(1.0, 0.0), MeanFieldGaussian.initial(1),
                       model, data, MCConfig(3, 1), AdamConfig(steps=5))
        d = report.to_dict()
        assert d["used_kl_path"] and len(d["trace"]) == 5
        assert d["init_log_sigma"] == [math.log(0.1)]


class TestMeanFieldGaussian:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeanFieldGaussian(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            MeanFieldGaussian(np.array([np.inf]), np.array([0.0]))

    def test_initial(self):
        q = MeanFieldGaussian.initial(4)
        np.testing.assert_array_equal(q.mu, np.zeros(4))
        np.testing.assert_allclose(q.sigma, 0.1)
