import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sabvi import optim
from sabvi import rng as sabrng
from sabvi import vi
from sabvi.divergence import DivergenceParams, DomainError, GridDensity, eval_sab
from sabvi.gradcheck import MC_GRAD_TOL, central_differences, mc_gradient_suite
from sabvi.models import BLRModel, BNNModel, XYData, blr_exact_posterior
from sabvi.optim import AdamConfig, AdamState, adam_step
from sabvi.vi import (
    MCConfig,
    MeanFieldGaussian,
    SampleRows,
    TrainingDiverged,
    kl_elbo_with_grad,
    mc_objective_with_grad,
    sample_rows,
    train,
    train_batch,
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


def _samples(q, noise):
    """The samples theta_k that `sample_rows` evaluates: under a standard
    normal joint the gradient G_k is exactly -theta_k."""
    return -sample_rows(q, GaussianJointModel(0.0, 1.0, dim=q.dim), None, noise).da_dmu


class TestSampleRows:
    def test_zero_noise_samples_the_mean(self):
        q = MeanFieldGaussian(np.array([1.0, -2.0]), np.array([0.3, -0.5]))
        np.testing.assert_array_equal(_samples(q, np.zeros((4, 2))), np.tile(q.mu, (4, 1)))

    def test_standard_q_samples_the_noise(self):
        q = MeanFieldGaussian(np.zeros(3), np.zeros(3))
        noise = sabrng.noise_block(1, 0, 0, 5, 3)
        np.testing.assert_array_equal(_samples(q, noise), noise)

    def test_sample_mean_clt_bound(self):
        q = MeanFieldGaussian(np.array([0.7]), np.array([math.log(2.0)]))
        mean = _samples(q, sabrng.noise_block(2, 0, 0, 100_000, 1)).mean()
        assert abs(mean - 0.7) < 4 * 2.0 / math.sqrt(100_000)

    @pytest.mark.parametrize("layer_sizes,learn_noise", [(None, False), ((2, 3, 1), True)],
                             ids=["blr", "bnn-learn-noise"])
    def test_stack_equals_each_q_alone_bit_for_bit(self, layer_sizes, learn_noise):
        model, data = _regression_problem(layer_sizes, learn_noise)
        g = np.random.default_rng(3)
        mu = g.uniform(-0.5, 0.5, (3, model.dim))
        log_sigma = g.uniform(-2.0, 0.0, (3, model.dim))
        eps = np.array([sabrng.noise_block(6, c, 0, 4, model.dim) for c in range(3)])
        stacked = vi._evaluate(mu, log_sigma, np.exp(log_sigma), eps, model, data)
        for c in range(3):
            alone = sample_rows(MeanFieldGaussian(mu[c], log_sigma[c]), model, data, eps[c])
            for field, whole, own in zip(SampleRows._fields, stacked, alone):
                assert np.array_equal(whole[c], own), field

    def test_b_is_the_log_density_of_q(self):
        model = GaussianJointModel(0.0, 1.0, dim=3)
        q = MeanFieldGaussian(np.array([0.4, -1.0, 2.0]), np.array([-0.7, 0.3, 1.1]))
        noise = sabrng.noise_block(5, 0, 0, 8, 3)
        z = (_samples(q, noise) - q.mu) / q.sigma
        direct = (-0.5 * z**2 - q.log_sigma - 0.5 * math.log(2 * math.pi)).sum(axis=1)
        np.testing.assert_allclose(sample_rows(q, model, None, noise).b, direct,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("width", [1, 3])
    def test_noise_of_another_width_is_refused(self, width):
        q = MeanFieldGaussian(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="does not match q dim 2"):
            sample_rows(q, GaussianJointModel(0, 1, dim=2), None,
                        sabrng.noise_block(0, 0, 0, 4, width))


class TestMCObjective:
    def test_matches_raw_space_brute_force(self):
        model = GaussianJointModel(0.6, 1.2)
        q = MeanFieldGaussian(np.array([0.2]), np.array([math.log(0.9)]))
        params = DivergenceParams(1.3, 0.4)
        noise = sabrng.noise_block(3, 0, 0, 64, 1)
        thetas = q.mu + q.sigma * noise
        a, _ = model.log_joint_and_grad(thetas, None)
        b = np.array([-0.5 * ((t[0] - 0.2) / 0.9) ** 2 - math.log(0.9)
                      - 0.5 * math.log(2 * math.pi) for t in thetas])
        al, be, lam = 1.3, 0.4, 1.7
        pj, qd = np.exp(a), np.exp(b)
        raw = (math.log(np.mean(pj**lam / qd)) / (al * lam)
               + math.log(np.mean(qd**(lam - 1))) / (be * lam)
               - math.log(np.mean(qd**(lam - 1) * (pj / qd)**be)) / (al * be))
        value = mc_objective_with_grad(params, sample_rows(q, model, None, noise))[0]
        assert value == pytest.approx(raw, abs=1e-12)

    def test_near_zero_at_exact_posterior(self):
        model, data, m, s = conjugate_problem()
        q_star = MeanFieldGaussian(np.array([m]), np.array([math.log(s)]))
        params = DivergenceParams.from_lambda(1.8, 0.8)
        values = [mc_objective_with_grad(params, sample_rows(
                      q_star, model, data, sabrng.noise_block(11, 7, r, 10_000, 1)))[0]
                  for r in range(10)]
        assert abs(np.mean(values)) < 0.02

    def test_positive_away_from_posterior(self):
        model, data, m, s = conjugate_problem()
        q_off = MeanFieldGaussian(np.array([m + s]), np.array([math.log(2 * s)]))
        params = DivergenceParams.from_lambda(1.8, 0.8)
        values = [mc_objective_with_grad(params, sample_rows(
                      q_off, model, data, sabrng.noise_block(12, 7, r, 200, 1)))[0]
                  for r in range(100)]
        assert np.mean(values) > 0

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(-2.0, 3.0), beta=st.floats(-2.0, 3.0), k=st.integers(1, 64),
           d=st.integers(1, 4), c=st.floats(-100.0, 100.0), seed=st.integers(0, 1000))
    @example(alpha=1.4, beta=-0.3, k=32, d=1, c=37.9, seed=4)
    def test_joint_rescaling_cancels_exactly(self, alpha, beta, k, d, c, seed):
        # adding c to every log joint leaves the value and gradient unchanged
        assume(min(abs(alpha), abs(beta), abs(alpha + beta)) >= 0.1)
        params = DivergenceParams(alpha, beta)
        q = MeanFieldGaussian(np.full(d, 0.1), np.full(d, -0.4))
        noise = sabrng.noise_block(seed, 0, 0, k, d)
        base_model = GaussianJointModel(0.5, 1.0, dim=d)
        scaled_model = GaussianJointModel(0.5, 1.0, log_scale=c, dim=d)
        v0, g0_mu, g0_ls = mc_objective_with_grad(params, sample_rows(q, base_model, None, noise))
        v1, g1_mu, g1_ls = mc_objective_with_grad(params,
                                                  sample_rows(q, scaled_model, None, noise))
        assert abs(v1 - v0) < 1e-10
        assert np.max(np.abs(g1_mu - g0_mu)) < 1e-10
        assert np.max(np.abs(g1_ls - g0_ls)) < 1e-10

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.0, 0.8), (1.5, -1.5), (0.0, 0.0)])
    def test_exact_limits_rejected(self, alpha, beta):
        q = MeanFieldGaussian(np.zeros(1), np.zeros(1))
        noise = sabrng.noise_block(0, 0, 0, 4, 1)
        with pytest.raises(DomainError, match="quadrature"):
            mc_objective_with_grad(DivergenceParams(alpha, beta),
                                   sample_rows(q, GaussianJointModel(0, 1), None, noise))

    @pytest.mark.parametrize("estimator", [
        lambda rows: mc_objective_with_grad(DivergenceParams(1.2, 0.4), rows),
        kl_elbo_with_grad], ids=["mc", "kl"])
    def test_non_finite_log_joint_gives_a_non_finite_value(self, estimator):
        model = GaussianJointModel(0.3, 0.8, dim=2)
        q = MeanFieldGaussian(np.array([0.1, -0.2]), np.array([-0.3, 0.2]))
        rows = sample_rows(q, model, None, sabrng.noise_block(4, 0, 0, 6, 2))
        a = rows.a.copy()
        a[2] = math.nan
        with np.errstate(invalid="ignore"):
            assert math.isnan(estimator(rows._replace(a=a))[0])

    def test_mc_mean_approaches_quadrature(self):
        model = GaussianJointModel(0.6, 1.2)
        q = MeanFieldGaussian(np.array([0.2]), np.array([math.log(0.9)]))
        params = DivergenceParams(1.3, 0.4)
        values = np.array([mc_objective_with_grad(params, sample_rows(
                               q, model, None, sabrng.noise_block(9, 1, r, 20_000, 1)))[0]
                           for r in range(20)])
        qg = GridDensity.gaussian(0.2, 0.9, -12.0, 12.6, 8001)
        pg = GridDensity.gaussian(0.6, 1.2, -12.0, 12.6, 8001)
        quad = eval_sab(params, qg, pg)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - quad) < 3 * se


class TestMCGradient:
    def test_randomized_fd_agreement(self):
        rows = mc_gradient_suite(seed=0)
        worst = max(r["max_rel_err"] for r in rows)
        assert worst < MC_GRAD_TOL, worst

    def test_small_gradient_at_exact_posterior(self):
        model, data, m, s = conjugate_problem()
        q_star = MeanFieldGaussian(np.array([m]), np.array([math.log(s)]))
        params = DivergenceParams.from_lambda(1.8, 0.8)
        noise = sabrng.noise_block(21, 7, 0, 10_000, 1)
        _, d_mu, d_ls = mc_objective_with_grad(params, sample_rows(q_star, model, data, noise))
        assert math.hypot(d_mu[0], d_ls[0]) < 0.05


def _generic_pair(pair):
    alpha, beta = pair
    return min(abs(alpha), abs(beta), abs(alpha + beta)) >= 0.1


class TestOrthogonalBLROptimum:
    """At q = the exact posterior of `orthogonal_blr`, log p(theta_k, X) - log q(theta_k)
    is log Z for every draw, so the estimator's softmax weights s1 and s3 agree."""

    @settings(max_examples=40, deadline=None)
    @given(pair=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).filter(_generic_pair),
           data=st.data())
    def test_gradient_vanishes_at_the_exact_posterior(self, orthogonal_blr, pair, data):
        model, xy, q = orthogonal_blr
        k = data.draw(st.integers(2, 25), label="K")
        noise = data.draw(hnp.arrays(np.float64, (k, q.dim), elements=st.floats(-6.0, 6.0)),
                          label="noise")
        value, d_mu, d_ls = mc_objective_with_grad(DivergenceParams(*pair),
                                                   sample_rows(q, model, xy, noise))
        assert math.isfinite(value)
        # the mean's gradient in posterior-SD units, log sigma's as it is
        assert np.abs(d_mu * q.sigma).max() <= 1e-8
        assert np.abs(d_ls).max() <= 1e-8

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5, -0.4])
    def test_lambda_one_is_iwae_minus_vr_over_alpha(self, orthogonal_blr, alpha):
        # lambda = 1 zeroes term 2; term 1 is Burda et al.'s IWAE bound and
        # term 3 is (1 - alpha) times Li & Turner's VR bound of order alpha
        model, xy, q_star = orthogonal_blr
        g, k = np.random.default_rng(0), 10
        for _ in range(10):
            q = MeanFieldGaussian(q_star.mu + 2.0 * q_star.sigma * g.standard_normal(q_star.dim),
                                  q_star.log_sigma + g.uniform(-0.5, 0.5, q_star.dim))
            rows = sample_rows(q, model, xy, g.standard_normal((k, q.dim)))
            log_w = rows.a - rows.b
            iwae = np.logaddexp.reduce(log_w) - math.log(k)
            vr = (np.logaddexp.reduce((1.0 - alpha) * log_w) - math.log(k)) / (1.0 - alpha)
            value, _, _ = mc_objective_with_grad(DivergenceParams(alpha, 1.0 - alpha), rows)
            assert value == pytest.approx((iwae - vr) / alpha, rel=1e-8)


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
            v50.append(mc_objective_with_grad(params, sample_rows(q_off, model, data, block))[0])
            v5.append(mc_objective_with_grad(params,
                                             sample_rows(q_off, model, data, block[:5]))[0])
        v50, v5 = np.array(v50), np.array(v5)
        se = math.sqrt(v50.var(ddof=1) / v50.size + v5.var(ddof=1) / v5.size)
        assert v50.mean() >= v5.mean() - 2 * se


class TestKLPath:
    def test_zero_for_q_equal_prior_and_flat_likelihood(self):
        model = BLRModel(input_dim=2, include_bias=False)
        data = XYData(np.zeros((0, 2)), np.zeros(0))
        q = MeanFieldGaussian(np.zeros(2), np.zeros(2))  # the prior itself
        noise = sabrng.noise_block(8, 0, 0, 64, 2)
        assert kl_elbo_with_grad(sample_rows(q, model, data, noise))[0] == pytest.approx(
            0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        model, data, _, _ = conjugate_problem()
        q = MeanFieldGaussian(np.array([0.3]), np.array([-1.0]))
        noise = sabrng.noise_block(14, 0, 0, 16, 1)
        _, d_mu, d_ls = kl_elbo_with_grad(sample_rows(q, model, data, noise))

        def values(points):  # each point is (mu, log sigma)
            return [kl_elbo_with_grad(sample_rows(MeanFieldGaussian(point[:1], point[1:]),
                                                  model, data, noise))[0] for point in points]

        fd_mu, fd_ls = central_differences(values, [q.mu[0], q.log_sigma[0]], 1e-5)
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
        before = state.params.copy()
        new = adam_step(state, np.zeros(2), AdamConfig())
        np.testing.assert_array_equal(new.params, before)

    def test_two_constant_steps_bounded_by_lr(self):
        cfg = AdamConfig(learning_rate=0.01)
        state = AdamState.init(np.zeros(1))
        p1 = adam_step(state, np.full(1, 3.7), cfg).params[0, 0]
        p2 = adam_step(state, np.full(1, 3.7), cfg).params[0, 0]
        assert p1 != 0.0
        assert abs(p2 - p1) <= cfg.learning_rate * (1 + 1e-9)

    @staticmethod
    def _scalar_adam(row, g, cfg):
        """Textbook ADAM on one vector: (params, m, v, t) -> the next tuple."""
        params, m, v, t = row
        t += 1
        m = optim.BETA1 * m + (1.0 - optim.BETA1) * g
        v = optim.BETA2 * v + (1.0 - optim.BETA2) * g * g
        m_hat = m / (1.0 - optim.BETA1 ** t)
        v_hat = v / (1.0 - optim.BETA2 ** t)
        return params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + optim.EPSILON), m, v, t

    def test_stacked_rows_equal_row_by_row_scalar_adam_bit_for_bit(self):
        # rows that skip a step keep parameters, moments and step count
        g = np.random.default_rng(7)
        cfg = AdamConfig(learning_rate=0.02)
        n_rows, width = 4, 6
        stacked = AdamState.init(g.standard_normal((n_rows, width)))
        singles = [(p.copy(), np.zeros(width), np.zeros(width), 0) for p in stacked.params]
        for _ in range(1000):
            grads = g.standard_normal((n_rows, width)) * 10.0 ** g.integers(-4, 4, (n_rows, 1))
            took = g.random(n_rows) < 0.7
            took[0] = True
            adam_step(stacked, grads, cfg, took)
            for r in np.flatnonzero(took):
                singles[r] = self._scalar_adam(singles[r], grads[r], cfg)
        assert stacked.t == [t for *_, t in singles] and min(stacked.t) < 1000 == stacked.t[0]
        for r, single in enumerate(singles):
            for got, want in zip((stacked.params[r], stacked.m[r], stacked.v[r]), single):
                np.testing.assert_array_equal(got, want)

    def test_float_rule_equals_scalar_adam_bit_for_bit(self):
        # the rule fit_gaussian applies to its two Python floats
        g = np.random.default_rng(11)
        cfg = AdamConfig(learning_rate=0.02)
        for start in g.standard_normal(6).tolist():
            row, want = (start, 0.0, 0.0), (start, 0.0, 0.0, 0)
            for t in range(1, 1001):
                grad = float(g.standard_normal() * 10.0 ** g.integers(-4, 4))
                row = optim.adam_rule(*row, grad, 1.0 - optim.BETA1 ** t,
                                      1.0 - optim.BETA2 ** t, cfg.learning_rate, math.sqrt)
                want = self._scalar_adam(want, grad, cfg)
                assert all(type(x) is float for x in row) and row == want[:3]

    def test_all_false_mask_is_a_no_op(self):
        state = AdamState.init(np.arange(6.0).reshape(2, 3))
        adam_step(state, np.ones((2, 3)), AdamConfig(), np.ones(2, dtype=bool))
        before = [a.copy() for a in (state.params, state.m, state.v)]
        adam_step(state, np.ones((2, 3)), AdamConfig(), np.zeros(2, dtype=bool))
        assert state.t == [1, 1]
        for got, want in zip((state.params, state.m, state.v), before):
            np.testing.assert_array_equal(got, want)

    def test_config_validation(self):
        for value in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
                AdamConfig(learning_rate=value)
        with pytest.raises(ValueError, match="steps"):
            AdamConfig(steps=-1)

    def test_config_writes_the_constants(self):
        assert AdamConfig(learning_rate=0.02, steps=7).to_dict() == {
            "learning_rate": 0.02, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8, "steps": 7}


class BrokenModel(GaussianJointModel):
    def log_joint_and_grad(self, thetas, data):
        return np.full(len(thetas), math.nan), np.full((len(thetas), 1), math.nan)


class FiniteAtCalls(GaussianJointModel):
    """A Gaussian joint whose log density is NaN except at the given
    (1-based) calls: one call per step for a one-cell training."""

    def __init__(self, *finite_calls):
        super().__init__(0, 1)
        self.finite_calls, self.calls = finite_calls, 0

    def log_joint_and_grad(self, thetas, data):
        self.calls += 1
        a, grads = super().log_joint_and_grad(thetas, data)
        return (a if self.calls in self.finite_calls else np.full_like(a, math.nan)), grads


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
        assert report.skipped_steps == 10

    @pytest.mark.parametrize("alpha,beta", [(1.2, 0.4), (1.0, 0.0)])
    def test_short_run_without_a_finite_step_diverges(self, alpha, beta):
        # fewer steps than the consecutive-failure limit: the run still
        # must not return q0 as a fitted posterior
        with pytest.raises(TrainingDiverged, match="all 5 steps") as excinfo:
            train(DivergenceParams(alpha, beta), MeanFieldGaussian.initial(1),
                  BrokenModel(0, 1), None, MCConfig(4, 0), AdamConfig(steps=5))
        report = excinfo.value.report
        assert report.trace.size == 5 and np.all(np.isnan(report.trace))
        assert report.skipped_steps == 5

    @pytest.mark.parametrize("alpha,beta", [(1.2, 0.4), (1.0, 0.0)])
    def test_ten_non_finite_steps_of_ten_are_a_streak(self, alpha, beta):
        # the streak ends on the last step: the streak message, not "all 10 steps"
        with pytest.raises(TrainingDiverged, match="for 10 consecutive steps") as excinfo:
            train(DivergenceParams(alpha, beta), MeanFieldGaussian.initial(1),
                  BrokenModel(0, 1), None, MCConfig(4, 0), AdamConfig(steps=10))
        report = excinfo.value.report
        assert report.trace.size == 10 and np.all(np.isnan(report.trace))
        assert report.skipped_steps == 10

    def test_streak_after_one_finite_step_diverges_on_the_last_step(self):
        with pytest.raises(TrainingDiverged, match="for 10 consecutive steps") as excinfo:
            train(DivergenceParams(1.2, 0.4), MeanFieldGaussian.initial(1),
                  FiniteAtCalls(1), None, MCConfig(4, 0), AdamConfig(steps=11))
        report = excinfo.value.report
        assert np.isfinite(report.trace).tolist() == [True] + [False] * 10
        assert report.skipped_steps == 10 and report.final.mu[0] != 0.0

    def test_one_finite_step_is_enough_to_finish(self):
        report = train(DivergenceParams(1.2, 0.4), MeanFieldGaussian.initial(1),
                       FiniteAtCalls(3), None, MCConfig(4, 0), AdamConfig(steps=5))
        assert np.isfinite(report.trace).sum() == 1
        assert report.final.mu[0] != 0.0
        assert report.skipped_steps == 4 and report.to_dict()["skipped_steps"] == 4

    def test_report_serializes(self):
        model, data, _, _ = conjugate_problem()
        report = train(DivergenceParams(1.0, 0.0), MeanFieldGaussian.initial(1),
                       model, data, MCConfig(3, 1), AdamConfig(steps=5))
        d = report.to_dict()
        assert d["used_kl_path"] and len(d["trace"]) == 5
        assert d["skipped_steps"] == 0
        assert d["init_log_sigma"] == [math.log(0.1)]
        assert list(d) == ["alpha", "beta", "lambda", "seed", "stream", "used_kl_path",
                           "skipped_steps", "mc", "adam", "init_mu", "init_log_sigma",
                           "final_mu", "final_log_sigma", "trace"]

    def test_report_keeps_its_q0(self):
        model, data = _regression_problem()
        q0 = MeanFieldGaussian(np.linspace(-0.2, 0.2, model.dim), np.full(model.dim, -2.0))
        outcomes = train_batch(CELL_POOL[:2], q0, model, data, MCConfig(3, 4),
                               AdamConfig(steps=3), [1, 2])
        for report in outcomes:
            assert report.init is q0 and report.seed == 4
            assert report.to_dict()["init_mu"] == q0.mu.tolist()
        assert [r.used_kl_path for r in outcomes] == [True, False]


class PoisonedRows:
    """A model whose log joint is NaN at every row whose first coordinate
    exceeds a bar: a fault of single rows, as an overflow would be."""

    def __init__(self, model, bar):
        self.model, self.bar, self.dim = model, bar, model.dim

    def log_joint_and_grad(self, thetas, data):
        a, grads = self.model.log_joint_and_grad(thetas, data)
        a[thetas[:, 0] > self.bar] = np.nan
        return a, grads


def _regression_problem(layer_sizes=(2, 3, 1), learn_noise=False, bar=None):
    """A BNN of the given layer sizes, or a BLR on two inputs when
    layer_sizes is None (learn_noise does not apply to it)."""
    g = np.random.default_rng(0)
    X = g.uniform(-1, 1, (16, 2))
    data = XYData(X, np.sin(2 * X[:, 0]) + 0.1 * g.standard_normal(16))
    model = (BLRModel(input_dim=2) if layer_sizes is None
             else BNNModel(layer_sizes, learn_noise=learn_noise))
    return (model if bar is None else PoisonedRows(model, bar)), data


def _outcome_json(report):
    """Everything a report carries, NaNs and all bits included."""
    return json.dumps({"diverged": report.diverged, **report.to_dict()})


def _per_cell_outcomes(cells, model, data, mc, opt, streams):
    """One report per cell from `train`, the raised one for a cell that diverged."""
    reports = []
    for params, stream in zip(cells, streams):
        try:
            reports.append(train(params, MeanFieldGaussian.initial(model.dim), model, data,
                                 mc, opt, stream=stream))
        except TrainingDiverged as exc:
            assert str(exc) == exc.report.diverged
            reports.append(exc.report)
    return reports


CELL_POOL = [DivergenceParams(1.0, 0.0), DivergenceParams(0.5, 0.25),
             DivergenceParams(1.5, -0.5), DivergenceParams(2.0, 0.5),
             DivergenceParams(0.8, -0.3)]


class TestTrainBatch:
    def test_one_cell_diverges_mid_batch_and_the_others_are_unchanged(self):
        # at bar 0.4 the KL cell's mean crosses the bar and stays, so it
        # diverges mid-run; (0.5, 0.25) skips steps but finishes
        model, data = _regression_problem(bar=0.4)
        cells, streams = CELL_POOL[:3], [11, 12, 13]
        mc, opt = MCConfig(3, 1), AdamConfig(learning_rate=0.05, steps=40)
        batch = train_batch(cells, MeanFieldGaussian.initial(model.dim), model, data, mc, opt,
                            streams)
        alone = _per_cell_outcomes(cells, model, data, mc, opt, streams)
        assert [_outcome_json(o) for o in batch] == [_outcome_json(o) for o in alone]
        diverged, skipping, clean = batch
        assert diverged.diverged == ("objective non-finite for 10 consecutive steps "
                                     "at (alpha=1.0, beta=0.0)")
        assert (diverged.trace.size, diverged.skipped_steps) == (31, 21)
        assert (skipping.trace.size, skipping.skipped_steps, skipping.diverged) == (40, 20, None)
        assert (clean.trace.size, clean.skipped_steps, clean.diverged) == (40, 0, None)

    @pytest.mark.parametrize("params", [DivergenceParams(1.0, 0.0), DivergenceParams(1.2, 0.4)])
    def test_a_last_step_past_the_float_range_diverges(self, params):
        # q0 is narrower than the N(0, 1) joint, so a first step of lr 1e300
        # sends log sigma to about 1e300, where sigma is inf; the second step
        # is skipped, too few to give up, and the last q is not finite
        (report,) = train_batch([params], MeanFieldGaussian.initial(1), GaussianJointModel(0, 1),
                                None, MCConfig(4, 0),
                                AdamConfig(learning_rate=1e300, steps=2), [0])
        assert report.diverged == ("q's sigma not finite after the last step at "
                                   f"(alpha={params.alpha}, beta={params.beta})")
        assert report.final is None and report.skipped_steps == 1

    @settings(max_examples=25, deadline=None)
    @given(cells=st.lists(st.sampled_from(CELL_POOL), min_size=1, max_size=4),
           layer_sizes=st.sampled_from([(2, 3, 1), (2, 4, 3, 1), None]),
           learn_noise=st.booleans(),
           steps=st.sampled_from([0, 1, 5, 20, 30]),
           bar=st.sampled_from([None, 0.15, 0.3]),
           batch_rows=st.sampled_from([3, 7, 32]))
    # two cells finish, one skipping steps, while two diverge at steps 17 and 25
    @example(cells=CELL_POOL[:4], layer_sizes=(2, 3, 1), learn_noise=False, steps=30,
             bar=0.3, batch_rows=32)
    # four cells diverge at four different steps, two cells per model call
    @example(cells=CELL_POOL[:4], layer_sizes=(2, 3, 1), learn_noise=True, steps=30,
             bar=0.15, batch_rows=7)
    # BLR, whose rows share one set of data statistics: the same four
    # cells diverge at four different steps, two cells per model call
    @example(cells=CELL_POOL[:4], layer_sizes=None, learn_noise=False, steps=30,
             bar=0.15, batch_rows=7)
    # BLR, all five cells finishing from one model call per step
    @example(cells=CELL_POOL, layer_sizes=None, learn_noise=False, steps=30,
             bar=None, batch_rows=32)
    def test_batch_equals_per_cell_training_bit_for_bit(self, cells, layer_sizes, learn_noise,
                                                        steps, bar, batch_rows):
        model, data = _regression_problem(layer_sizes, learn_noise, bar)
        streams = [100 + c for c in range(len(cells))]
        mc, opt = MCConfig(3, 2), AdamConfig(learning_rate=0.1, steps=steps)
        with mock.patch.object(vi, "_BATCH_ROWS", batch_rows):
            batch = train_batch(cells, MeanFieldGaussian.initial(model.dim), model, data, mc,
                                opt, streams)
        alone = _per_cell_outcomes(cells, model, data, mc, opt, streams)
        assert [_outcome_json(o) for o in batch] == [_outcome_json(o) for o in alone]

    def test_cells_and_streams_must_pair_up(self):
        model, data = _regression_problem()
        with pytest.raises(ValueError, match="one stream per cell"):
            train_batch(CELL_POOL[:2], MeanFieldGaussian.initial(model.dim), model, data,
                        MCConfig(3, 0), AdamConfig(steps=2), [1])

    def test_limit_cell_is_rejected_before_any_training(self):
        model, data = _regression_problem()
        with pytest.raises(DomainError):
            train_batch([CELL_POOL[1], DivergenceParams(0.0, 0.5)],
                        MeanFieldGaussian.initial(model.dim), model, data,
                        MCConfig(3, 0), AdamConfig(steps=2), [1, 2])

    def test_one_sample_sab_cell_is_rejected_before_any_training(self):
        # at K = 1 the estimate is identically 0: the cell could never move
        model, data = _regression_problem()
        with mock.patch.object(vi, "mc_objective_with_grad") as sab, \
                mock.patch.object(vi, "kl_elbo_with_grad") as kl, \
                pytest.raises(DomainError, match=f"at least {vi.MIN_SAB_SAMPLES} MC samples"):
            train_batch(CELL_POOL[:2], MeanFieldGaussian.initial(model.dim), model, data,
                        MCConfig(1, 0), AdamConfig(steps=2), [1, 2])
        sab.assert_not_called()
        kl.assert_not_called()
        value, d_mu, d_ls = mc_objective_with_grad(CELL_POOL[1], sample_rows(
            MeanFieldGaussian.initial(model.dim), model, data,
            sabrng.noise_block(0, 0, 0, 1, model.dim)))
        assert abs(value) < 1e-9 and not d_mu.any() and not d_ls.any()


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
        assert not q.sigma.flags.writeable
