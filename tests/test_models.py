import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sabvi import rng as sabrng
from sabvi.gradcheck import MODEL_GRAD_TOL, check_log_joint_gradient, model_gradient_suite
from sabvi.models import (
    BLRModel,
    BNNModel,
    PredictiveSummary,
    XYData,
    blr_exact_posterior,
    model_from_config,
    predict,
)
from sabvi.vi import MeanFieldGaussian

_LOG_2PI = math.log(2.0 * math.pi)


class TestBLRLogJoint:
    def test_prior_only_closed_form(self):
        # standard-normal prior on the three weights and the bias
        model = BLRModel(input_dim=3)
        data = XYData(np.zeros((0, 3)), np.zeros(0))
        theta = np.array([0.5, -1.0, 2.0, 0.3])
        want = -0.5 * float(theta @ theta) - 2.0 * _LOG_2PI
        assert model.log_joint(theta, data) == pytest.approx(want)
        np.testing.assert_allclose(model.grad_log_joint(theta, data), -theta)

    def test_single_zero_datum_adds_noise_term(self):
        model = BLRModel(input_dim=2)
        empty = XYData(np.zeros((0, 2)), np.zeros(0))
        one = XYData(np.zeros((1, 2)), np.zeros(1))
        delta = model.log_joint(np.zeros(3), one) - model.log_joint(np.zeros(3), empty)
        assert delta == pytest.approx(-0.5 * _LOG_2PI - math.log(model.noise_sigma))

    def test_gradient_conformance(self, rng):
        X = rng.uniform(-1, 1, (20, 3))
        y = X @ np.array([0.5, -0.2, 0.1]) + 0.1 * rng.standard_normal(20)
        model = BLRModel(input_dim=3)
        assert check_log_joint_gradient(model, XYData(X, y)) < 1e-6

    def test_dimension_mismatch(self):
        model = BLRModel(input_dim=2)
        with pytest.raises(ValueError):
            model.log_joint(np.zeros(2), XYData(np.zeros((1, 2)), np.zeros(1)))


class TestBLRExactPosterior:
    def test_no_data_returns_prior(self):
        model = BLRModel(input_dim=2)
        mean, cov = blr_exact_posterior(model, XYData(np.zeros((0, 2)), np.zeros(0)))
        np.testing.assert_allclose(mean, 0.0)
        np.testing.assert_allclose(cov, np.eye(3))

    def test_two_repeated_observations_hand_computed(self):
        # x = [1, 1], y = [1, 1], unit prior and noise, no bias:
        # precision = 1 + 2, mean = 2/3, variance = 1/3
        model = BLRModel(input_dim=1, noise_sigma=1.0, include_bias=False)
        mean, cov = blr_exact_posterior(model, XYData(np.ones((2, 1)), np.ones(2)))
        assert mean[0] == pytest.approx(2.0 / 3.0)
        assert cov[0, 0] == pytest.approx(1.0 / 3.0)

    def test_matches_ridge_regression(self, rng):
        X = rng.uniform(-1, 1, (40, 3))
        y = X @ np.array([0.4, 0.0, -0.3]) + 0.1 * rng.standard_normal(40)
        model = BLRModel(input_dim=3, noise_sigma=0.2, include_bias=False)
        mean, _ = blr_exact_posterior(model, XYData(X, y))
        ridge = model.noise_sigma**2  # over the unit prior variance
        want = np.linalg.solve(X.T @ X + ridge * np.eye(3), X.T @ y)
        np.testing.assert_allclose(mean, want, atol=1e-12)


class TestBNN:
    def test_parameter_count_bookkeeping(self):
        # (W + b) per layer; doubling the hidden width doubles both
        assert BNNModel(layer_sizes=(4, 10, 1)).dim == 4 * 10 + 10 + 10 + 1
        assert BNNModel(layer_sizes=(4, 20, 1)).dim == 4 * 20 + 20 + 20 + 1
        assert BNNModel(layer_sizes=(4, 10, 1), learn_noise=True).dim == 62

    def test_zero_parameters_give_zero_output(self, rng):
        model = BNNModel(layer_sizes=(3, 8, 1))
        X = rng.uniform(-1, 1, (6, 3))
        np.testing.assert_array_equal(model.outputs(np.zeros((1, model.dim)), X)[0],
                                      np.zeros(6))

    def test_zero_parameter_log_joint_closed_form(self, rng):
        model = BNNModel(layer_sizes=(2, 4, 1))
        X = rng.uniform(-1, 1, (5, 2))
        y = rng.standard_normal(5)
        sigma = model.noise_sigma
        want = (model.dim * (-0.5 * _LOG_2PI)          # standard-normal prior at 0
                - 0.5 * float(y @ y) / sigma**2 - 5 * (math.log(sigma) + 0.5 * _LOG_2PI))
        assert model.log_joint(np.zeros(model.dim), XYData(X, y)) == pytest.approx(want)

    def test_gradient_conformance_all_variants(self):
        rows = model_gradient_suite(seed=0)
        worst = max(r["max_rel_err"] for r in rows)
        assert worst < MODEL_GRAD_TOL, worst

    def test_minimal_network_still_conforms(self, rng):
        model = BNNModel(layer_sizes=(2, 1, 1))
        X = rng.uniform(-1, 1, (10, 2))
        y = rng.standard_normal(10)
        assert check_log_joint_gradient(model, XYData(X, y)) < MODEL_GRAD_TOL

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BNNModel(layer_sizes=(3, 1))        # no hidden layer
        with pytest.raises(ValueError):
            BNNModel(layer_sizes=(3, 5, 2))     # output must be scalar
        model = BNNModel(layer_sizes=(3, 5, 1))
        with pytest.raises(ValueError):
            model.log_joint(np.zeros(3), XYData(np.zeros((1, 3)), np.zeros(1)))


class TestModelConfig:
    def test_bnn_roundtrip(self):
        model = BNNModel(layer_sizes=(4, 10, 1), noise_sigma=0.3, learn_noise=True)
        back = model_from_config(model.to_config())
        assert back.layer_sizes == model.layer_sizes
        assert back.noise_sigma == model.noise_sigma == 0.3
        assert back.learn_noise

    def test_serialized_config_is_unchanged(self):
        config = {"kind": "bnn", "layer_sizes": [4, 10, 1], "noise_sigma": 0.05,
                  "learn_noise": True}
        assert json.dumps(model_from_config(config).to_config(), sort_keys=True) == (
            '{"kind": "bnn", "layer_sizes": [4, 10, 1], "learn_noise": true, '
            '"noise_sigma": 0.05, "prior_sigma": 1.0}')

    @pytest.mark.parametrize("noise_sigma", [0.05, 0.1])
    def test_configured_noise_round_trips_exactly(self, noise_sigma):
        config = {"kind": "bnn", "layer_sizes": [4, 10, 1], "noise_sigma": noise_sigma}
        model = model_from_config(config)
        assert model.noise_sigma == noise_sigma
        assert model.to_config()["noise_sigma"] == noise_sigma

    @pytest.mark.parametrize("noise_sigma", [0.0, -0.1])
    def test_non_positive_noise_rejected(self, noise_sigma):
        with pytest.raises(ValueError, match="noise_sigma must be positive"):
            BNNModel(layer_sizes=(2, 3, 1), noise_sigma=noise_sigma)

    def test_defaults_fill_in(self):
        model = model_from_config({"kind": "bnn", "layer_sizes": [2, 5, 1]})
        assert model.noise_sigma == pytest.approx(0.1) and not model.learn_noise
        assert model.to_config()["prior_sigma"] == 1.0

    def test_bad_configs(self):
        with pytest.raises(ValueError, match="unknown model kind 'gp'"):
            model_from_config({"kind": "gp"})
        with pytest.raises(ValueError, match="unknown model kind 'blr'; a model config "
                                             "describes a 'bnn' network"):
            model_from_config({"kind": "blr", "input_dim": 3})
        with pytest.raises(ValueError, match="missing field 'layer_sizes'"):
            model_from_config({"kind": "bnn"})
        # every model has a standard-normal prior
        with pytest.raises(ValueError, match="prior_sigma 2.0"):
            model_from_config({"kind": "bnn", "layer_sizes": [2, 5, 1], "prior_sigma": 2.0})


class TestPredict:
    def test_point_mass_matches_deterministic_output(self, rng):
        model = BLRModel(input_dim=2)
        theta = np.array([0.5, -0.3, 0.2])
        q = MeanFieldGaussian(theta, np.full(3, -30.0))
        X = rng.uniform(-1, 1, (7, 2))
        summary = predict(q, model, X, draws=50, seed=0)
        np.testing.assert_allclose(summary.mean, model.outputs(theta[None], X)[0], atol=1e-6)

    def test_posterior_draws_match_closed_form_mean(self, rng):
        X = rng.uniform(-1, 1, (30, 2))
        y = X @ np.array([0.3, -0.6]) + 0.1 * rng.standard_normal(30)
        model = BLRModel(input_dim=2)
        data = XYData(X, y)
        mean, cov = blr_exact_posterior(model, data)
        q = MeanFieldGaussian(mean, 0.5 * np.log(np.diag(cov)))
        X_test = rng.uniform(-1, 1, (9, 2))
        draws = 100_000
        summary = predict(q, model, X_test, draws=draws, seed=1)
        phi = np.hstack([X_test, np.ones((9, 1))])
        want = phi @ mean
        # per-point MC standard error from the factorized posterior
        se = np.sqrt((phi**2) @ np.diag(cov) / draws)
        assert np.all(np.abs(summary.mean - want) < 3 * se + 1e-12)

    def test_stddev_never_below_noise_floor(self, rng):
        model = BLRModel(input_dim=2, noise_sigma=0.3)
        q = MeanFieldGaussian(np.zeros(3), np.full(3, -30.0))
        summary = predict(q, model, rng.uniform(-1, 1, (5, 2)), draws=20, seed=2)
        assert np.all(summary.std >= model.noise_sigma - 1e-12)

    def test_draw_count_validated(self):
        with pytest.raises(ValueError):
            PredictiveSummary(np.zeros(2), np.zeros(2), 0)

    @pytest.mark.parametrize("draws", [0, -1])
    def test_empty_draw_count_rejected_before_evaluating(self, draws):
        q = MeanFieldGaussian(np.zeros(3), np.zeros(3))
        # a RuntimeWarning from an empty mean would be an error here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"draws must be at least 1, got {draws}"):
                predict(q, BLRModel(input_dim=2), np.zeros((4, 2)), draws=draws, seed=0)

    @pytest.mark.parametrize("draws", [1, 31, 32, 33, 200])
    @pytest.mark.parametrize("model", [BLRModel(input_dim=3), BNNModel((3, 4, 1)),
                                       BNNModel((3, 4, 1), learn_noise=True)],
                             ids=["blr", "bnn", "bnn-learn-noise"])
    def test_chunked_prediction_equals_per_draw_outputs(self, rng, model, draws):
        q = MeanFieldGaussian(rng.normal(0, 0.5, model.dim), rng.normal(-1, 0.3, model.dim))
        X = rng.uniform(-1, 1, (11, 3))
        summary = predict(q, model, X, draws=draws, seed=4, stream=9)
        eps = sabrng.noise_block(4, 9, 0, draws, model.dim)
        thetas = q.mu + np.exp(q.log_sigma) * eps
        outputs = np.stack([model.outputs(theta[None], X)[0] for theta in thetas])
        if getattr(model, "learn_noise", False):
            noise_var = np.mean(np.exp(2.0 * thetas[:, -1]))
        else:
            noise_var = model.noise_sigma**2
        np.testing.assert_array_equal(summary.mean, outputs.mean(axis=0))
        np.testing.assert_array_equal(summary.std, np.sqrt(outputs.var(axis=0) + noise_var))

    def test_learned_noise_sets_the_noise_floor(self, rng):
        model = BNNModel((2, 3, 1), learn_noise=True)
        mu = np.zeros(model.dim)
        mu[-1] = math.log(2.0)
        q = MeanFieldGaussian(mu, np.full(model.dim, -6.0))
        summary = predict(q, model, rng.uniform(-1, 1, (5, 2)), draws=100, seed=3)
        np.testing.assert_allclose(summary.std, 2.0, rtol=1e-3)


def _reference_log_joint(model, theta, X, y):
    """The model's log joint written out per theta from scipy densities."""
    if isinstance(model, BLRModel):
        w, b = (theta[:-1], theta[-1]) if model.include_bias else (theta, 0.0)
        return (norm.logpdf(theta).sum()
                + norm.logpdf(y, loc=X @ w + b, scale=model.noise_sigma).sum())
    sizes = model.layer_sizes
    h, pos = X, 0
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        W = theta[pos:pos + n_out * n_in].reshape(n_out, n_in)
        h = h @ W.T + theta[pos + n_out * n_in:pos + n_out * (n_in + 1)]
        pos += n_out * (n_in + 1)
        if i < len(sizes) - 2:
            h = np.maximum(h, 0.0)
    sigma = math.exp(theta[-1]) if model.learn_noise else model.noise_sigma
    return (norm.logpdf(theta).sum() + norm.logpdf(y, loc=h[:, 0], scale=sigma).sum())


@st.composite
def _model_problems(draw):
    """(model, K x dim thetas, data), with empty data among the cases."""
    d_in = draw(st.integers(1, 4))
    if draw(st.booleans()):
        model = BLRModel(input_dim=d_in, include_bias=draw(st.booleans()),
                         noise_sigma=draw(st.sampled_from([0.1, 0.5, 2.0])))
    else:
        hidden = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
        model = BNNModel(layer_sizes=(d_in, *hidden, 1), learn_noise=draw(st.booleans()))
    k, n = draw(st.integers(1, 9)), draw(st.integers(0, 12))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = g.uniform(-1.0, 1.0, (n, d_in))
    return model, 0.7 * g.standard_normal((k, model.dim)), XYData(X, g.standard_normal(n))


class TestBatchedContract:
    @settings(max_examples=150, deadline=None)
    @given(_model_problems())
    def test_batched_rows_match_per_theta(self, problem):
        model, thetas, data = problem
        a, G = model.log_joint_and_grad(thetas, data)
        assert a.shape == (len(thetas),) and G.shape == thetas.shape
        for theta, a_k, g_k in zip(thetas, a, G):
            # a row's result does not depend on the rows sharing its call
            assert model.log_joint(theta, data) == a_k
            assert np.array_equal(model.grad_log_joint(theta, data), g_k)
            scale = max(1.0, abs(a_k))
            assert abs(_reference_log_joint(model, theta, data.X, data.y) - a_k) <= 1e-12 * scale

    @pytest.mark.parametrize("learn_noise", [False, True])
    @pytest.mark.parametrize("sizes,k,n", [
        ((4, 10, 1), 15, 128),  # the nested-CV network's inner fits
        ((4, 10, 1), 10, 256),
        ((8, 50, 50, 1), 25, 128),  # `uci --full`'s network
    ])
    def test_rows_stay_independent_at_real_shapes(self, sizes, k, n, learn_noise):
        # the drawn problems above stay below the sizes where BLAS changes kernels
        model = BNNModel(layer_sizes=sizes, learn_noise=learn_noise)
        g = np.random.default_rng(k * n)
        thetas = 0.7 * g.standard_normal((k, model.dim))
        data = XYData(g.uniform(-1.0, 1.0, (n, sizes[0])), g.standard_normal(n))
        a, G = model.log_joint_and_grad(thetas, data)
        f = model.outputs(thetas, data.X)
        batches = [slice(0, j) for j in range(2, k)] + [slice(j, j + 1) for j in range(k)]
        for rows in batches:  # every prefix, and each row alone
            a_rows, G_rows = model.log_joint_and_grad(thetas[rows], data)
            assert np.array_equal(a_rows, a[rows]) and np.array_equal(G_rows, G[rows])
            assert np.array_equal(model.outputs(thetas[rows], data.X), f[rows])

    @pytest.mark.parametrize("model",[BLRModel(input_dim=2), BNNModel(layer_sizes=(2, 3, 1))])
    def test_rows_must_match_dim(self, model):
        data = XYData(np.zeros((1, 2)), np.zeros(1))
        for bad in (np.zeros(model.dim), np.zeros((2, model.dim + 1))):
            with pytest.raises(ValueError, match="K x"):
                model.log_joint_and_grad(bad, data)
