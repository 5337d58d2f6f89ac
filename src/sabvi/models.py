"""Regression joint densities: Bayesian linear regression and a small
ReLU Bayesian neural network.

The variational trainer needs ``dim`` and one batched method,
``log_joint_and_grad(thetas, data) -> (a, G)``: for a K x dim array of
parameter rows it returns the K log joints and their K x dim gradients.
Both models evaluate all rows in one call: the network in one stacked
forward and backward pass, the linear model through its data statistics
and one vector-matrix product per row.  Prediction needs one more:
``outputs(thetas, X)``, the K x N regression outputs of K parameter rows.
A row's log joint, gradient and outputs do not depend on which rows
share its batch, bit for bit, so batched training equals training each
cell alone.

The network runs units-major: every activation is K x width x N, with
the N data points innermost, so each elementwise pass (bias, ReLU mask,
backward product) runs along rows of N rather than of width.  The input
layer multiplies X' with a row of ones appended, so its bias is the last
column of its weights and its bias gradient comes out of the weight
gradient's matmul.  Every layer stays one stacked matmul per parameter
row, never one GEMM across the rows: BLAS then sums each row's products
in an order that depends on the batch (the input layer's weight gradient
as one (K width) x N GEMM gives different bits than one row alone at
4-10-1 with K = 15 and N = 128).  ``log_joint(theta, data)`` and
``grad_log_joint(theta, data)`` are one-row views of the batched method;
no command calls them, but the benchmark's tracer wraps them.  ``data`` is
any object with ``X`` (N x D) and ``y`` (N,) attributes.  `BNNModel`
serializes itself with ``to_config()``, and `model_from_config` rebuilds
it: "bnn" is the one model-config kind, the network ``uci`` trains.  Both
models put a standard-normal prior on every parameter.

Gradient correctness for every model is enforced by
`gradcheck.check_log_joint_gradient`, the finite-difference conformance
check of the batched method, run both in the tests and by the
gradient-diagnostics command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rng

_LOG_2PI = math.log(2.0 * math.pi)


class XYData(NamedTuple):
    X: np.ndarray
    y: np.ndarray


def _as_xy(data) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("data must provide X as N x D and y of length N")
    return X, y


def _as_rows(thetas, dim: int) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != dim:
        raise ValueError(f"thetas must be a K x {dim} array, one parameter vector per row")
    return thetas


# ---------------------------------------------------------------------------
# Bayesian linear regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BLRModel:
    """Standard-normal-prior, Gaussian-likelihood linear regression.

    theta packs the weights first and the bias last (when present).
    """

    input_dim: int
    noise_sigma: float = 0.1
    include_bias: bool = True

    def __post_init__(self):
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")

    @property
    def dim(self) -> int:
        return self.input_dim + (1 if self.include_bias else 0)

    def outputs(self, thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """K x N regression outputs, one row per parameter row.

        Each row is its own vector-matrix product, so its outputs do not
        depend on the other rows of the batch.
        """
        thetas = _as_rows(thetas, self.dim)
        f = np.matmul(thetas[:, None, :self.input_dim], np.asarray(X, dtype=float).T)[:, 0]
        if self.include_bias:
            f += thetas[:, -1:]
        return f

    def log_joint_and_grad(self, thetas: np.ndarray, data) -> tuple[np.ndarray, np.ndarray]:
        """log p(theta_k, data) and its gradient for every row of K x dim thetas.

        The likelihood goes through the data's statistics Phi'Phi, Phi'y and
        y'y, and each row's quadratic form and gradient is its own
        vector-matrix product, so a row's result does not depend on the
        other rows of its batch.
        """
        thetas = _as_rows(thetas, self.dim)
        gram, phi_y, yy, n = _blr_statistics(self, data)
        value = -0.5 * np.einsum("kd,kd->k", thetas, thetas) - 0.5 * self.dim * _LOG_2PI
        gram_theta = np.matmul(thetas[:, None, :], gram)[:, 0]  # one product per row
        # ||y - Phi theta||^2 = y'y - 2 theta'Phi'y + theta'Phi'Phi theta
        sq = yy + np.einsum("kd,kd->k", thetas, gram_theta - 2.0 * phi_y)
        var = self.noise_sigma**2
        value -= 0.5 * sq / var + n * (math.log(self.noise_sigma) + 0.5 * _LOG_2PI)
        return value, (phi_y - gram_theta) / var - thetas

    def log_joint(self, theta: np.ndarray, data) -> float:
        return float(self.log_joint_and_grad(np.asarray(theta)[None], data)[0][0])

    def grad_log_joint(self, theta: np.ndarray, data) -> np.ndarray:
        return self.log_joint_and_grad(np.asarray(theta)[None], data)[1][0]


def _blr_statistics(model: BLRModel, data):
    """Phi'Phi, Phi'y, y'y and N of the data, where the design matrix Phi is
    X with a column of ones appended when the model has a bias."""
    X, y = _as_xy(data)
    phi = np.hstack([X, np.ones((len(y), 1))]) if model.include_bias else X
    return phi.T @ phi, phi.T @ y, float(y @ y), len(y)


def blr_exact_posterior(model: BLRModel, data) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Gaussian posterior (mean, covariance).

    Precision = Phi' Phi / noise^2 + I, the standard-normal prior's.  A singular
    precision raises numpy's LinAlgError; regularization is the prior's
    job, never added silently here.
    """
    gram, phi_y, _, _ = _blr_statistics(model, data)
    precision = gram / model.noise_sigma**2 + np.eye(model.dim)
    cov = np.linalg.inv(precision)
    mean = cov @ phi_y / model.noise_sigma**2
    return mean, cov


# ---------------------------------------------------------------------------
# Bayesian neural network (ReLU MLP, Gaussian likelihood)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BNNModel:
    """Fully connected ReLU network with standard-normal weight priors.

    Parameter packing is normative so seeds reproduce: for each layer,
    the weight matrix W (out x in) in row-major order, then the bias
    vector; an optional learnable log-noise scalar sits at the very end.
    The ReLU subgradient at exactly zero is taken to be 0.
    """

    layer_sizes: tuple[int, ...]
    noise_sigma: float = 0.1
    learn_noise: bool = False

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 3:
            raise ValueError("need at least input, one hidden layer, and output")
        if sizes[-1] != 1:
            raise ValueError("output layer must have size 1")
        if any(s < 1 for s in sizes):
            raise ValueError("all layer sizes must be >= 1")
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive")

    @cached_property
    def dim(self) -> int:
        count = sum(n_out * n_in + n_out
                    for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        return count + (1 if self.learn_noise else 0)

    @cached_property
    def _layer_slices(self) -> tuple[tuple[slice, slice, int, int], ...]:
        """(weight slice, bias slice, n_out, n_in) of each layer in theta."""
        out, pos = [], 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            w_end = pos + n_out * n_in
            out.append((slice(pos, w_end), slice(w_end, w_end + n_out), n_out, n_in))
            pos = w_end + n_out
        return tuple(out)

    def _forward(self, thetas: np.ndarray, X: np.ndarray):
        """Run all K networks on X: (weights, activations), units-major.

        activations[0] is X' over a row of ones, (D + 1) x N, and weights[0]
        the input layer's K x out x (D + 1) weights with the bias last; every
        later activation is K x width x N (the last is the output), and every
        later weight K x out x in.  Each hidden ReLU is applied in place, so
        a unit is active exactly where its activation is positive.
        """
        k = len(thetas)
        (w_sl, b_sl, n_out, n_in), *rest = self._layer_slices
        first = np.concatenate([thetas[:, w_sl].reshape(k, n_out, n_in),
                                thetas[:, b_sl, None]], axis=2)
        x_ones = np.ones((n_in + 1, len(X)))  # C order, faster here than vstack's F order
        x_ones[:n_in] = X.T
        weights, acts = [first], [x_ones, np.matmul(first, x_ones)]
        for w_sl, b_sl, n_out, n_in in rest:
            np.maximum(acts[-1], 0.0, out=acts[-1])
            W = thetas[:, w_sl].reshape(k, n_out, n_in)
            h = np.matmul(W, acts[-1])
            h += thetas[:, b_sl, None]
            weights.append(W)
            acts.append(h)
        return weights, acts

    def outputs(self, thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """K x N network outputs, one row per parameter row."""
        _, acts = self._forward(_as_rows(thetas, self.dim), np.asarray(X, dtype=float))
        return acts[-1][:, 0]

    def log_joint_and_grad(self, thetas: np.ndarray, data) -> tuple[np.ndarray, np.ndarray]:
        """log p(theta_k, data) and its gradient for every row of K x dim thetas.

        One forward pass of all K networks, then one backward pass of the
        Gaussian log-likelihood through them.
        """
        thetas = _as_rows(thetas, self.dim)
        X, y = _as_xy(data)
        k = len(thetas)
        value = -0.5 * np.einsum("kd,kd->k", thetas, thetas) - 0.5 * self.dim * _LOG_2PI
        grad = -thetas
        if self.learn_noise:
            sigma = np.exp(thetas[:, -1])
        else:
            sigma = np.full(k, self.noise_sigma)
        weights, acts = self._forward(thetas, X)
        resid = y - acts[-1][:, 0]
        value += (-0.5 * np.einsum("kn,kn->k", resid, resid) / sigma**2
                  - len(y) * (np.log(sigma) + 0.5 * _LOG_2PI))
        delta = (resid / sigma[:, None] ** 2)[:, None]  # d loglik / d output, K x 1 x N
        ones = np.ones(len(y))  # row sums as a matmul, faster than sum(axis=2)
        slices = self._layer_slices
        for i in range(len(slices) - 1, 0, -1):
            w_sl, b_sl, n_out, _ = slices[i]
            grad[:, w_sl] += np.matmul(delta, acts[i].transpose(0, 2, 1)).reshape(k, -1)
            grad[:, b_sl] += delta @ ones
            w_t = weights[i].transpose(0, 2, 1)
            # a one-unit layer's product has one term per entry: broadcast is the
            # same bits as matmul, and faster
            delta = w_t * delta if n_out == 1 else np.matmul(w_t, delta)
            delta *= acts[i] > 0
        # the row of ones makes the bias gradient the last column
        w_sl, b_sl, n_out, n_in = slices[0]
        first = np.matmul(delta, acts[0].T)
        grad_w = grad[:, w_sl].reshape(k, n_out, n_in)  # a view into grad
        grad_w += first[:, :, :n_in]
        grad[:, b_sl] += first[:, :, n_in]
        if self.learn_noise:
            grad[:, -1] += np.sum(resid**2, axis=1) / sigma**2 - len(y)
        return value, grad

    def log_joint(self, theta: np.ndarray, data) -> float:
        return float(self.log_joint_and_grad(np.asarray(theta)[None], data)[0][0])

    def grad_log_joint(self, theta: np.ndarray, data) -> np.ndarray:
        return self.log_joint_and_grad(np.asarray(theta)[None], data)[1][0]

    def to_config(self) -> dict:
        """The JSON-friendly dict `model_from_config` rebuilds this model from."""
        return {"kind": "bnn", "layer_sizes": list(self.layer_sizes),
                "prior_sigma": 1.0,
                "noise_sigma": self.noise_sigma,
                "learn_noise": self.learn_noise}


# ---------------------------------------------------------------------------
# model configuration format (JSON-friendly dicts)
# ---------------------------------------------------------------------------


def _positive(name: str, value):
    """A model config number, checked finite and positive."""
    try:
        valid = (not isinstance(value, bool) and isinstance(value, (int, float))
                 and math.isfinite(value) and value > 0)
    except OverflowError:  # an integer beyond the float range
        valid = False
    if not valid:
        raise ValueError(f"model config field {name!r} must be a finite positive "
                         f"number, got {value!r}")
    return value


def model_from_config(config: dict) -> BNNModel:
    """Build the network a model configuration dict describes; "bnn" is the
    one kind."""
    if not isinstance(config, dict):
        raise ValueError(f"model config must be a JSON object, got {type(config).__name__}")
    if (kind := config.get("kind")) != "bnn":
        raise ValueError(f"unknown model kind {kind!r}; a model config describes a 'bnn' "
                         f"network")
    if "layer_sizes" not in config:
        raise ValueError("model config missing field 'layer_sizes'")
    if not isinstance(sizes := config["layer_sizes"], list):
        raise ValueError(f"model config field 'layer_sizes' must be a list, got {sizes!r}")
    for size in sizes:
        if type(_positive("layer_sizes", size)) is not int:
            raise ValueError(f"model config field 'layer_sizes' must be an integer of at "
                             f"least 1, got {size!r}")
    if (prior_sigma := _positive("prior_sigma", config.get("prior_sigma", 1.0))) != 1.0:
        raise ValueError(f"every model has a standard-normal prior; the model config asks "
                         f"for prior_sigma {prior_sigma}")
    noise_sigma = _positive("noise_sigma", config.get("noise_sigma", 0.1))
    if not isinstance(learn_noise := config.get("learn_noise", False), bool):
        raise ValueError(f"model config field 'learn_noise' must be true or false, "
                         f"got {learn_noise!r}")
    return BNNModel(layer_sizes=tuple(sizes), noise_sigma=float(noise_sigma),
                    learn_noise=learn_noise)


# ---------------------------------------------------------------------------
# posterior-predictive evaluation
# ---------------------------------------------------------------------------


# Draws per batched outputs call: bounds the chunk x width x N hidden
# activations of a network however many draws a prediction makes.
_PREDICT_CHUNK = 32


def predict(q, model, X_test: np.ndarray, draws: int, seed: int,
            stream: int | None = None) -> np.ndarray:
    """Monte Carlo posterior-predictive mean, one value per row of X_test.

    Draws reparameterized thetas from q and averages the deterministic
    model outputs, evaluated in chunks of at most _PREDICT_CHUNK draws.
    The harnesses score only this mean.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    X_test = np.asarray(X_test, dtype=float)
    if stream is None:
        stream = rng.compose_stream(rng.STREAM_PREDICT)
    eps = rng.noise_block(seed, stream, 0, draws, q.dim)
    thetas = q.mu[None, :] + np.exp(q.log_sigma)[None, :] * eps
    outputs = np.empty((draws, len(X_test)))
    for start in range(0, draws, _PREDICT_CHUNK):
        chunk = slice(start, start + _PREDICT_CHUNK)
        outputs[chunk] = model.outputs(thetas[chunk], X_test)
    return outputs.mean(axis=0)
