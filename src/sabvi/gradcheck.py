"""Finite-difference validation suites for every analytic gradient.

Three suites, one per gradient family: quadrature density-fit gradients,
reparameterized Monte Carlo gradients (with the noise block frozen), and
model log-joint gradients.  Each case reports the worst component-wise
relative error against max(1, |finite difference|).  The suites are the
engine behind the ``gradcheck`` command and are reused verbatim by the
test suite, so the command and the tests can never drift apart.

``perturb`` injects a deliberate offset into the analytic side; it exists
as a negative control so the harness itself can be shown to catch broken
gradients.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .density_fit import (
    FitObjective,
    Gaussian1D,
    SkewComponent,
    SkewMixtureTarget,
    analytic_gradient,
    finite_diff_gradient,
)
from .divergence import DivergenceParams, GridDensity
from .models import BLRModel, BNNModel, XYData, check_log_joint_gradient
from .vi import MeanFieldGaussian, mc_objective_with_grad

FIT_GRAD_TOL = 1e-4
MC_GRAD_TOL = 1e-4
MODEL_GRAD_TOL = 1e-5


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))))


def _random_target(g) -> tuple[float, float, object]:
    """A random tabulation target; returns (location scale hints, density factory)."""
    if g.uniform() < 0.5:
        mu = g.uniform(-2.0, 2.0)
        s = g.uniform(0.6, 1.8)
        return mu, s, lambda lo, hi, n: GridDensity.gaussian(mu, s, lo, hi, n)
    locs = g.uniform(-2.0, 2.0, 2)
    scales = g.uniform(0.6, 1.8, 2)
    shapes = g.uniform(-4.0, 4.0, 2)
    w = g.uniform(0.3, 0.7)
    target = SkewMixtureTarget((
        SkewComponent(w, locs[0], scales[0], shapes[0]),
        SkewComponent(1.0 - w, locs[1], scales[1], shapes[1])))
    center = float(np.mean(locs))
    spread = float(np.max(np.abs(locs - center)) + np.max(scales))
    return center, spread, lambda lo, hi, n: GridDensity.from_callable(target.log_pdf, lo, hi, n)


def _random_objective(g, s_q: float, s_p: float) -> FitObjective:
    """Draw an objective whose defining integrals converge for these scales."""
    prec_q, prec_p = s_q**-2, s_p**-2
    while True:
        pick = g.integers(4)
        if pick == 0:
            return FitObjective.kl()
        if pick == 1:
            a = g.uniform(-1.0, 2.5)
            if min(abs(a), abs(a - 1.0)) < 0.1:
                continue
            if a * prec_q + (1.0 - a) * prec_p <= 0.05:
                continue
            return FitObjective.renyi(a)
        if pick == 2:
            b = g.uniform(-0.8, 2.0)
            if abs(b) < 0.1:
                continue
            if prec_q + b * prec_p <= 0.05:
                continue
            return FitObjective.gamma(b)
        a = g.uniform(-2.0, 3.0)
        b = g.uniform(-2.0, 3.0)
        if min(abs(a), abs(b), abs(a + b)) < 0.1:
            continue
        if a + b <= 0.1:  # q^(a+b) tail must decay
            continue
        if a * prec_q + b * prec_p <= 0.05:
            continue
        return FitObjective.sab(a, b)


def density_fit_gradient_suite(n_cases: int = 50, seed: int = 0, h: float = 1e-5,
                               perturb: float = 0.0) -> list[dict]:
    g = rng.generator(seed, rng.compose_stream(rng.STREAM_DATA, 3))
    rows = []
    for case in range(n_cases):
        center, spread, make = _random_target(g)
        q = Gaussian1D(center + g.uniform(-1.0, 1.0),
                       float(np.log(g.uniform(0.6, 1.8))))
        lo = min(center, q.mu) - 10.0 * max(spread, q.sigma)
        hi = max(center, q.mu) + 10.0 * max(spread, q.sigma)
        p = make(lo, hi, 4001)
        objective = _random_objective(g, q.sigma, spread)
        analytic = analytic_gradient(objective, q, p) + perturb
        fd = finite_diff_gradient(objective, q, p, h)
        rows.append({"suite": "density-fit", "case": objective.label(),
                     "max_rel_err": _rel_err(analytic, fd), "threshold": FIT_GRAD_TOL})
    return rows


def _random_generic_params(g) -> DivergenceParams:
    while True:
        a = g.uniform(-2.0, 3.0)
        b = g.uniform(-2.0, 3.0)
        if min(abs(a), abs(b), abs(a + b)) >= 0.1:
            return DivergenceParams(a, b)


def mc_gradient_suite(n_cases: int = 20, seed: int = 0, h: float = 1e-5,
                      n_samples: int = 7, perturb: float = 0.0) -> list[dict]:
    g = rng.generator(seed, rng.compose_stream(rng.STREAM_DATA, 4))
    rows = []
    for case in range(n_cases):
        dim = int(g.integers(1, 4))
        model = BLRModel(input_dim=dim, include_bias=False, noise_sigma=0.3)
        n_obs = 12
        X = g.uniform(-1.0, 1.0, (n_obs, dim))
        y = X @ g.uniform(-1.0, 1.0, dim) + 0.3 * g.standard_normal(n_obs)
        data = XYData(X, y)
        q = MeanFieldGaussian(g.uniform(-0.5, 0.5, dim),
                              np.log(g.uniform(0.2, 1.0, dim)))
        params = _random_generic_params(g)
        noise = rng.noise_block(seed, rng.compose_stream(rng.STREAM_DATA, 5),
                                case, n_samples, dim)
        _, d_mu, d_ls = mc_objective_with_grad(params, q, model, data, noise)
        analytic = np.concatenate([d_mu, d_ls]) + perturb

        def value(mu, log_sigma):
            return mc_objective_with_grad(params, MeanFieldGaussian(mu, log_sigma),
                                          model, data, noise)[0]

        fd = np.empty(2 * dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd[i] = (value(q.mu + e, q.log_sigma) - value(q.mu - e, q.log_sigma)) / (2 * h)
            fd[dim + i] = (value(q.mu, q.log_sigma + e)
                           - value(q.mu, q.log_sigma - e)) / (2 * h)
        rows.append({"suite": "mc", "case": f"sab({params.alpha:.3f},{params.beta:.3f}) d={dim}",
                     "max_rel_err": _rel_err(analytic, fd), "threshold": MC_GRAD_TOL})
    return rows


def model_gradient_suite(seed: int = 0, perturb: float = 0.0) -> list[dict]:
    g = rng.generator(seed, rng.compose_stream(rng.STREAM_DATA, 6))
    n_obs, dim = 15, 3
    X = g.uniform(-1.0, 1.0, (n_obs, dim))
    y = np.sin(X[:, 0]) + 0.3 * g.standard_normal(n_obs)
    data = XYData(X, y)
    cases = [
        ("blr", BLRModel(input_dim=dim)),
        ("blr-no-bias", BLRModel(input_dim=dim, include_bias=False)),
        ("bnn-minimal", BNNModel(layer_sizes=(dim, 1, 1))),
        ("bnn-hidden-10", BNNModel(layer_sizes=(dim, 10, 1))),
        ("bnn-learned-noise", BNNModel(layer_sizes=(dim, 4, 1), learn_noise=True)),
    ]
    rows = []
    for name, model in cases:
        err = check_log_joint_gradient(model, data, seed=seed) + perturb
        rows.append({"suite": "models", "case": name,
                     "max_rel_err": err, "threshold": MODEL_GRAD_TOL})
    return rows


SUITES = {
    "density-fit": density_fit_gradient_suite,
    "mc": mc_gradient_suite,
    "models": model_gradient_suite,
}


def run_suites(only: list[str] | None = None, seed: int = 0,
               perturb: float = 0.0) -> list[dict]:
    names = only or list(SUITES)
    unknown = set(names) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown gradcheck suites: {sorted(unknown)}")
    rows = []
    for name in names:
        rows.extend(SUITES[name](seed=seed, perturb=perturb))
    for row in rows:
        row["ok"] = bool(row["max_rel_err"] < row["threshold"])
    return rows
