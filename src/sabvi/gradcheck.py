"""Finite-difference validation suites for every analytic gradient.

Three suites, one per gradient family: quadrature density-fit gradients,
reparameterized Monte Carlo gradients (with the noise block frozen), and
model log-joint gradients.  All take `central_differences`, the package's
one finite-difference oracle.  Each case reports the worst component-wise
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
    divergence_value,
)
from .divergence import (DEFAULT_GRID_POINTS, DEFAULT_GRID_SPAN, DivergenceParams,
                         EvaluationError, GridDensity)
from .models import BLRModel, BNNModel, XYData
from .vi import MeanFieldGaussian, mc_objective_with_grad, sample_rows

FIT_GRAD_TOL = 1e-4
MC_GRAD_TOL = 1e-4
MODEL_GRAD_TOL = 1e-5


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))))


def central_differences(f, x, steps) -> np.ndarray:
    """(f(x + s_i e_i) - f(x - s_i e_i)) / (2 s_i) for each coordinate i of x.

    ``f`` maps a 2n x n stack of points, the n forward steps and then the
    n backward ones, to their 2n values.  ``steps`` is one positive step
    or one per coordinate.
    """
    x = np.asarray(x, dtype=float)
    steps = np.broadcast_to(np.asarray(steps, dtype=float), x.shape)
    if not np.all(steps > 0):
        raise ValueError(f"finite-difference steps must be positive, got {steps}")
    shifts = np.diag(steps)  # row i moves coordinate i
    values = np.asarray(f(np.concatenate([x + shifts, x - shifts])), dtype=float)
    return (values[:len(x)] - values[len(x):]) / (2 * steps)


def finite_diff_gradient(objective: FitObjective, q: Gaussian1D, p: GridDensity,
                         h: float = 1e-5) -> np.ndarray:
    """Central-difference oracle for `density_fit.analytic_gradient`: steps of
    h in mu and log sigma through the independent `divergence_value`."""
    return central_differences(
        lambda points: [divergence_value(objective, Gaussian1D(*point), p) for point in points],
        [q.mu, q.log_sigma], h)


def check_log_joint_gradient(model, data, seed: int = 0) -> float:
    """Max relative error between log_joint_and_grad and central differences.

    20 points are drawn continuously, with stddev 0.5, so ReLU kinks are
    almost surely avoided; coordinate i of a point steps by 1e-6 max(1,
    |theta_i|).  The analytic gradients come from one batched call over the
    points, the differences from one batched call per point over its
    2 * dim perturbed rows.
    """
    g = rng.generator(seed, rng.compose_stream(rng.STREAM_DATA))
    thetas = 0.5 * g.standard_normal((20, model.dim))
    _, analytic = model.log_joint_and_grad(thetas, data)
    return max(_rel_err(grad, central_differences(
        lambda rows: model.log_joint_and_grad(rows, data)[0], theta,
        1e-6 * np.maximum(1.0, np.abs(theta)))) for theta, grad in zip(thetas, analytic))


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
    """Draw an objective whose defining integrals converge for these scales:
    KL, or an sAB point (a, b) with |a|, |b| >= 0.1, a + b > 0.1 (so the
    q^(a+b) tail decays) and combined precision a / s_q^2 + b / s_p^2 above 0.05."""
    while True:
        pick = g.integers(4)
        if pick == 0:
            return FitObjective.kl()
        if pick == 1:
            objective = FitObjective.renyi(g.uniform(-1.0, 2.5))
        elif pick == 2:
            objective = FitObjective.gamma(g.uniform(-0.8, 2.0))
        else:
            objective = FitObjective.sab(g.uniform(-2.0, 3.0), g.uniform(-2.0, 3.0))
        a, b = objective.alpha, objective.beta
        if min(abs(a), abs(b)) >= 0.1 and a + b > 0.1 and a * s_q**-2 + b * s_p**-2 > 0.05:
            return objective


def density_fit_gradient_suite(seed: int = 0, perturb: float = 0.0) -> list[dict]:
    """50 random targets and objectives, with central differences of step 1e-5."""
    g = rng.generator(seed, rng.compose_stream(rng.STREAM_DATA, 3))
    rows = []
    for _ in range(50):
        while True:
            center, spread, make = _random_target(g)
            q = Gaussian1D(center + g.uniform(-1.0, 1.0),
                           float(np.log(g.uniform(0.6, 1.8))))
            lo = min(center, q.mu) - DEFAULT_GRID_SPAN * max(spread, q.sigma)
            hi = max(center, q.mu) + DEFAULT_GRID_SPAN * max(spread, q.sigma)
            p = make(lo, hi, DEFAULT_GRID_POINTS)
            objective = _random_objective(g, q.sigma, spread)
            try:
                analytic = analytic_gradient(objective, q, p) + perturb
                fd = finite_diff_gradient(objective, q, p)
                break
            except EvaluationError:
                # spread understates how fast a skewed target's tail decays, so
                # an integral can still be dominated by floored nodes: draw again
                continue
        rows.append({"suite": "density-fit", "case": objective.label(),
                     "max_rel_err": _rel_err(analytic, fd), "threshold": FIT_GRAD_TOL})
    return rows


def _random_generic_params(g) -> DivergenceParams:
    while True:
        a = g.uniform(-2.0, 3.0)
        b = g.uniform(-2.0, 3.0)
        if min(abs(a), abs(b), abs(a + b)) >= 0.1:
            return DivergenceParams(a, b)


def mc_gradient_suite(seed: int = 0, perturb: float = 0.0) -> list[dict]:
    """20 random BLR problems and sAB points, each with a frozen block of 7
    samples, and central differences of step 1e-5."""
    g = rng.generator(seed, rng.compose_stream(rng.STREAM_DATA, 4))
    rows = []
    for case in range(20):
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
                                case, 7, dim)
        _, d_mu, d_ls = mc_objective_with_grad(params, sample_rows(q, model, data, noise))
        analytic = np.concatenate([d_mu, d_ls]) + perturb
        fd = central_differences(
            lambda points: [mc_objective_with_grad(params, sample_rows(
                MeanFieldGaussian(point[:dim], point[dim:]), model, data, noise))[0]
                for point in points],
            np.concatenate([q.mu, q.log_sigma]), 1e-5)
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
