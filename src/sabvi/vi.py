"""Direct divergence-minimization variational inference.

The objective between a mean-field Gaussian q and a model joint p(theta, X)
is a sum of three log-expectations under q; its K-sample Monte Carlo
estimator with reparameterized samples theta_k = mu + sigma * eps_k is,
writing a_k = log p(theta_k, X), b_k = log q(theta_k) and lam = alpha+beta,

    term1 = LSE_k[ lam a_k - b_k ]           - log K   (over 1/(alpha lam))
    term2 = LSE_k[ (lam - 1) b_k ]           - log K   (over 1/(beta lam))
    term3 = LSE_k[ (alpha-1) b_k + beta a_k ] - log K  (over -1/(alpha beta))

evaluated entirely in log space; raw density ratios overflow for real
models as soon as |lam| leaves a neighborhood of 1.  Adding a constant to
every a_k shifts term1 by lam c and term3 by beta c, which cancel exactly
in the weighted sum: the estimator never needs the marginal likelihood.

Gradients are exact derivatives of the estimator with the noise block held
fixed: each term differentiates into a softmax-weighted average of
per-sample exponent gradients.  One ``model.log_joint_and_grad`` call on
the K x d sample rows gives every a_k and its gradient G_k, so that
d a_k/d mu = G_k and d a_k/d log sigma = G_k * sigma * eps_k; b_k depends
on the variational parameters only through -sum(log sigma) once
reparameterized (d b_k/d mu = 0, d b_k/d log sigma_i = -1).

Exact limit parameters (alpha = 0, beta = 0, alpha+beta = 0) are not
supported by the sampling estimator; near-limit values are fine under the
LSE formulation, and the quadrature evaluator covers the exact surfaces in
one dimension.  The (1, 0) corner trains through the standard
reparameterized negative-ELBO path instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .divergence import DivergenceParams, Region, classify_region
from .optim import AdamConfig, AdamState, adam_step
from .rng import NoiseBlock

_LOG_2PI = math.log(2.0 * math.pi)

DEFAULT_INIT_LOG_SIGMA = math.log(0.1)


class UnsupportedRegionError(ValueError):
    """MC estimator asked for an exact limit surface."""


class TrainingDiverged(RuntimeError):
    """Objective stayed non-finite; carries the partial report."""

    def __init__(self, message: str, report: "TrainReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class MeanFieldGaussian:
    """Fully factorized Gaussian variational posterior."""

    mu: np.ndarray = field(repr=False)
    log_sigma: np.ndarray = field(repr=False)

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        ls = np.atleast_1d(np.asarray(self.log_sigma, dtype=float))
        if mu.shape != ls.shape or mu.ndim != 1:
            raise ValueError("mu and log_sigma must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(ls))):
            raise ValueError("variational parameters must be finite")
        mu.flags.writeable = False
        ls.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "log_sigma", ls)

    @property
    def dim(self) -> int:
        return self.mu.size

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)

    @classmethod
    def initial(cls, dim: int, log_sigma: float = DEFAULT_INIT_LOG_SIGMA):
        return cls(np.zeros(dim), np.full(dim, log_sigma))


@dataclass(frozen=True)
class MCConfig:
    n_samples: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one MC sample")

    def to_dict(self) -> dict:
        return {"n_samples": self.n_samples, "seed": self.seed}


def sample_reparam(q: MeanFieldGaussian, noise: NoiseBlock) -> np.ndarray:
    """theta_k = mu + sigma * eps_k, one row per sample."""
    if noise.dim != q.dim:
        raise ValueError(f"noise dim {noise.dim} does not match q dim {q.dim}")
    return q.mu[None, :] + q.sigma[None, :] * noise.epsilons


def _log_q_values(q: MeanFieldGaussian, noise: NoiseBlock) -> np.ndarray:
    # log q(theta_k) expressed through the noise: the quadratic term is
    # eps^2/2 exactly, so the parameter dependence is -sum(log sigma).
    quad = 0.5 * np.sum(noise.epsilons**2, axis=1)
    return -float(np.sum(q.log_sigma)) - 0.5 * q.dim * _LOG_2PI - quad


def _require_generic(params: DivergenceParams):
    if classify_region(params) is not Region.GENERIC:
        raise UnsupportedRegionError(
            f"MC estimator is undefined at exact limit parameters "
            f"(alpha={params.alpha}, beta={params.beta}); use near-limit values "
            f"or the quadrature evaluator for exact limits")


def _log_joints(q: MeanFieldGaussian, model, data, noise: NoiseBlock,
                strict: bool = True):
    """Evaluate the model at every reparameterized sample in one batched call.

    strict=True raises on a non-finite log joint (the contract of the
    public estimator ops); strict=False lets NaN/inf flow through so the
    training loop's divergence accounting can see them.
    """
    a, grads = model.log_joint_and_grad(sample_reparam(q, noise), data)
    if strict and not np.all(np.isfinite(a)):
        raise ValueError("model log_joint returned a non-finite value")
    return a, grads


def _lse(v: np.ndarray) -> tuple[float, np.ndarray]:
    m = np.max(v)
    z = np.exp(v - m)
    total = z.sum()
    return float(m + np.log(total)), z / total


def _mc_terms(params: DivergenceParams, a: np.ndarray, b: np.ndarray):
    lam = params.lam
    log_k = math.log(a.size)
    e1 = lam * a - b
    e2 = (lam - 1.0) * b
    e3 = (params.alpha - 1.0) * b + params.beta * a
    (t1, s1), (t2, s2), (t3, s3) = _lse(e1), _lse(e2), _lse(e3)
    value = ((t1 - log_k) / (params.alpha * lam)
             + (t2 - log_k) / (params.beta * lam)
             - (t3 - log_k) / (params.alpha * params.beta))
    return value, (s1, s2, s3)


def mc_objective(params: DivergenceParams, q: MeanFieldGaussian, model, data,
                 noise: NoiseBlock) -> float:
    """K-sample estimate of the divergence from q to the posterior."""
    _require_generic(params)
    if model.dim != q.dim:
        raise ValueError("model dim does not match q dim")
    a, _ = _log_joints(q, model, data, noise)
    b = _log_q_values(q, noise)
    value, _ = _mc_terms(params, a, b)
    return value


def mc_objective_with_grad(params: DivergenceParams, q: MeanFieldGaussian,
                           model, data, noise: NoiseBlock, strict: bool = True):
    _require_generic(params)
    if model.dim != q.dim:
        raise ValueError("model dim does not match q dim")
    a, g = _log_joints(q, model, data, noise, strict=strict)
    b = _log_q_values(q, noise)
    value, (s1, s2, s3) = _mc_terms(params, a, b)

    alpha, beta, lam = params.alpha, params.beta, params.lam
    sig_eps = q.sigma[None, :] * noise.epsilons
    da_mu = g                      # K x d: d a_k / d mu
    da_ls = g * sig_eps            # K x d: d a_k / d log sigma
    ones = np.ones(q.dim)

    # d b_k / d mu = 0 and d b_k / d log sigma = -1 per coordinate.
    t1_mu = lam * (s1 @ da_mu)
    t1_ls = lam * (s1 @ da_ls) + ones
    t2_ls = (lam - 1.0) * -ones
    t3_mu = beta * (s3 @ da_mu)
    t3_ls = beta * (s3 @ da_ls) - (alpha - 1.0) * ones

    d_mu = t1_mu / (alpha * lam) - t3_mu / (alpha * beta)
    d_ls = (t1_ls / (alpha * lam) + t2_ls / (beta * lam)
            - t3_ls / (alpha * beta))
    return value, d_mu, d_ls


def kl_elbo_objective(q: MeanFieldGaussian, model, data, noise: NoiseBlock) -> float:
    """Reparameterized negative ELBO, the (alpha, beta) = (1, 0) path."""
    value, _, _ = kl_elbo_with_grad(q, model, data, noise)
    return value


def kl_elbo_with_grad(q: MeanFieldGaussian, model, data, noise: NoiseBlock,
                      strict: bool = True):
    if model.dim != q.dim:
        raise ValueError("model dim does not match q dim")
    a, g = _log_joints(q, model, data, noise, strict=strict)
    b = _log_q_values(q, noise)
    k = noise.n_samples
    value = float(np.mean(b - a))
    sig_eps = q.sigma[None, :] * noise.epsilons
    d_mu = -g.mean(axis=0)
    d_ls = -1.0 - (g * sig_eps).mean(axis=0)
    return value, d_mu, d_ls


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

_MAX_BAD_STEPS = 10


@dataclass(frozen=True)
class TrainReport:
    alpha: float
    beta: float
    final: MeanFieldGaussian
    trace: np.ndarray = field(repr=False)
    seed: int
    stream: int
    mc_config: MCConfig
    adam_config: AdamConfig
    init_mu: np.ndarray = field(repr=False)
    init_log_sigma: np.ndarray = field(repr=False)
    used_kl_path: bool

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "lambda": self.alpha + self.beta,
            "seed": self.seed,
            "stream": self.stream,
            "used_kl_path": self.used_kl_path,
            "mc": self.mc_config.to_dict(),
            "adam": self.adam_config.to_dict(),
            "init_mu": self.init_mu.tolist(),
            "init_log_sigma": self.init_log_sigma.tolist(),
            "final_mu": self.final.mu.tolist(),
            "final_log_sigma": self.final.log_sigma.tolist(),
            "trace": np.asarray(self.trace).tolist(),
        }


def _is_kl_corner(params: DivergenceParams) -> bool:
    return params.alpha == 1.0 and params.beta == 0.0


def train(params: DivergenceParams, q0: MeanFieldGaussian, model, data,
          mc: MCConfig, opt: AdamConfig,
          stream: int | None = None) -> TrainReport:
    """ADAM descent on the MC divergence estimate with fresh noise per step.

    Noise for step t comes from the (seed, stream, t) counter stream, so a
    rerun with the same configuration reproduces the trace bit for bit and
    concurrent runs stay independent by choosing distinct streams.  The
    (1, 0) corner routes through the negative-ELBO path; other exact limit
    parameters are rejected up front.  A run that never sees a finite
    step raises TrainingDiverged too, however few steps it has.
    """
    if stream is None:
        stream = rng.compose_stream(rng.STREAM_TRAIN)
    kl_path = _is_kl_corner(params)
    if not kl_path:
        _require_generic(params)
    if model.dim != q0.dim:
        raise ValueError("model dim does not match q dim")

    state = AdamState.init(np.concatenate([q0.mu, q0.log_sigma]))
    d = q0.dim
    trace = np.empty(opt.steps)
    bad_streak = 0
    finite_steps = 0
    q = q0
    for step in range(opt.steps):
        q = MeanFieldGaussian(state.params[:d], state.params[d:])
        noise = rng.noise_block(mc.seed, stream, step, mc.n_samples, d)
        with np.errstate(all="ignore"):
            if kl_path:
                value, d_mu, d_ls = kl_elbo_with_grad(q, model, data, noise, strict=False)
            else:
                value, d_mu, d_ls = mc_objective_with_grad(params, q, model, data, noise,
                                                           strict=False)
        trace[step] = value
        grad = np.concatenate([d_mu, d_ls])
        if not (math.isfinite(value) and np.all(np.isfinite(grad))):
            bad_streak += 1
            if bad_streak >= _MAX_BAD_STEPS:
                report = _report(params, q, trace[:step + 1], mc, opt, q0, stream, kl_path)
                raise TrainingDiverged(
                    f"objective non-finite for {bad_streak} consecutive steps "
                    f"at (alpha={params.alpha}, beta={params.beta})", report)
            continue  # skip the update, keep counting
        bad_streak = 0
        finite_steps += 1
        state = adam_step(state, grad, opt)
    final = MeanFieldGaussian(state.params[:d], state.params[d:])
    report = _report(params, final, trace, mc, opt, q0, stream, kl_path)
    if opt.steps and not finite_steps:
        raise TrainingDiverged(
            f"objective non-finite at all {opt.steps} steps "
            f"at (alpha={params.alpha}, beta={params.beta})", report)
    return report


def _report(params, final, trace, mc, opt, q0, stream, kl_path) -> TrainReport:
    return TrainReport(alpha=params.alpha, beta=params.beta, final=final,
                       trace=np.asarray(trace, dtype=float), seed=mc.seed,
                       stream=stream, mc_config=mc, adam_config=opt,
                       init_mu=q0.mu.copy(), init_log_sigma=q0.log_sigma.copy(),
                       used_kl_path=kl_path)
