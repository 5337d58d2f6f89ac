"""Direct divergence-minimization variational inference.

The objective between a mean-field Gaussian q and a model joint p(theta, X)
is a sum of three log-expectations under q; its K-sample Monte Carlo
estimator with reparameterized samples theta_k = mu + sigma * eps_k is,
writing a_k = log p(theta_k, X), b_k = log q(theta_k) and lam = alpha+beta,

    term1 = LSE_k[ lam a_k - b_k ]           - log K   (over 1/(alpha lam))
    term2 = LSE_k[ (lam - 1) b_k ]           - log K   (over 1/(beta lam))
    term3 = LSE_k[ (alpha-1) b_k + beta a_k ] - log K  (over -1/(alpha beta))

evaluated entirely in log space; raw density ratios overflow for real
models as soon as |lam| leaves a neighborhood of 1.  The three exponents
are stacked into one 3 x K array and reduced by one fused log-sum-exp
(one max, exp and sum per row), row for row the same arithmetic as three
separate ones.  Adding a constant to every a_k shifts term1 by lam c and
term3 by beta c, which cancel exactly in the weighted sum: the estimator
never needs the marginal likelihood.

Gradients are exact derivatives of the estimator with the noise block held
fixed.  One ``model.log_joint_and_grad`` call on the K x d sample rows
gives every a_k and its gradient G_k, so that d a_k/d mu = G_k and
d a_k/d log sigma = G_k * sigma * eps_k; b_k depends on the variational
parameters only through -sum(log sigma) once reparameterized.  Each term
differentiates into a softmax-weighted average, and with s1, s3 the
softmax weights of terms 1 and 3 the whole gradient is one weight vector

    w = (s1 - s3) / alpha,   d mu = w @ G,   d log sigma = w @ (G sigma eps)

a difference of two tilted expectations, as in the quadrature fits.  Term
2 depends on the parameters only through the -sum(log sigma) in b_k, and
the three -sum(log sigma) contributions add up to
(alpha + beta - lam) / (alpha beta lam) = 0 per coordinate.

Training runs C cells (settings of (alpha, beta)) that share q0, model
and data as one batch: per step, one model call on all C x K sample rows,
one estimator call per cell on its K evaluated rows (``rows=(a, G)``),
one ADAM update over the stacked rows.  A model row's log joint does not
depend on the other rows of its batch, so each cell's outcome is bit for
bit that of training it alone; `train` is the one-cell batch.

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
    sigma: np.ndarray = field(init=False, repr=False, compare=False)  # exp(log_sigma)

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        ls = np.atleast_1d(np.asarray(self.log_sigma, dtype=float))
        if mu.shape != ls.shape or mu.ndim != 1:
            raise ValueError("mu and log_sigma must be 1-D vectors of equal length")
        if not (np.isfinite(mu).all() and np.isfinite(ls).all()):
            raise ValueError("variational parameters must be finite")
        sigma = np.exp(ls)
        for name, value in (("mu", mu), ("log_sigma", ls), ("sigma", sigma)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.mu.size

    @classmethod
    def _unchecked(cls, mu: np.ndarray, log_sigma: np.ndarray, sigma: np.ndarray):
        """A q over vectors the caller has built, without the constructor's
        checks and copies: the training loop's rows start from a checked q0
        and stay finite, since ADAM takes only finite steps."""
        q = object.__new__(cls)
        for name, value in (("mu", mu), ("log_sigma", log_sigma), ("sigma", sigma)):
            object.__setattr__(q, name, value)
        return q

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
    quad = 0.5 * (noise.epsilons**2).sum(axis=1)
    return -float(q.log_sigma.sum()) - 0.5 * q.dim * _LOG_2PI - quad


def _require_generic(params: DivergenceParams):
    if classify_region(params) is not Region.GENERIC:
        raise UnsupportedRegionError(
            f"MC estimator is undefined at exact limit parameters "
            f"(alpha={params.alpha}, beta={params.beta}); use near-limit values "
            f"or the quadrature evaluator for exact limits")


def _model_rows(q: MeanFieldGaussian, model, data, noise: NoiseBlock, rows):
    """(a, G) at the samples of q and noise: the caller's evaluated rows as
    they are, non-finite values included so that the training loop's
    divergence accounting sees them, or else one batched model call that
    raises on a non-finite log joint."""
    if rows is not None:
        return rows
    if model.dim != q.dim:
        raise ValueError("model dim does not match q dim")
    a, grads = model.log_joint_and_grad(sample_reparam(q, noise), data)
    if not np.all(np.isfinite(a)):
        raise ValueError("model log_joint returned a non-finite value")
    return a, grads


def _mc_terms(params: DivergenceParams, a: np.ndarray, b: np.ndarray):
    """The estimator value and its gradient weights (s1 - s3) / alpha."""
    alpha, beta, lam = params.alpha, params.beta, params.lam
    log_k = math.log(a.size)
    e = np.array([lam * a - b, (lam - 1.0) * b, (alpha - 1.0) * b + beta * a])
    m = e.max(axis=1, keepdims=True)
    e -= m
    z = np.exp(e, out=e)
    total = z.sum(axis=1, keepdims=True)
    t1, t2, t3 = (m + np.log(total)).ravel().tolist()
    value = ((t1 - log_k) / (alpha * lam)
             + (t2 - log_k) / (beta * lam)
             - (t3 - log_k) / (alpha * beta))
    z /= total
    return value, (z[0] - z[2]) / alpha


def mc_objective_with_grad(params: DivergenceParams, q: MeanFieldGaussian,
                           model, data, noise: NoiseBlock, rows=None):
    """K-sample estimate of the divergence from q to the posterior, with its
    gradient: (value, d/d mu, d/d log sigma).  rows = (a, G), if given, are
    the model's log joints and gradients at the samples, already evaluated."""
    _require_generic(params)
    a, g = _model_rows(q, model, data, noise, rows)
    value, w = _mc_terms(params, a, _log_q_values(q, noise))
    return value, w @ g, w @ (g * (q.sigma[None, :] * noise.epsilons))


def kl_elbo_with_grad(q: MeanFieldGaussian, model, data, noise: NoiseBlock, rows=None):
    """Reparameterized negative ELBO, the (alpha, beta) = (1, 0) path, with
    its gradient; rows as for `mc_objective_with_grad`."""
    a, g = _model_rows(q, model, data, noise, rows)
    value = float(np.mean(_log_q_values(q, noise) - a))
    d_mu = -g.mean(axis=0)
    d_ls = -1.0 - (g * (q.sigma[None, :] * noise.epsilons)).mean(axis=0)
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
    skipped_steps: int  # non-finite steps whose update was skipped

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "lambda": self.alpha + self.beta,
            "seed": self.seed,
            "stream": self.stream,
            "used_kl_path": self.used_kl_path,
            "skipped_steps": self.skipped_steps,
            "mc": self.mc_config.to_dict(),
            "adam": self.adam_config.to_dict(),
            "init_mu": self.init_mu.tolist(),
            "init_log_sigma": self.init_log_sigma.tolist(),
            "final_mu": self.final.mu.tolist(),
            "final_log_sigma": self.final.log_sigma.tolist(),
            "trace": np.asarray(self.trace).tolist(),
        }


# Sample rows per batched model call: bounds the rows x N x width
# activations of a network however many cells train together.  Larger
# calls did not pay: a BNN 8-50-50-1 step at K = 25, N = 128 ran about 10%
# slower per cell with two cells (50 rows) per call than with one.
_BATCH_ROWS = 32


def train(params: DivergenceParams, q0: MeanFieldGaussian, model, data,
          mc: MCConfig, opt: AdamConfig,
          stream: int | None = None) -> TrainReport:
    """ADAM descent on the MC divergence estimate with fresh noise per step.

    Noise for step t is block t of one live (seed, stream) noise stream, so a
    rerun with the same configuration reproduces the trace bit for bit and
    concurrent runs stay independent by choosing distinct streams.  The
    (1, 0) corner routes through the negative-ELBO path; other exact limit
    parameters are rejected up front.  A run that never sees a finite
    step raises TrainingDiverged too, however few steps it has.  This is
    the one-cell case of `train_batch`.
    """
    if stream is None:
        stream = rng.compose_stream(rng.STREAM_TRAIN)
    (outcome,) = train_batch([params], q0, model, data, mc, opt, [stream])
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome


def train_batch(cells: list[DivergenceParams], q0: MeanFieldGaussian, model, data,
                mc: MCConfig, opt: AdamConfig,
                streams: list[int]) -> list[TrainReport | TrainingDiverged]:
    """Train C cells that share q0, model, data and configuration as one batch.

    Cell c draws its noise from its own (mc.seed, streams[c]) stream and
    keeps its own trace, skipped-step count and divergence outcome, as
    `train` would give it alone.  Each step evaluates the sample rows of
    all live cells in one model call (at most _BATCH_ROWS rows per call,
    one cell per call if K is larger), runs one estimator call per live
    cell on its rows, and takes one ADAM update over the cells whose step
    was finite.  The outcomes equal C separate trainings bit for bit when
    a row's log joint does not depend on the other rows of its batch, as
    for both of the package's models; a one-cell batch is exactly `train`.

    Returns one outcome per cell, in order: its TrainReport, or the
    TrainingDiverged (partial report attached) that `train` would raise.
    """
    if len(cells) != len(streams):
        raise ValueError("need one stream per cell")
    kl_paths = [(params.alpha, params.beta) == (1.0, 0.0) for params in cells]
    for params, kl_path in zip(cells, kl_paths):
        if not kl_path:
            _require_generic(params)
    if model.dim != q0.dim:
        raise ValueError("model dim does not match q dim")

    n_cells, d, k = len(cells), q0.dim, mc.n_samples
    state = AdamState.init(np.tile(np.concatenate([q0.mu, q0.log_sigma]), (n_cells, 1)))
    grads = np.zeros_like(state.params)
    traces = np.empty((n_cells, opt.steps))
    noise_streams = [rng.NoiseStream(mc.seed, stream) for stream in streams]
    bad_streak = [0] * n_cells
    skipped = [0] * n_cells
    outcomes: list = [None] * n_cells
    live = list(range(n_cells))
    per_call = max(1, _BATCH_ROWS // k)
    for step in range(opt.steps):
        for start in range(0, len(live), per_call):
            batch = live[start:start + per_call]
            noises = [noise_streams[c].block(step, k, d) for c in batch]
            rows = state.params[batch]  # fancy indexing copies
            mu, log_sigma = rows[:, :d], rows[:, d:]
            sigma = np.exp(log_sigma)
            eps = np.array([noise.epsilons for noise in noises])
            thetas = (mu[:, None, :] + sigma[:, None, :] * eps).reshape(-1, d)
            with np.errstate(all="ignore"):
                a, g = model.log_joint_and_grad(thetas, data)
                for i, c in enumerate(batch):
                    q = MeanFieldGaussian._unchecked(mu[i], log_sigma[i], sigma[i])
                    rows = a[i * k:(i + 1) * k], g[i * k:(i + 1) * k]
                    if kl_paths[c]:
                        value, d_mu, d_ls = kl_elbo_with_grad(q, model, data, noises[i], rows)
                    else:
                        value, d_mu, d_ls = mc_objective_with_grad(cells[c], q, model, data,
                                                                   noises[i], rows)
                    traces[c, step] = value
                    grads[c, :d] = d_mu
                    grads[c, d:] = d_ls
        finite = np.isfinite(grads).all(axis=1)
        stepped = []
        for c in live:
            if finite[c] and math.isfinite(traces[c, step]):
                bad_streak[c] = 0
                stepped.append(c)
                continue
            bad_streak[c] += 1  # skip the update, keep counting
            skipped[c] += 1
            if bad_streak[c] >= _MAX_BAD_STEPS:
                params = cells[c]
                outcomes[c] = TrainingDiverged(
                    f"objective non-finite for {bad_streak[c]} consecutive steps "
                    f"at (alpha={params.alpha}, beta={params.beta})",
                    _report(params, _q_of(state.params[c], d), traces[c, :step + 1], mc,
                            opt, q0, streams[c], kl_paths[c], skipped[c]))
        if len(stepped) < len(live):
            live = [c for c in live if outcomes[c] is None]
        if stepped:
            adam_step(state, grads, opt, None if len(stepped) == n_cells else stepped)

    for c in live:
        params = cells[c]
        report = _report(params, _q_of(state.params[c], d), traces[c], mc, opt, q0,
                         streams[c], kl_paths[c], skipped[c])
        outcomes[c] = report if not opt.steps or skipped[c] < opt.steps else TrainingDiverged(
            f"objective non-finite at all {opt.steps} steps "
            f"at (alpha={params.alpha}, beta={params.beta})", report)
    return outcomes


def _q_of(row: np.ndarray, d: int) -> MeanFieldGaussian:
    """A report's own copy of the q in one stacked (mu, log sigma) row."""
    return MeanFieldGaussian(row[:d].copy(), row[d:].copy())


def _report(params, final, trace, mc, opt, q0, stream, kl_path, skipped) -> TrainReport:
    return TrainReport(alpha=params.alpha, beta=params.beta, final=final,
                       trace=np.array(trace, dtype=float), seed=mc.seed,
                       stream=stream, mc_config=mc, adam_config=opt,
                       init_mu=q0.mu.copy(), init_log_sigma=q0.log_sigma.copy(),
                       used_kl_path=kl_path, skipped_steps=skipped)
