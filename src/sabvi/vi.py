"""Direct divergence-minimization variational inference.

The objective between a mean-field Gaussian q and a model joint p(theta, X)
is a sum of three log-expectations under q; its K-sample Monte Carlo
estimator with reparameterized samples theta_k = mu + sigma * eps_k is,
writing a_k = log p(theta_k, X), b_k = log q(theta_k) and lam = alpha+beta,

    term1 = LSE_k[ lam a_k - b_k ]           - log K   (over 1/(alpha lam))
    term2 = LSE_k[ (lam - 1) b_k ]           - log K   (over 1/(beta lam))
    term3 = LSE_k[ (alpha-1) b_k + beta a_k ] - log K  (over -1/(alpha beta))

evaluated entirely in log space; raw density ratios overflow for real
models as soon as |lam| leaves a neighborhood of 1.  It is the quadrature
divergence D[alpha,beta](q, p) with each power integral importance-sampled
under q, so the value is `divergence.sab_value` of (term2, term1, term3),
and the 3 x K exponents are reduced by the grid's log-sum-exp kernel,
`divergence.lse_rows`.  Adding a constant to every a_k shifts term1 by
lam c and term3 by beta c, which cancel exactly in the weighted sum: the
estimator never needs the marginal likelihood.

Gradients are exact derivatives of the estimator with the noise block held
fixed.  The estimator reads the samples only through their `SampleRows`:
a_k, b_k, G_k = d a_k/d theta (so d a_k/d mu = G_k) and
d a_k/d log sigma = G_k * sigma * eps_k; b_k depends on the variational
parameters only through -sum(log sigma) once reparameterized.  `_evaluate`
makes them, with the one ``model.log_joint_and_grad`` call of this module,
and the estimators are functions of one cell's rows; `sample_rows` is
its one-q view, which the gradient diagnostics read.  The module forms
its samples mu + sigma eps nowhere else.  Each term
differentiates into a softmax-weighted average, and with s1, s3 the
softmax weights of terms 1 and 3 the whole gradient is one weight vector

    w = (s1 - s3) / alpha,   d mu = w @ G,   d log sigma = w @ (G sigma eps)

a difference of two tilted expectations, as in the quadrature fits.  Term
2 depends on the parameters only through the -sum(log sigma) in b_k, and
the three -sum(log sigma) contributions add up to
(alpha + beta - lam) / (alpha beta lam) = 0 per coordinate.

Training runs C cells (settings of (alpha, beta)) that share q0, model
and data as one batch: per step, one `_evaluate` of all C x K sample rows,
one estimator call per cell on its K rows, one ADAM update over the
stacked rows.  A model row's log joint does not depend on the other rows
of its batch, so each cell's outcome is bit for bit that of training it
alone; `train` is the one-cell batch.  One C x steps mask records the
steps taken (a non-finite step is skipped), and each cell's report, with
the reason its training failed, if it did, is built once after the last step.

Exact limit parameters (alpha = 0, beta = 0, alpha+beta = 0) are not
supported by the sampling estimator; near-limit values are fine under the
LSE formulation, and the quadrature evaluator covers the exact surfaces in
one dimension.  The (1, 0) corner trains through the standard
reparameterized negative-ELBO path instead.  `trainable` is the one rule
for what training accepts; off the KL corner it also needs two samples:
with one, the three terms cancel exactly, to 0 with a zero gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rng
from .divergence import (DivergenceParams, DomainError, Region, classify_region, lse_rows,
                         sab_value)
from .optim import AdamConfig, AdamState, adam_step

_LOG_2PI = math.log(2.0 * math.pi)

DEFAULT_INIT_LOG_SIGMA = math.log(0.1)

KL_CORNER = (1.0, 0.0)  # the (alpha, beta) that trains through the negative ELBO
MIN_SAB_SAMPLES = 2  # at K = 1 the sAB estimate is identically 0


def trainable(params: DivergenceParams, n_samples: int = MIN_SAB_SAMPLES) -> bool:
    """Whether `train` accepts (alpha, beta) with n_samples MC samples: the
    KL corner, or a generic point (alpha, beta and alpha + beta all nonzero)
    with at least MIN_SAB_SAMPLES samples.  The default asks about the
    parameters alone."""
    if (params.alpha, params.beta) == KL_CORNER:
        return True
    return classify_region(params) is Region.GENERIC and n_samples >= MIN_SAB_SAMPLES


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


class SampleRows(NamedTuple):
    """What the estimators read of K samples theta_k = mu + sigma * eps_k."""

    a: np.ndarray              # K: log p(theta_k, X)
    b: np.ndarray              # K: log q(theta_k)
    da_dmu: np.ndarray         # K x d: G_k, the gradient of a_k
    da_dlog_sigma: np.ndarray  # K x d: G_k * sigma * eps_k


def _evaluate(mu: np.ndarray, log_sigma: np.ndarray, sigma: np.ndarray, eps: np.ndarray,
              model, data) -> SampleRows:
    """The sample rows of C stacked q rows (C x d, sigma = exp(log_sigma))
    under C x K x d noise, each field with a leading C axis, from one
    ``model.log_joint_and_grad`` call on the C x K samples.  log q(theta_k)
    is expressed through the noise: its quadratic term is eps^2 / 2
    exactly, so the parameter dependence is -sum(log sigma)."""
    c, k, d = eps.shape
    scaled = sigma[:, None, :] * eps
    a, g = model.log_joint_and_grad((mu[:, None, :] + scaled).reshape(-1, d), data)
    g = g.reshape(c, k, d)
    b = (-log_sigma.sum(axis=1) - 0.5 * d * _LOG_2PI)[:, None] - 0.5 * (eps**2).sum(axis=2)
    return SampleRows(a.reshape(c, k), b, g, g * scaled)


def sample_rows(q: MeanFieldGaussian, model, data, noise: np.ndarray) -> SampleRows:
    """The sample rows of one q under K x d noise: `_evaluate` of one q row."""
    if noise.ndim != 2 or noise.shape[1] != q.dim:
        raise ValueError(f"noise of shape {noise.shape} does not match q dim {q.dim}")
    if model.dim != q.dim:
        raise ValueError("model dim does not match q dim")
    rows = _evaluate(q.mu[None], q.log_sigma[None], q.sigma[None], noise[None], model, data)
    return SampleRows(*(f[0] for f in rows))


def _require_generic(params: DivergenceParams):
    if classify_region(params) is not Region.GENERIC:
        raise DomainError(
            f"MC estimator is undefined at exact limit parameters "
            f"(alpha={params.alpha}, beta={params.beta}); use near-limit values "
            f"or the quadrature evaluator for exact limits")


def _mc_terms(params: DivergenceParams, a: np.ndarray, b: np.ndarray):
    """The estimator value and its gradient weights (s1 - s3) / alpha."""
    alpha, beta, lam = params.alpha, params.beta, params.lam
    e = np.array([lam * a - b, (lam - 1.0) * b, (alpha - 1.0) * b + beta * a])
    t, s = lse_rows(e)
    t1, t2, t3 = t.tolist()
    log_k = math.log(a.size)
    return sab_value(alpha, beta, t2 - log_k, t1 - log_k, t3 - log_k), (s[0] - s[2]) / alpha


def mc_objective_with_grad(params: DivergenceParams, rows: SampleRows):
    """K-sample estimate of the divergence from q to the posterior, with its
    gradient, from the sample rows of q: (value, d/d mu, d/d log sigma).  A
    non-finite row gives a non-finite value."""
    _require_generic(params)
    value, w = _mc_terms(params, rows.a, rows.b)
    return value, w @ rows.da_dmu, w @ rows.da_dlog_sigma


def kl_elbo_with_grad(rows: SampleRows):
    """Reparameterized negative ELBO, the (alpha, beta) = (1, 0) path, with
    its gradient, from the sample rows of q as for `mc_objective_with_grad`."""
    value = float(np.mean(rows.b - rows.a))
    return value, -rows.da_dmu.mean(axis=0), -1.0 - rows.da_dlog_sigma.mean(axis=0)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

_MAX_BAD_STEPS = 10


@dataclass(frozen=True)
class TrainReport:
    alpha: float
    beta: float
    final: MeanFieldGaussian | None  # None if the last q is not a finite Gaussian
    trace: np.ndarray = field(repr=False)
    stream: int
    mc_config: MCConfig
    adam_config: AdamConfig
    init: MeanFieldGaussian  # q0, shared by every cell of a batch
    skipped_steps: int  # non-finite steps whose update was skipped
    diverged: str | None  # why the training failed, or None if it finished

    @property
    def seed(self) -> int:
        return self.mc_config.seed

    @property
    def used_kl_path(self) -> bool:
        return (self.alpha, self.beta) == KL_CORNER

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
            "init_mu": self.init.mu.tolist(),
            "init_log_sigma": self.init.log_sigma.tolist(),
            "final_mu": self.final.mu.tolist(),
            "final_log_sigma": self.final.log_sigma.tolist(),
            "trace": np.asarray(self.trace).tolist(),
        }


# Sample rows per batched model call: bounds the rows x width x N
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
    (1, 0) corner routes through the negative-ELBO path; whatever is not
    `trainable` is rejected up front.  A report that comes back
    `diverged` is raised as TrainingDiverged, also for a run that never
    sees a finite step, however few steps it has.  This is the one-cell
    case of `train_batch`.
    """
    if stream is None:
        stream = rng.compose_stream(rng.STREAM_TRAIN)
    (report,) = train_batch([params], q0, model, data, mc, opt, [stream])
    if report.diverged:
        raise TrainingDiverged(report.diverged, report)
    return report


def train_batch(cells: list[DivergenceParams], q0: MeanFieldGaussian, model, data,
                mc: MCConfig, opt: AdamConfig,
                streams: list[int]) -> list[TrainReport]:
    """Train C cells that share q0, model, data and configuration as one batch.

    Cell c draws its noise from its own (mc.seed, streams[c]) stream.  Each
    step evaluates the sample rows of all live cells in one model call (at
    most _BATCH_ROWS rows per call, one cell per call if K is larger), runs
    one estimator call per live cell on its rows, and takes one ADAM update
    over the cells whose value and gradient were finite; the C x steps mask
    `took` records it.  A cell whose last _MAX_BAD_STEPS steps were all
    untaken gives up and leaves the batch, keeping its q at divergence;
    `gave_up` holds the steps it ran, 0 for a cell still live.  After the
    last step each cell's TrainReport is built once from its first `ran`
    steps, with `diverged` set to the message `train` raises if the cell
    gave up, took none of at least one step, or ended at a q whose mu, log
    sigma or sigma is not finite (its `final` is None).  The reports equal C
    separate trainings bit for bit when a row's log joint does not depend
    on the other rows of its batch, as for both models.  A cell that is
    not `trainable` at mc.n_samples raises DomainError before any step.
    """
    if len(cells) != len(streams):
        raise ValueError("need one stream per cell")
    for params in cells:
        if not trainable(params, mc.n_samples):
            _require_generic(params)
            raise DomainError(
                f"sAB training needs at least {MIN_SAB_SAMPLES} MC samples, got "
                f"{mc.n_samples} (alpha={params.alpha}, beta={params.beta}); with one "
                f"sample the estimate is 0 and its gradient vanishes")
    kl_paths = [(params.alpha, params.beta) == KL_CORNER for params in cells]
    if model.dim != q0.dim:
        raise ValueError("model dim does not match q dim")

    n_cells, d, k = len(cells), q0.dim, mc.n_samples
    state = AdamState.init(np.tile(np.concatenate([q0.mu, q0.log_sigma]), (n_cells, 1)))
    grads = np.zeros_like(state.params)
    traces = np.empty((n_cells, opt.steps))
    took = np.zeros((n_cells, opt.steps), dtype=bool)  # took[c, t]: step t updated cell c
    gave_up = np.zeros(n_cells, dtype=int)  # the steps a cell ran before giving up, or 0
    noise_streams = [rng.NoiseStream(mc.seed, stream) for stream in streams]
    per_call = max(1, _BATCH_ROWS // k)
    live = np.arange(n_cells)  # the cells whose gave_up is 0
    for step in range(opt.steps):
        for start in range(0, live.size, per_call):
            batch = live[start:start + per_call]
            eps = np.array([noise_streams[c].block(step, k, d) for c in batch])
            rows = state.params[batch]  # fancy indexing copies
            with np.errstate(all="ignore"):
                evaluated = _evaluate(rows[:, :d], rows[:, d:], np.exp(rows[:, d:]), eps,
                                      model, data)
                for i, c in enumerate(batch.tolist()):
                    cell_rows = SampleRows(*(f[i] for f in evaluated))
                    if kl_paths[c]:
                        value, d_mu, d_ls = kl_elbo_with_grad(cell_rows)
                    else:
                        value, d_mu, d_ls = mc_objective_with_grad(cells[c], cell_rows)
                    traces[c, step] = value
                    grads[c, :d] = d_mu
                    grads[c, d:] = d_ls
        ok = took[live, step] = np.isfinite(traces[live, step]) & np.isfinite(grads[live]).all(1)
        if step + 1 >= _MAX_BAD_STEPS and not ok.all():  # the one place gave_up changes
            missed = live[~ok]
            streak = ~took[missed, step - _MAX_BAD_STEPS + 1:step + 1].any(axis=1)
            gave_up[missed[streak]] = step + 1
            live = np.flatnonzero(gave_up == 0)
        adam_step(state, grads, opt, took[:, step])

    with np.errstate(over="ignore"):  # sigma is inf past log sigma = log(max float)
        finite = np.isfinite(np.hstack([state.params, np.exp(state.params[:, d:])]))
    finite = finite.reshape(n_cells, 3, d).all(axis=2)  # mu, log sigma, sigma
    reports = []
    for c, params in enumerate(cells):
        ran = int(gave_up[c]) or opt.steps
        unbounded = [name for name, ok in zip(("mu", "log sigma", "sigma"), finite[c]) if not ok]
        why = (f"objective non-finite for {_MAX_BAD_STEPS} consecutive steps" if gave_up[c] else
               f"objective non-finite at all {opt.steps} steps"
               if opt.steps and not took[c].any() else
               f"q's {' and '.join(unbounded)} not finite after the last step"
               if unbounded else None)
        reports.append(TrainReport(
            alpha=params.alpha, beta=params.beta,
            final=None if unbounded else
            MeanFieldGaussian(state.params[c, :d], state.params[c, d:]),
            trace=traces[c, :ran].copy(), stream=streams[c], mc_config=mc, adam_config=opt,
            init=q0, skipped_steps=ran - int(took[c, :ran].sum()),
            diverged=None if why is None else
            f"{why} at (alpha={params.alpha}, beta={params.beta})"))
    return reports
