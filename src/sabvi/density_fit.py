"""Fit a single Gaussian to a fixed 1-D target by divergence descent.

The target is tabulated once on a wide grid; the Gaussian is optimized in
(mu, log sigma) with ADAM using closed-form gradients of the quadrature
objective.  Writing q for the Gaussian and g = d log q / d phi, each
gradient is a difference of expectations of g under power-tilted versions
of the grid measure, which keeps everything in softmax form and immune to
overflow:

    KL(q, p):      sum of w q (log q - log p + 1) g
    Renyi_a(q, p): a/(a-1) * E[g] under weights ~ w q^a p^(1-a)
    sAB(q, p):     ( E[g] under w q^(a+b)  - E[g] under w q^a p^b ) / b
    gamma_b(q, p): the sAB line at a = 1

These weights are the softmaxes of the power terms the divergence value
is made of, so a fit step is one fused evaluation (`FitEvaluator`) that
exponentiates each term once for both.  `divergence_value` goes through
the divergence module's `eval_*` functions instead and stays the
independent reference: central finite differences of it are the test
oracle for all four gradients, and the tests check the fused value
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import log_ndtr

from .divergence import (
    DEFAULT_GRID_POINTS,
    LOG_FLOOR,
    DivergenceParams,
    DomainError,
    EvaluationError,
    GridDensity,
    QuadratureMeasure,
    Region,
    classify_region,
    eval_gamma,
    eval_kl,
    eval_renyi,
    eval_sab,
    gaussian_log_pdf,
    _power_lse,
)
from .optim import AdamConfig, AdamState, adam_step

GRADIENT_TOL = 1e-6  # sup-norm convergence threshold for fit_gaussian
_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian1D:
    """The fitted family: a single Gaussian parameterized by (mu, log sigma)."""

    mu: float
    log_sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.log_sigma)):
            raise ValueError("mu and log_sigma must be finite")

    @property
    def sigma(self) -> float:
        return math.exp(self.log_sigma)

    def log_pdf(self, x):
        return gaussian_log_pdf(x, self.mu, self.sigma)

    def tabulate(self, grid: GridDensity) -> GridDensity:
        return GridDensity(grid.lo, grid.hi, self.log_pdf(grid.x))


def skew_normal_log_pdf(x, location: float, scale: float, shape: float):
    """log of the skew-normal density 2/s phi(z) Phi(shape z), z = (x-loc)/s.

    The normal log-cdf goes through log_ndtr, which stays accurate for
    arbitrarily negative arguments.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    z = (np.asarray(x, dtype=float) - location) / scale
    return (math.log(2.0) - math.log(scale)
            - 0.5 * z * z - 0.5 * _LOG_2PI + log_ndtr(shape * z))


@dataclass(frozen=True)
class SkewComponent:
    weight: float
    location: float
    scale: float
    shape: float

    def __post_init__(self):
        if not 0.0 < self.weight <= 1.0:
            raise ValueError("component weight must be in (0, 1]")
        for name in ("location", "scale", "shape"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"component {name} must be finite, got {getattr(self, name)}")
        if self.scale <= 0:
            raise ValueError("component scale must be positive")


@dataclass(frozen=True)
class SkewMixtureTarget:
    """Mixture of skew-normal components, the fitting target."""

    components: tuple[SkewComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("target needs at least one component")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"component weights must sum to 1, got {total}")

    @classmethod
    def default(cls) -> "SkewMixtureTarget":
        # Tall narrow mode next to a short wide one; the stock target for
        # the robustness / mass-covering demonstrations.
        return cls((SkewComponent(0.5, -1.0, 0.6, 5.0),
                    SkewComponent(0.5, 1.5, 2.2, -4.0)))

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        comps = np.stack([math.log(c.weight) + skew_normal_log_pdf(x, c.location, c.scale, c.shape)
                          for c in self.components])
        m = comps.max(axis=0)
        return m + np.log(np.sum(np.exp(comps - m), axis=0))

    def grid_range(self, span: float = 10.0) -> tuple[float, float]:
        smax = max(c.scale for c in self.components)
        lo = min(c.location for c in self.components) - span * smax
        hi = max(c.location for c in self.components) + span * smax
        return lo, hi

    def tabulate(self, n: int = DEFAULT_GRID_POINTS, span: float = 10.0) -> GridDensity:
        lo, hi = self.grid_range(span)
        return GridDensity.from_callable(self.log_pdf, lo, hi, n)


def density_moments(density: GridDensity) -> tuple[float, float]:
    """Quadrature mean and stddev of a tabulated (normalized) density."""
    x = density.x
    pdf = np.exp(density.log_values)
    w = QuadratureMeasure.trapezoid(density, normalized=False).weights
    mass = float(np.dot(w, pdf))
    mean = float(np.dot(w, pdf * x)) / mass
    var = float(np.dot(w, pdf * (x - mean) ** 2)) / mass
    return mean, math.sqrt(var)


def moment_matched_init(target: GridDensity) -> Gaussian1D:
    mean, std = density_moments(target)
    return Gaussian1D(mean, math.log(std))


# ---------------------------------------------------------------------------
# objectives and gradients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitObjective:
    """Which divergence the fit minimizes, with its order parameters."""

    kind: str  # "kl" | "renyi" | "gamma" | "sab"
    alpha: float | None = None  # gamma(b) is the sAB point (1, b), so alpha = 1
    beta: float | None = None

    def __post_init__(self):
        if self.kind == "sab":
            if classify_region(DivergenceParams(self.alpha, self.beta)) is not Region.GENERIC:
                raise DomainError(
                    "sab fit objective needs generic-region parameters; use the "
                    "dedicated kl/renyi/gamma objectives on the limit surfaces")
        elif self.kind == "renyi":
            if not math.isfinite(self.alpha) or self.alpha in (0.0, 1.0):
                raise DomainError(f"Renyi order must be finite and avoid {{0, 1}}, got {self.alpha}")
        elif self.kind == "gamma":
            if not math.isfinite(self.beta) or self.beta in (0.0, -1.0):
                raise DomainError(f"gamma order must be finite and avoid {{0, -1}}, got {self.beta}")
            object.__setattr__(self, "alpha", 1.0)
        elif self.kind != "kl":
            raise ValueError(f"unknown fit objective kind {self.kind!r}")

    @classmethod
    def kl(cls):
        return cls("kl")

    @classmethod
    def renyi(cls, alpha: float):
        return cls("renyi", alpha=alpha)

    @classmethod
    def gamma(cls, beta: float):
        return cls("gamma", beta=beta)

    @classmethod
    def sab(cls, alpha: float, beta: float):
        return cls("sab", alpha=alpha, beta=beta)

    def label(self) -> str:
        if self.kind == "kl":
            return "kl"
        if self.kind == "renyi":
            return f"renyi({self.alpha})"
        if self.kind == "gamma":
            return f"gamma({self.beta})"
        return f"sab({self.alpha},{self.beta})"


def divergence_value(objective: FitObjective, q: Gaussian1D, p: GridDensity) -> float:
    """The minimized quantity: divergence from the Gaussian to the target.

    Computed by the `eval_*` functions, independently of `FitEvaluator`.
    """
    qd = q.tabulate(p)
    if objective.kind == "kl":
        return eval_kl(qd, p)
    if objective.kind == "renyi":
        return eval_renyi(objective.alpha, qd, p)
    if objective.kind == "gamma":
        return eval_gamma(objective.beta, qd, p)
    return eval_sab(DivergenceParams(objective.alpha, objective.beta), qd, p)


def _dlogq_dphi(q: Gaussian1D, x: np.ndarray) -> np.ndarray:
    """Rows: d log q / d mu and d log q / d log sigma on the grid."""
    s2 = q.sigma ** 2
    z2 = (x - q.mu) ** 2 / s2
    return np.stack(((x - q.mu) / s2, z2 - 1.0))


class FitEvaluator:
    """Fused value and gradient of one objective against one fixed target.

    Built once per fit: keeps the grid, the target's log values, the
    quadrature log weights and, for the sAB branch, the target-only power
    term log I(p^(a+b)).  Gamma fits take that branch at (1, b) on the
    normalized measure; the sAB value does not depend on the measure's
    scale.  Each call tabulates q once, floored as `GridDensity` floors
    it, and exponentiates each q-dependent power term once; the term's log
    integral goes into the value and its softmax weights into the
    gradient.  Values and floored-tail checks are those of the `eval_*`
    functions behind `divergence_value`.
    """

    def __init__(self, objective: FitObjective, p: GridDensity):
        self.objective = objective
        self.lp = p.log_values
        self.x = p.x
        sab = objective.kind not in ("kl", "renyi")
        measure = QuadratureMeasure.trapezoid(p, normalized=sab)
        self.w = measure.weights
        self.log_w = measure.log_weights
        # q enters the target-only term with exponent 0, so p fills both slots
        if sab:
            self.t_target = _power_lse(0.0, objective.alpha + objective.beta, self.lp,
                                       self.lp, self.log_w, "second-density power term")[0]

    def value_and_grad(self, q: Gaussian1D) -> tuple[float, np.ndarray]:
        """(divergence_value, analytic_gradient) at q, in one pass."""
        kind, a, b = self.objective.kind, self.objective.alpha, self.objective.beta
        lp, log_w = self.lp, self.log_w
        lq = np.maximum(q.log_pdf(self.x), LOG_FLOOR)
        g = _dlogq_dphi(q, self.x)

        if kind == "kl":
            e = np.exp(lq)
            d = lq - lp
            return float(np.dot(self.w, e * d)), g @ (self.w * (e * (d + 1.0)))
        if kind == "renyi":
            t, s = _power_lse(a, 1.0 - a, lq, lp, log_w, "Renyi cross term")
            return t / (a - 1.0), (a / (a - 1.0)) * (g @ s)
        lam = a + b
        t_q, s_q = _power_lse(lam, 0.0, lq, lp, log_w, "first-density power term")
        t_c, s_c = _power_lse(a, b, lq, lp, log_w, "cross term")
        value = t_q / (b * lam) + self.t_target / (a * lam) - t_c / (a * b)
        if not math.isfinite(value):
            raise EvaluationError(
                f"non-finite sAB value in region {Region.GENERIC.value} at "
                f"(alpha={a}, beta={b})")
        return value, (g @ s_q - g @ s_c) / b


def analytic_gradient(objective: FitObjective, q: Gaussian1D,
                      p: GridDensity) -> np.ndarray:
    """(d/d mu, d/d log sigma) of divergence_value at q, by quadrature.

    A view of `FitEvaluator.value_and_grad`, the evaluation fits use.
    """
    return FitEvaluator(objective, p).value_and_grad(q)[1]


def finite_diff_gradient(objective: FitObjective, q: Gaussian1D, p: GridDensity,
                         h: float = 1e-5) -> np.ndarray:
    """Central-difference oracle for analytic_gradient."""
    if h <= 0:
        raise ValueError("h must be positive")
    d_mu = (divergence_value(objective, replace(q, mu=q.mu + h), p)
            - divergence_value(objective, replace(q, mu=q.mu - h), p)) / (2 * h)
    d_ls = (divergence_value(objective, replace(q, log_sigma=q.log_sigma + h), p)
            - divergence_value(objective, replace(q, log_sigma=q.log_sigma - h), p)) / (2 * h)
    return np.array([d_mu, d_ls])


# ---------------------------------------------------------------------------
# the fitting loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    final: Gaussian1D
    divergence_trace: np.ndarray = field(repr=False)
    converged: bool
    iterations: int

    def __post_init__(self):
        trace = np.asarray(self.divergence_trace, dtype=float)
        if trace.size == 0:
            raise ValueError("trace must be non-empty")
        if not np.all(np.isfinite(trace)):
            raise ValueError("trace must be finite")
        trace.flags.writeable = False
        object.__setattr__(self, "divergence_trace", trace)

    def to_dict(self) -> dict:
        return {"mu": self.final.mu, "log_sigma": self.final.log_sigma,
                "sigma": self.final.sigma, "converged": self.converged,
                "iterations": self.iterations,
                "final_divergence": float(self.divergence_trace[-1])}


def fit_gaussian(objective: FitObjective, target, init: Gaussian1D | None = None,
                 opt: AdamConfig | None = None, max_iters: int = 5000) -> FitResult:
    """Minimize the objective over (mu, log sigma) with ADAM.

    `target` is a SkewMixtureTarget (put on its default grid) or a GridDensity.
    Converges when the gradient sup-norm drops below GRADIENT_TOL.  An
    evaluation error mid-run aborts and re-raises with the partial result
    attached as ``exc.partial_result``.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    p = target.tabulate() if isinstance(target, SkewMixtureTarget) else target
    if init is None:
        init = moment_matched_init(p)
    if opt is None:
        opt = AdamConfig()

    evaluator = FitEvaluator(objective, p)
    state = AdamState.init(np.array([init.mu, init.log_sigma]))
    trace = []
    q = init
    converged = False
    iterations = 0
    for _ in range(max_iters):
        q = Gaussian1D(*state.params[0])
        try:
            value, grad = evaluator.value_and_grad(q)
        except EvaluationError as exc:
            if trace:
                exc.partial_result = FitResult(q, np.array(trace), False, iterations)
            raise
        trace.append(value)
        iterations += 1
        if np.max(np.abs(grad)) < GRADIENT_TOL:
            converged = True
            break
        adam_step(state, grad, opt)
    return FitResult(final=q, divergence_trace=np.array(trace),
                     converged=converged, iterations=iterations)
