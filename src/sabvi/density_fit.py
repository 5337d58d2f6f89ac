"""Fit a single Gaussian to a fixed 1-D target by divergence descent.

The target is a `GridDensity`, tabulated once on a wide grid; the Gaussian
is optimized in (mu, log sigma) with ADAM using closed-form gradients of the
quadrature objective.  Writing q for the Gaussian and g = d log q / d phi, each
gradient is a difference of expectations of g under power-tilted versions
of the grid measure, which keeps everything in softmax form and immune to
overflow:

    KL(q, p):      sum of w q (log q - log p + 1) g
    Renyi_a(q, p): a/(a-1) * E[g] under weights ~ w q^a p^b, b = 1 - a
    sAB(q, p):     ( E[g] under w q^(a+b)  - E[g] under w q^a p^b ) / b
    gamma_b(q, p): the sAB point (1, b)

Every objective but KL is thus an sAB point (a, b), and `classify_region`
refuses the ones on a limit surface.  These weights are the softmaxes of
the power terms the divergence value is made of, so a fit step is one
fused evaluation (`FitEvaluator`) that exponentiates each term once for
both.  `divergence_value` goes through the divergence module's `eval_*`
functions instead and stays the independent reference: its central
differences, `gradcheck.finite_diff_gradient`, are the test oracle for
all four gradients, and the tests check the fused value against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import (
    DEFAULT_GRID_POINTS,
    DEFAULT_GRID_SPAN,
    LOG_FLOOR,
    DivergenceParams,
    DomainError,
    EvaluationError,
    GridDensity,
    Region,
    classify_region,
    eval_gamma,
    eval_kl,
    eval_renyi,
    eval_sab,
    finite_sab_value,
    gaussian_log_pdf,
    power_lse_rows,
    sab_value,
    _power_lse,
)
from .optim import AdamConfig, AdamState, adam_step

GRADIENT_TOL = 1e-6  # sup-norm convergence threshold for fit_gaussian
_LOG_2PI = math.log(2.0 * math.pi)
_LOG_2 = math.log(2.0)


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


# Chebyshev coefficients of erfc on [0, inf) in t = 2 / (2 + z): Press et al.,
# Numerical Recipes, 3rd ed., section 6.2.2 (`erfccheb`)
_ERFC_CHEB = (
    -1.3026537197817094, 6.4196979235649026e-1, 1.9476473204185836e-2,
    -9.561514786808631e-3, -9.46595344482036e-4, 3.66839497852761e-4,
    4.2523324806907e-5, -2.0278578112534e-5, -1.624290004647e-6,
    1.303655835580e-6, 1.5626441722e-8, -8.5238095915e-8, 6.529054439e-9,
    5.059343495e-9, -9.91364156e-10, -2.27365122e-10, 9.6467911e-11,
    2.394038e-12, -6.886027e-12, 8.94487e-13, 3.13092e-13, -1.12708e-13,
    3.81e-16, 7.106e-15, -1.523e-15, -9.4e-17, 1.21e-16, -2.8e-17)


def _normal_log_cdf(a):
    """log Phi(a) of the standard normal, elementwise.

    With z = |a| / sqrt(2) and t = 2 / (2 + z), Phi(-|a|) = erfc(z) / 2 =
    t exp(-z^2 + (c0 + ty d) / 2 - dd) / 2, where ty = 4t - 2 and d, dd end
    Clenshaw's recurrence over the other 27 coefficients.  Its log is summed
    term by term, so it never underflows, and Phi(a) = 1 - Phi(-a) for
    a >= 0 goes through log1p.  Within 1e-15 of scipy.special.log_ndtr,
    relative for a < 0 and absolute above; -inf, inf and nan map to -inf,
    0 and nan.
    """
    a = np.asarray(a, dtype=float)
    z = np.abs(a) * math.sqrt(0.5)
    ty = 8.0 / (2.0 + z) - 2.0
    d = dd = 0.0
    for c in _ERFC_CHEB[:0:-1]:
        d, dd = ty * d - dd + c, d
    with np.errstate(over="ignore"):  # a^2 past the float range: log Phi(-|a|) is -inf
        log_lower = (0.5 * (_ERFC_CHEB[0] + ty * d) - dd - 0.5 * a * a
                     - np.log1p(0.5 * z) - _LOG_2)
    return np.where(a < 0, log_lower, np.log1p(-np.exp(log_lower)))


def skew_normal_log_pdf(x, location: float, scale: float, shape: float):
    """log of the skew-normal density 2/s phi(z) Phi(shape z), z = (x-loc)/s.

    log Phi is `_normal_log_cdf`, a Chebyshev log-erfc that stays accurate
    (to 1e-15 relative) for arbitrarily negative arguments.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    z = (np.asarray(x, dtype=float) - location) / scale
    return (_LOG_2 - math.log(scale)
            - 0.5 * z * z - 0.5 * _LOG_2PI + _normal_log_cdf(shape * z))


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

    def grid_range(self, span: float = DEFAULT_GRID_SPAN) -> tuple[float, float]:
        smax = max(c.scale for c in self.components)
        lo = min(c.location for c in self.components) - span * smax
        hi = max(c.location for c in self.components) + span * smax
        return lo, hi

    def min_scale(self) -> float:
        return min(c.scale for c in self.components)

    def tabulate(self, n: int = DEFAULT_GRID_POINTS,
                 span: float = DEFAULT_GRID_SPAN) -> GridDensity:
        lo, hi = self.grid_range(span)
        return GridDensity.from_callable(self.log_pdf, lo, hi, n)


def density_moments(density: GridDensity) -> tuple[float, float]:
    """Quadrature mean and stddev of a tabulated (normalized) density."""
    x = density.x
    pdf = np.exp(density.log_values)
    w = density.weights
    mass = float(np.dot(w, pdf))
    mean = float(np.dot(w, pdf * x)) / mass
    var = float(np.dot(w, pdf * (x - mean) ** 2)) / mass
    return mean, math.sqrt(var)


def moment_matched_init(target: GridDensity) -> Gaussian1D:
    """The Gaussian of the target's quadrature mean and stddev, which must be
    finite and positive: a target too narrow for its grid is an EvaluationError."""
    with np.errstate(all="ignore"):
        mean, std = density_moments(target)
    if not (math.isfinite(mean) and 0.0 < std < math.inf):
        raise EvaluationError(f"the target's quadrature mean {mean!r} and stddev {std!r} give "
                              f"no Gaussian start: the stddev must be positive and finite")
    return Gaussian1D(mean, math.log(std))


def unresolved(grid: GridDensity, mu: float, log_sigma: float) -> str | None:
    """Why the grid cannot resolve the Gaussian (mu, exp(log_sigma)), or None
    if it can: mu off the grid, or sigma below its spacing (the rule
    `density_spec.tabulate` applies to targets) or above its width, with
    sigma compared in log space."""
    if not grid.lo <= mu <= grid.hi:
        return f"mu {mu!r} lies outside the grid [{grid.lo!r}, {grid.hi!r}]"
    spacing, width = grid.spacing, grid.hi - grid.lo
    if spacing > 0 and log_sigma < math.log(spacing):  # a subnormal width's spacing can be 0
        return (f"sigma exp({log_sigma!r}) is below the grid's spacing {spacing:.6g}, "
                f"which cannot resolve it")
    if log_sigma > math.log(width):
        return f"sigma exp({log_sigma!r}) exceeds the grid's width {width:.6g}"
    return None


# ---------------------------------------------------------------------------
# objectives and gradients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitObjective:
    """Which divergence the fit minimizes.  Every kind but KL is a point
    (alpha, beta) of the sAB plane, renyi(a) at (a, 1 - a) and gamma(b) at
    (1, b), and `classify_region` refuses one on a limit surface."""

    kind: str  # "kl" | "renyi" | "gamma" | "sab"
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("kl", "renyi", "gamma", "sab"):
            raise ValueError(f"unknown fit objective kind {self.kind!r}")
        if self.kind != "kl":
            region = classify_region(DivergenceParams(self.alpha, self.beta))
            if region is not Region.GENERIC:
                raise DomainError(f"fit objective {self.label()} = sAB({self.alpha}, "
                                  f"{self.beta}) lies on the limit surface {region.value}; "
                                  f"a fit needs alpha, beta and alpha + beta nonzero")

    @classmethod
    def kl(cls):
        return cls("kl")

    @classmethod
    def renyi(cls, alpha: float):
        return cls("renyi", alpha, 1.0 - alpha)

    @classmethod
    def gamma(cls, beta: float):
        return cls("gamma", 1.0, beta)

    @classmethod
    def sab(cls, alpha: float, beta: float):
        return cls("sab", alpha, beta)

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


def _dlogq_sum(m: np.ndarray, mass: float, sigma: float) -> np.ndarray:
    """The grid sum of weights times d log q / d (mu, log sigma), which is
    (z / sigma, z^2 - 1), from the weights' sums m against (z, z^2) and
    their total mass."""
    return np.array([m[0] / sigma, m[1] - mass])


def _union(m1: np.ndarray | None, m2: np.ndarray | None) -> np.ndarray | None:
    """The union of two node masks, where None marks no nodes."""
    if m1 is None or m2 is None:
        return m2 if m1 is None else m1
    return m1 | m2


class FitEvaluator:
    """Fused value and gradient of one objective against one fixed target.

    Built once per fit: keeps the grid, the target's log values and the
    quadrature weights and, for the Renyi and sAB branches, the rows that
    q's powers are added to (log weights plus the target's power b lp in
    the cross term, where Renyi's b is 1 - a), the target's floored nodes
    where that power is negative, and the target-only sAB power term
    log I(p^(a+b)) or the error it raises, which each call raises after
    checking q's own power term, in `eval_sab`'s order.  Gamma fits take
    the sAB branch at (1, b) on the normalized measure; the sAB value does
    not depend on the measure's scale.  Each call computes z = (x - mu) /
    sigma once, derives log q (floored as `GridDensity` floors it) and
    d log q / d phi from z and z^2, and reduces the q-dependent power terms
    with one `lse_rows` call: each term's log integral goes into the value
    and its softmax weights into the gradient.  Values and floored-tail
    checks are those of the `eval_*` functions behind `divergence_value`.
    """

    def __init__(self, objective: FitObjective, p: GridDensity):
        self.objective = objective
        kind, a, b = objective.kind, objective.alpha, objective.beta
        self.lp = p.log_values
        self.x = p.x
        sab = kind not in ("kl", "renyi")
        self.w = p.reference_weights if sab else p.weights
        self.target_error = None
        if kind == "kl":
            return
        log_w = np.log(self.w)
        cross = log_w + b * self.lp
        cross_floored = p.floored if b < 0 else None
        if sab:  # rows q^(a+b) and q^a p^b
            self.q_powers, self.target_rows = (a + b, a), np.stack((log_w, cross))
            self.terms = ("first-density power term", "cross term")
            self.target_floored = (None, cross_floored)
            # q enters the target-only term with exponent 0, so p fills both slots
            try:
                self.t_target = _power_lse(0.0, a + b, self.lp, self.lp, log_w,
                                           "second-density power term")[0]
            except EvaluationError as exc:
                self.target_error = str(exc)
        else:
            self.q_powers, self.target_rows = (a,), cross[None]
            self.terms = ("Renyi cross term",)
            self.target_floored = (cross_floored,)

    def value_and_grad(self, mu: float, log_sigma: float) -> tuple[float, np.ndarray]:
        """(divergence_value, analytic_gradient) at (mu, log sigma), in one pass."""
        kind, a, b = self.objective.kind, self.objective.alpha, self.objective.beta
        sigma = math.exp(log_sigma)
        z = (self.x - mu) / sigma
        zs = np.array((z, z * z))
        lq = np.maximum(-0.5 * zs[1] - (log_sigma + 0.5 * _LOG_2PI), LOG_FLOOR)

        if kind == "kl":
            e = np.exp(lq)
            d = lq - self.lp
            v = self.w * (e * (d + 1.0))
            return float(np.dot(self.w, e * d)), _dlogq_sum(zs @ v, v.sum(), sigma)
        e = np.multiply.outer(self.q_powers, lq)
        e += self.target_rows
        floored = lq <= LOG_FLOOR if min(self.q_powers) < 0 else None
        explosive = [_union(floored if c < 0 else None, target)
                     for c, target in zip(self.q_powers, self.target_floored)]
        if self.target_error is not None:  # eval_sab checks q's own term first
            power_lse_rows(e[:1], self.terms[:1], explosive[:1])
            raise EvaluationError(self.target_error)
        t, s = power_lse_rows(e, self.terms, explosive)
        m = zs @ s.T  # each softmax row has mass 1
        if kind == "renyi":
            return float(t[0]) / (a - 1.0), (a / (a - 1.0)) * _dlogq_sum(m[:, 0], 1.0, sigma)
        value = sab_value(a, b, float(t[0]), self.t_target, float(t[1]))
        return (finite_sab_value(value, Region.GENERIC, a, b),
                _dlogq_sum(m[:, 0] - m[:, 1], 0.0, sigma) / b)


def analytic_gradient(objective: FitObjective, q: Gaussian1D,
                      p: GridDensity) -> np.ndarray:
    """(d/d mu, d/d log sigma) of divergence_value at q, by quadrature.

    A view of `FitEvaluator.value_and_grad`, the evaluation fits use.
    """
    return FitEvaluator(objective, p).value_and_grad(q.mu, q.log_sigma)[1]


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


def fit_gaussian(objective: FitObjective, target: GridDensity,
                 init: Gaussian1D | None = None, opt: AdamConfig | None = None,
                 max_iters: int = 5000) -> FitResult:
    """Minimize the objective over (mu, log sigma) with ADAM against the
    tabulated target, from init (by default `moment_matched_init`).

    Converges when the gradient sup-norm drops below GRADIENT_TOL.  An
    evaluation error mid-run aborts and re-raises with the partial result
    attached as ``exc.partial_result``.  An iterate the target's grid cannot
    resolve (`unresolved`), the start included, and one that leaves the
    float range (a floating-point overflow, division by zero or invalid
    operation in a step) end the fit the same way, as an EvaluationError.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if init is None:
        init = moment_matched_init(target)
    if opt is None:
        opt = AdamConfig()

    evaluator = FitEvaluator(objective, target)
    state = AdamState.init(np.array([init.mu, init.log_sigma]))
    trace = []
    converged = False
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for _ in range(max_iters):
            mu, log_sigma = state.params[0]
            try:
                if (reason := unresolved(target, float(mu), float(log_sigma))) is not None:
                    raise EvaluationError(f"the fit's iterate {len(trace)}: {reason}")
                value, grad = evaluator.value_and_grad(mu, log_sigma)
                trace.append(value)
                if np.abs(grad).max() < GRADIENT_TOL:
                    converged = True
                    break
                adam_step(state, grad, opt)
            except (EvaluationError, FloatingPointError, OverflowError) as exc:
                error = exc if isinstance(exc, EvaluationError) else EvaluationError(
                    f"the fit left the float range at mu = {float(mu)!r}, "
                    f"log sigma = {float(log_sigma)!r} ({exc})")
                if trace:
                    error.partial_result = FitResult(Gaussian1D(mu, log_sigma),
                                                     np.array(trace), False, len(trace))
                raise error
    return FitResult(final=Gaussian1D(mu, log_sigma), divergence_trace=np.array(trace),
                     converged=converged, iterations=len(trace))
