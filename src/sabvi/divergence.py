"""Scale-invariant alpha-beta (sAB) divergence on tabulated 1-D densities.

Densities live in log space on a uniform grid and all integrals are
quadrature sums against a normalized reference measure (trapezoid weights
rescaled to sum to one).  The normalized measure is what makes the limit
formulas below finite; by scale invariance it leaves the generic-region
value unchanged.

The two-parameter family is

    D[a,b](p, q) = log I(p^(a+b)) / (b (a+b))
                 + log I(q^(a+b)) / (a (a+b))
                 - log I(p^a q^b) / (a b)

for a, b, a+b all nonzero, where I(.) integrates against the reference
measure.  On the surfaces a = 0, b = 0, a + b = 0 and at the origin the
generic expression is an indeterminate form; `eval_sab` dispatches to the
analytic continuations, which the test suite pins down by comparing with
the generic formula evaluated arbitrarily close to each surface.

Every log-integral is evaluated with log-sum-exp stabilization.  Negative
exponents blow up wherever a density was clamped at the log floor; such
terms raise `EvaluationError` when clamped nodes dominate the stabilized
sum instead of silently returning floor-driven garbage.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

LOG_FLOOR = -700.0

DEFAULT_GRID_POINTS = 4001
DEFAULT_GRID_SPAN = 10.0  # half-width in units of the larger stddev

_LOG_2PI = math.log(2.0 * math.pi)


class EvaluationError(ArithmeticError):
    """A quadrature term could not be evaluated to a trustworthy value."""


class DomainError(ValueError):
    """Divergence parameter outside the domain of the requested formula."""


# ---------------------------------------------------------------------------
# parameters and regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceParams:
    """The (alpha, beta) pair steering robustness and mass covering."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("alpha and beta must be finite")

    @property
    def lam(self) -> float:
        """alpha + beta, recomputed on access (never stored separately)."""
        return self.alpha + self.beta

    @classmethod
    def from_lambda(cls, lam: float, beta: float) -> "DivergenceParams":
        return cls(alpha=lam - beta, beta=beta)


class Region(enum.Enum):
    GENERIC = "Generic"
    ALPHA_ZERO = "AlphaZero"
    BETA_ZERO = "BetaZero"
    SUM_ZERO = "SumZero"
    BOTH_ZERO = "BothZero"


def classify_region(params: DivergenceParams) -> Region:
    """Classify by exact comparison with zero; no epsilon snapping.

    Callers wanting a limit formula must pass exactly 0 — near-zero
    parameters are deliberately evaluated through the generic formula so
    continuity is observable.
    """
    a, b = params.alpha, params.beta
    if a == 0.0 and b == 0.0:
        return Region.BOTH_ZERO
    if a == 0.0:
        return Region.ALPHA_ZERO
    if b == 0.0:
        return Region.BETA_ZERO
    if a + b == 0.0:
        return Region.SUM_ZERO
    return Region.GENERIC


# ---------------------------------------------------------------------------
# grid densities and quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridDensity:
    """Possibly-unnormalized density tabulated in log space on a uniform grid.

    log values are clamped at ``LOG_FLOOR`` so exponentiation stays finite
    in double precision; clamped nodes are remembered by comparison with
    the floor when negative exponents are involved.
    """

    lo: float
    hi: float
    log_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        lv = np.asarray(self.log_values, dtype=float)
        if lv.ndim != 1 or lv.size < 2:
            raise ValueError("log_values must be a 1-D vector with n >= 2")
        if not self.hi > self.lo:
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi}]")
        if np.any(np.isnan(lv)) or np.any(lv == np.inf):
            raise ValueError("log_values must be finite (or -inf, floored)")
        lv = np.maximum(lv, LOG_FLOOR)
        lv.flags.writeable = False
        object.__setattr__(self, "log_values", lv)

    @property
    def n(self) -> int:
        return self.log_values.size

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def floored(self) -> np.ndarray:
        return self.log_values <= LOG_FLOOR

    def same_grid(self, other: "GridDensity") -> bool:
        return self.lo == other.lo and self.hi == other.hi and self.n == other.n

    def with_log_offset(self, log_c: float) -> "GridDensity":
        """Multiplicative rescaling c * density, applied in log space."""
        return GridDensity(self.lo, self.hi, self.log_values + log_c)

    @classmethod
    def from_callable(cls, log_pdf, lo: float, hi: float, n: int) -> "GridDensity":
        x = np.linspace(lo, hi, n)
        return cls(lo, hi, np.asarray(log_pdf(x), dtype=float))

    @classmethod
    def gaussian(cls, mu: float, sigma: float, lo: float, hi: float,
                 n: int = DEFAULT_GRID_POINTS) -> "GridDensity":
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return cls.from_callable(lambda x: gaussian_log_pdf(x, mu, sigma), lo, hi, n)


@dataclass(frozen=True)
class QuadratureMeasure:
    """Nonnegative quadrature weights; the default reference measure sums to 1."""

    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a finite nonnegative 1-D vector")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def log_weights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.where(self.weights > 0, np.log(self.weights), -np.inf)

    def scaled(self, c: float) -> "QuadratureMeasure":
        if c <= 0:
            raise ValueError("scale must be positive")
        return QuadratureMeasure(self.weights * c)

    @classmethod
    def trapezoid(cls, grid: GridDensity, normalized: bool = True) -> "QuadratureMeasure":
        w = np.full(grid.n, grid.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        if normalized:
            w /= w.sum()
        return cls(w)


def gaussian_log_pdf(x, mu: float, sigma: float):
    z = (np.asarray(x, dtype=float) - mu) / sigma
    return -0.5 * z * z - math.log(sigma) - 0.5 * _LOG_2PI


def gaussian_pair(mu1: float, s1: float, mu2: float, s2: float,
                  n: int = DEFAULT_GRID_POINTS,
                  span: float = DEFAULT_GRID_SPAN) -> tuple[GridDensity, GridDensity]:
    """Tabulate two Gaussians on the default shared grid bounding both."""
    smax = max(s1, s2)
    lo = min(mu1, mu2) - span * smax
    hi = max(mu1, mu2) + span * smax
    return (GridDensity.gaussian(mu1, s1, lo, hi, n),
            GridDensity.gaussian(mu2, s2, lo, hi, n))


def log_integral(log_f: np.ndarray, measure: QuadratureMeasure) -> float:
    """log of the integral of exp(log_f) against the measure, via LSE.

    Returns -inf when everything is at the representation floor (no
    finite mass to integrate).
    """
    log_f = np.asarray(log_f, dtype=float)
    if log_f.shape != measure.weights.shape:
        raise ValueError("log_f and measure weights must have matching length")
    expo = log_f + measure.log_weights
    m = np.max(expo)
    if m == -np.inf:
        return -np.inf
    return float(m + np.log(np.sum(np.exp(expo - m))))


# ---------------------------------------------------------------------------
# stabilized power integrals with floored-tail accounting
# ---------------------------------------------------------------------------

_FLOOR_DOMINANCE = 0.5  # weight share above which a clamped tail is fatal


def _power_lse(c_p: float, c_q: float, p: GridDensity, q: GridDensity,
               log_w: np.ndarray, term: str) -> tuple[float, np.ndarray]:
    """log I(p^c_p q^c_q) and the normalized weights w p^c_p q^c_q / I.

    One exponentiation serves both.  Raises EvaluationError when every
    node is at the floor, or when log-floor nodes under a negative
    exponent carry most of the stabilized sum.
    """
    expo = log_w
    if c_p != 0.0:
        expo = expo + c_p * p.log_values
    if c_q != 0.0:
        expo = expo + c_q * q.log_values
    m = np.max(expo)
    if m == -np.inf:
        raise EvaluationError(f"{term}: no mass to integrate (all nodes at the floor)")
    z = np.exp(expo - m)
    total = z.sum()
    if c_p < 0 or c_q < 0:
        explosive = ((c_p < 0) & p.floored) | ((c_q < 0) & q.floored)
        if z[explosive].sum() > _FLOOR_DOMINANCE * total:
            raise EvaluationError(
                f"{term}: stabilized sum dominated by log-floor nodes "
                f"(negative exponent on a clamped tail)")
    return float(m + np.log(total)), z / total


def _require_shared_grid(p: GridDensity, q: GridDensity):
    if not p.same_grid(q):
        raise ValueError("densities must be tabulated on the same grid")


# ---------------------------------------------------------------------------
# the sAB divergence over the whole parameter plane
# ---------------------------------------------------------------------------


def eval_sab(params: DivergenceParams, p: GridDensity, q: GridDensity,
             measure: QuadratureMeasure | None = None) -> float:
    """D[alpha,beta](p, q) on the shared grid, any region of the plane.

    The limit-region formulas are the analytic continuations of the
    generic expression under the normalized reference measure:

    * a + b = 0:   ( log I((p/q)^a) - a I(log p/q) ) / a^2
    * b = 0:       ( log I(q^a) - log I(p^a) ) / a^2
                   + weighted mean of log(p/q) under w p^a, divided by a
    * a = 0:       the b = 0 case with (p, a) and (q, b) exchanged
    * a = b = 0:   half the variance of log(p/q) under the reference
                   measure
    """
    _require_shared_grid(p, q)
    if measure is None:
        measure = QuadratureMeasure.trapezoid(p)
    log_w = measure.log_weights
    w = measure.weights
    a, b = params.alpha, params.beta
    lam = params.lam
    region = classify_region(params)

    if region is Region.GENERIC:
        t_p = _power_lse(lam, 0.0, p, q, log_w, "first-density power term")[0]
        t_q = _power_lse(0.0, lam, p, q, log_w, "second-density power term")[0]
        t_c = _power_lse(a, b, p, q, log_w, "cross term")[0]
        value = t_p / (b * lam) + t_q / (a * lam) - t_c / (a * b)
    elif region is Region.SUM_ZERO:
        d = p.log_values - q.log_values
        t = _power_lse(a, -a, p, q, log_w, "ratio power term")[0]
        value = (t - a * float(np.dot(w, d))) / (a * a)
    elif region is Region.BETA_ZERO:
        t_q = _power_lse(0.0, a, p, q, log_w, "second-density power term")[0]
        t_p, s = _power_lse(a, 0.0, p, q, log_w, "first-density power term")
        d = p.log_values - q.log_values
        value = (t_q - t_p) / (a * a) + float(np.dot(s, d)) / a
    elif region is Region.ALPHA_ZERO:
        t_p = _power_lse(b, 0.0, p, q, log_w, "first-density power term")[0]
        t_q, s = _power_lse(0.0, b, p, q, log_w, "second-density power term")
        d = q.log_values - p.log_values
        value = (t_p - t_q) / (b * b) + float(np.dot(s, d)) / b
    else:  # BOTH_ZERO
        d = p.log_values - q.log_values
        m1 = float(np.dot(w, d))
        m2 = float(np.dot(w, d * d))
        value = 0.5 * (m2 - m1 * m1)

    if not math.isfinite(value):
        raise EvaluationError(
            f"non-finite sAB value in region {region.value} at "
            f"(alpha={a}, beta={b})")
    return value


# ---------------------------------------------------------------------------
# named special-case divergences (independent quadrature implementations)
# ---------------------------------------------------------------------------
#
# These integrate against plain (unnormalized) trapezoid weights, i.e. the
# Lebesgue measure on the grid interval, and are deliberately not routed
# through eval_sab so the reduction identities are genuine cross-checks.


def _dx_log_weights(p: GridDensity) -> np.ndarray:
    return QuadratureMeasure.trapezoid(p, normalized=False).log_weights


def eval_kl(p: GridDensity, q: GridDensity) -> float:
    """KL(p || q) = integral of p log(p/q)."""
    _require_shared_grid(p, q)
    w = QuadratureMeasure.trapezoid(p, normalized=False).weights
    d = p.log_values - q.log_values
    return float(np.dot(w, np.exp(p.log_values) * d))


def eval_renyi(alpha: float, p: GridDensity, q: GridDensity) -> float:
    """Renyi divergence of order alpha: log integral of p^a q^(1-a) / (a-1)."""
    if alpha in (0.0, 1.0):
        raise DomainError("Renyi order must avoid {0, 1}")
    _require_shared_grid(p, q)
    t = _power_lse(alpha, 1.0 - alpha, p, q, _dx_log_weights(p), "Renyi cross term")[0]
    return t / (alpha - 1.0)


def eval_gamma(beta: float, p: GridDensity, q: GridDensity) -> float:
    """Gamma divergence of order beta (robust, scale invariant)."""
    if beta in (0.0, -1.0):
        raise DomainError("gamma order must avoid {0, -1}")
    _require_shared_grid(p, q)
    log_w = _dx_log_weights(p)
    t_p = _power_lse(beta + 1.0, 0.0, p, q, log_w, "gamma p-power term")[0]
    t_q = _power_lse(0.0, beta + 1.0, p, q, log_w, "gamma q-power term")[0]
    t_c = _power_lse(1.0, beta, p, q, log_w, "gamma cross term")[0]
    return t_p / (beta * (beta + 1.0)) + t_q / (beta + 1.0) - t_c / beta


def eval_hellinger(p: GridDensity, q: GridDensity) -> float:
    """Squared Hellinger-type distance 1 - integral of sqrt(p q)."""
    _require_shared_grid(p, q)
    t = _power_lse(0.5, 0.5, p, q, _dx_log_weights(p), "Hellinger affinity")[0]
    return 1.0 - math.exp(t)


def eval_chisq(p: GridDensity, q: GridDensity) -> float:
    """Pearson chi-square divergence: integral of p^2/q, minus one."""
    _require_shared_grid(p, q)
    t = _power_lse(2.0, -1.0, p, q, _dx_log_weights(p), "chi-square term")[0]
    return math.exp(t) - 1.0


def eval_log_euclidean(p: GridDensity, q: GridDensity) -> float:
    """Half the integral of (log p - log q)^2 over the grid interval."""
    _require_shared_grid(p, q)
    w = QuadratureMeasure.trapezoid(p, normalized=False).weights
    d = p.log_values - q.log_values
    return 0.5 * float(np.dot(w, d * d))


# ---------------------------------------------------------------------------
# closed-form Gaussian ground truth
# ---------------------------------------------------------------------------


def gaussian_power_log_integral(a: float, mu1: float, s1: float,
                                mu2: float, s2: float) -> float:
    """log of the integral of N(mu1,s1)^a N(mu2,s2)^(1-a) in closed form.

    Requires the combined precision a/s1^2 + (1-a)/s2^2 to be positive,
    i.e. m = a s2^2 + (1-a) s1^2 > 0.
    """
    if s1 <= 0 or s2 <= 0:
        raise DomainError("stddevs must be positive")
    m = a * s2 * s2 + (1.0 - a) * s1 * s1
    if m <= 0:
        raise DomainError(
            f"combined precision not positive for exponent a={a} "
            f"(a/s1^2 + (1-a)/s2^2 <= 0)")
    delta = mu1 - mu2
    return ((1.0 - a) * math.log(s1) + a * math.log(s2)
            - 0.5 * math.log(m) - a * (1.0 - a) * delta * delta / (2.0 * m))


def gaussian_kl(mu1: float, s1: float, mu2: float, s2: float) -> float:
    """KL(N(mu1,s1) || N(mu2,s2)) in closed form."""
    if s1 <= 0 or s2 <= 0:
        raise DomainError("stddevs must be positive")
    return (math.log(s2 / s1)
            + (s1 * s1 + (mu1 - mu2) ** 2) / (2.0 * s2 * s2) - 0.5)


def gaussian_renyi(alpha: float, mu1: float, s1: float, mu2: float, s2: float) -> float:
    if alpha in (0.0, 1.0):
        raise DomainError("Renyi order must avoid {0, 1}")
    return gaussian_power_log_integral(alpha, mu1, s1, mu2, s2) / (alpha - 1.0)


def gaussian_oracle(kind: str, mu1: float, s1: float, mu2: float, s2: float,
                    order: float | None = None) -> float:
    """Closed-form Gaussian values used as acceptance ground truth.

    kinds: "kl", "renyi" (needs order), "hellinger" (the (0.5, 0.5)
    family value -4 log of the affinity), "chisq" (the (2, -1) family
    value, half the log of the p^2/q integral) and "power_integral"
    (needs order; returns the integral itself, not its log).
    """
    if kind == "kl":
        return gaussian_kl(mu1, s1, mu2, s2)
    if kind == "renyi":
        if order is None:
            raise DomainError("renyi oracle needs an order")
        return gaussian_renyi(order, mu1, s1, mu2, s2)
    if kind == "hellinger":
        return -4.0 * gaussian_power_log_integral(0.5, mu1, s1, mu2, s2)
    if kind == "chisq":
        return 0.5 * gaussian_power_log_integral(2.0, mu1, s1, mu2, s2)
    if kind == "power_integral":
        if order is None:
            raise DomainError("power_integral oracle needs an order")
        return math.exp(gaussian_power_log_integral(order, mu1, s1, mu2, s2))
    raise DomainError(f"unknown oracle kind {kind!r}")
