"""Scale-invariant alpha-beta (sAB) divergence on tabulated 1-D densities.

Densities live in log space on a uniform grid, and all sAB integrals are
quadrature sums against a `GridDensity`'s ``reference_weights``: its
trapezoid ``weights`` rescaled to sum to one.  The normalized measure is
what makes the limit formulas below finite; by scale invariance it leaves
the generic-region value unchanged.

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

Dead nodes: after the row maximum is subtracted, a node whose exponent is
below log of the smallest normal double (about -708.40) gets weight
exactly 0 and is never passed to `exp`.  `exp` would return 0 or a
subnormal there, both far below the rounding of a sum that the maximum
node alone makes at least 1, so the log integral is unchanged bit for
bit; only such subnormal softmax weights become 0.  On the grid, tails
of narrow or high-power terms are hundreds of nats down, and `exp` is
many times slower on them than on normal inputs.

The Gaussian ground truth is one closed form, `gaussian_power_log_integral`;
`gaussian_oracle` weights it into the KL and Renyi values, and the tests
weight it into other sAB points, such as (0.5, 0.5) and (2, -1).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
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

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid weights, the Lebesgue measure on [lo, hi]; made per access."""
        w = np.full(self.n, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @property
    def reference_weights(self) -> np.ndarray:
        """The trapezoid weights divided by their sum: the sAB reference measure."""
        w = self.weights
        w /= w.sum()
        return w

    def same_grid(self, other: "GridDensity") -> bool:
        return self.lo == other.lo and self.hi == other.hi and self.n == other.n

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


# ---------------------------------------------------------------------------
# stabilized power integrals with floored-tail accounting
# ---------------------------------------------------------------------------

_FLOOR_DOMINANCE = 0.5  # weight share above which a clamped tail is fatal
_LOG_TINY = math.log(np.finfo(float).tiny)  # below this, exp is subnormal or 0


def lse_rows(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp of each row of e and the rows' softmax weights, with one
    max, exp and sum per row, in place (e holds the softmax on return): the
    reduction behind every power integral, on the grid and in `vi`.

    Dead nodes, more than -log(tiny) (about 708.40 nats) below their row's
    maximum, get weight exactly 0 without going through `exp`, which is
    slow on them; the maximum contributes 1 to each sum, so the log-sum-exp
    is that of a plain exp.  A NaN stays NaN."""
    m = e.max(axis=-1, keepdims=True)
    e -= m
    dead = e < _LOG_TINY
    np.exp(e, out=e, where=~dead)
    e[dead] = 0.0
    total = e.sum(axis=-1, keepdims=True)
    e /= total
    return (m + np.log(total))[..., 0], e


def sab_value(alpha: float, beta: float, t_p: float, t_q: float, t_c: float) -> float:
    """The generic sAB value from its three log power integrals:
    t_p = log I(p^(a+b)), t_q = log I(q^(a+b)) and t_c = log I(p^a q^b)."""
    lam = alpha + beta
    return t_p / (beta * lam) + t_q / (alpha * lam) - t_c / (alpha * beta)


def finite_sab_value(value: float, region: Region, alpha: float, beta: float) -> float:
    """value, or an EvaluationError if it is not finite."""
    if math.isfinite(value):
        return value
    raise EvaluationError(f"non-finite sAB value in region {region.value} at "
                          f"(alpha={alpha}, beta={beta})")


def power_lse_rows(e: np.ndarray, terms: Sequence[str],
                   explosive: Sequence[np.ndarray | None]) -> tuple[np.ndarray, np.ndarray]:
    """`lse_rows` of stacked power-term exponent rows, one term name each.

    explosive[i] marks the log-floor nodes that carry a negative exponent
    in row i (None if it has none).  Raises EvaluationError when every
    node of a row is at -inf, or when the marked nodes carry most of a
    row's weight.
    """
    for row, term in zip(e, terms):
        # no mass means -inf at every node: test one node before scanning all
        if row[0] == -np.inf and row.max() == -np.inf:
            raise EvaluationError(f"{term}: no mass to integrate (all nodes at the floor)")
    t, s = lse_rows(e)
    for row, term, mask in zip(s, terms, explosive):
        if mask is not None and row[mask].sum() > _FLOOR_DOMINANCE:
            raise EvaluationError(
                f"{term}: stabilized sum dominated by log-floor nodes "
                f"(negative exponent on a clamped tail)")
    return t, s


def _power_lse(c_p: float, c_q: float, lp: np.ndarray, lq: np.ndarray,
               log_w: np.ndarray, term: str) -> tuple[float, np.ndarray]:
    """log I(p^c_p q^c_q) and the normalized weights w p^c_p q^c_q / I.

    lp and lq are floored log-value vectors on the grid of log_w; a zero
    exponent (one at most) skips its density.  Raises as `power_lse_rows`.
    """
    expo = log_w
    if c_p != 0.0:
        expo = expo + c_p * lp
    if c_q != 0.0:
        expo = expo + c_q * lq
    explosive = None
    if c_p < 0 or c_q < 0:
        explosive = ((c_p < 0) & (lp <= LOG_FLOOR)) | ((c_q < 0) & (lq <= LOG_FLOOR))
    t, s = power_lse_rows(expo[None], (term,), (explosive,))
    return float(t[0]), s[0]


def _log_values(p: GridDensity, q: GridDensity) -> tuple[np.ndarray, np.ndarray]:
    """The two densities' log values, once they are known to share a grid."""
    if not p.same_grid(q):
        raise ValueError("densities must be tabulated on the same grid")
    return p.log_values, q.log_values


# ---------------------------------------------------------------------------
# the sAB divergence over the whole parameter plane
# ---------------------------------------------------------------------------


def eval_sab(params: DivergenceParams, p: GridDensity, q: GridDensity,
             weights: np.ndarray | None = None) -> float:
    """D[alpha,beta](p, q) on the shared grid, any region of the plane.

    The integrals are against ``weights``, by default p's reference
    weights.  The limit-region formulas are the analytic continuations of
    the generic expression under that normalized reference measure:

    * a + b = 0:   ( log I((p/q)^a) - a I(log p/q) ) / a^2
    * b = 0:       ( log I(q^a) - log I(p^a) ) / a^2
                   + weighted mean of log(p/q) under w p^a, divided by a
    * a = 0:       the b = 0 case with (p, a) and (q, b) exchanged
    * a = b = 0:   half the variance of log(p/q) under the reference
                   measure
    """
    lp, lq = _log_values(p, q)
    w = p.reference_weights if weights is None else weights
    with np.errstate(divide="ignore"):  # a zero weight is a node outside the measure
        log_w = np.log(w)
    a, b = params.alpha, params.beta
    lam = params.lam
    region = classify_region(params)

    if region is Region.GENERIC:
        value = sab_value(a, b,
                          _power_lse(lam, 0.0, lp, lq, log_w, "first-density power term")[0],
                          _power_lse(0.0, lam, lp, lq, log_w, "second-density power term")[0],
                          _power_lse(a, b, lp, lq, log_w, "cross term")[0])
    elif region is Region.SUM_ZERO:
        t = _power_lse(a, -a, lp, lq, log_w, "ratio power term")[0]
        value = (t - a * float(np.dot(w, lp - lq))) / (a * a)
    elif region is Region.BOTH_ZERO:
        d = lp - lq
        m1 = float(np.dot(w, d))
        m2 = float(np.dot(w, d * d))
        value = 0.5 * (m2 - m1 * m1)
    else:
        # D[0,b](p, q) = D[b,0](q, p): the a = 0 line is the b = 0 line with
        # (p, a) and (q, b) exchanged; each term keeps its density's name
        c, l1, l2, n1, n2 = ((a, lp, lq, "first", "second") if region is Region.BETA_ZERO
                             else (b, lq, lp, "second", "first"))
        t2 = _power_lse(0.0, c, l1, l2, log_w, f"{n2}-density power term")[0]
        t1, s = _power_lse(c, 0.0, l1, l2, log_w, f"{n1}-density power term")
        value = (t2 - t1) / (c * c) + float(np.dot(s, l1 - l2)) / c
    return finite_sab_value(value, region, a, b)


# ---------------------------------------------------------------------------
# named special-case divergences (independent quadrature implementations)
# ---------------------------------------------------------------------------
#
# These integrate against plain (unnormalized) trapezoid weights,
# `GridDensity.weights`, i.e. the Lebesgue measure on the grid interval, and
# are deliberately not routed through eval_sab so the reduction identities
# are genuine cross-checks.


def eval_kl(p: GridDensity, q: GridDensity) -> float:
    """KL(p || q) = integral of p log(p/q)."""
    lp, lq = _log_values(p, q)
    return float(np.dot(p.weights, np.exp(lp) * (lp - lq)))


def eval_renyi(alpha: float, p: GridDensity, q: GridDensity) -> float:
    """Renyi divergence of order alpha: log integral of p^a q^(1-a) / (a-1)."""
    if alpha in (0.0, 1.0):
        raise DomainError("Renyi order must avoid {0, 1}")
    lp, lq = _log_values(p, q)
    t = _power_lse(alpha, 1.0 - alpha, lp, lq, np.log(p.weights), "Renyi cross term")[0]
    return t / (alpha - 1.0)


def eval_gamma(beta: float, p: GridDensity, q: GridDensity) -> float:
    """Gamma divergence of order beta (robust, scale invariant)."""
    if beta in (0.0, -1.0):
        raise DomainError("gamma order must avoid {0, -1}")
    lp, lq = _log_values(p, q)
    log_w = np.log(p.weights)
    t_p = _power_lse(beta + 1.0, 0.0, lp, lq, log_w, "gamma p-power term")[0]
    t_q = _power_lse(0.0, beta + 1.0, lp, lq, log_w, "gamma q-power term")[0]
    t_c = _power_lse(1.0, beta, lp, lq, log_w, "gamma cross term")[0]
    return t_p / (beta * (beta + 1.0)) + t_q / (beta + 1.0) - t_c / beta


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


def gaussian_oracle(kind: str, mu1: float, s1: float, mu2: float, s2: float,
                    order: float | None = None) -> float:
    """Closed-form Gaussian values used as acceptance ground truth: "kl", and
    "renyi" of an order outside {0, 1}.  Other sAB points are their power
    integrals, `gaussian_power_log_integral`, weighted as in `sab_value`."""
    if kind == "kl":
        return gaussian_kl(mu1, s1, mu2, s2)
    if kind == "renyi":
        if order is None or order in (0.0, 1.0):
            raise DomainError(f"renyi oracle needs an order outside {{0, 1}}, got {order}")
        return gaussian_power_log_integral(order, mu1, s1, mu2, s2) / (order - 1.0)
    raise DomainError(f"unknown oracle kind {kind!r}")
