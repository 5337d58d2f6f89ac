"""Plain ADAM with bias correction, updated in place over stacked rows.

One `AdamState` holds C parameter rows (a single vector is one row) with
one step count per row, so C trainings that share a configuration take
one update per step.  A row that skips a step keeps its parameters,
moments and step count exactly as they were.  Each row's bias
corrections ``1 - beta ** t`` are Python-scalar powers: numpy's powers
of a float to an integer array round differently for some t, and a
row's arithmetic must not depend on the rows it is stacked with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    steps: int = 1000

    def __post_init__(self):
        for name in ("learning_rate", "epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")

    def to_dict(self) -> dict:
        return {"learning_rate": self.learning_rate, "beta1": self.beta1,
                "beta2": self.beta2, "epsilon": self.epsilon, "steps": self.steps}


@dataclass(eq=False)
class AdamState:
    params: np.ndarray = field(repr=False)  # C x P, one row per training
    m: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    t: list[int]                            # steps taken, per row

    @classmethod
    def init(cls, params: np.ndarray) -> "AdamState":
        """Fresh moments for a C x P stack of rows, or one P-vector as one row."""
        params = np.array(params, dtype=float, ndmin=2)
        if params.ndim != 2:
            raise ValueError("parameters must be one vector or a stack of rows")
        return cls(params=params, m=np.zeros_like(params), v=np.zeros_like(params),
                   t=[0] * len(params))


def adam_step(state: AdamState, grads: np.ndarray, config: AdamConfig,
              rows: list[int] | None = None) -> AdamState:
    """One bias-corrected ADAM update of `rows` (all rows by default), in place.

    `grads` has the shape of `state.params` (a vector for a one-row
    state); the entries of rows that do not step are ignored.  Returns
    `state`.
    """
    g = np.array(grads, dtype=float, ndmin=2, copy=None)
    if g.shape != state.params.shape:
        raise ValueError("gradient shape does not match parameters")
    b1, b2 = config.beta1, config.beta2
    if rows is None:
        rows = range(len(state.t))
        params, m, v = state.params, state.m, state.v  # updated in place
    else:
        params, m, v, g = (a[rows] for a in (state.params, state.m, state.v, g))  # copies
    c1, c2 = [], []  # bias corrections per stepping row
    for r in rows:
        t = state.t[r] = state.t[r] + 1
        c1.append(1.0 - b1 ** t)
        c2.append(1.0 - b2 ** t)
    if len(c1) == 1:  # a lone row divides by scalars: the same roundings, less overhead
        c1, c2 = c1[0], c2[0]
    else:
        c1, c2 = np.array(c1)[:, None], np.array(c2)[:, None]
    # in place, with the roundings of m = b1 m + (1 - b1) g and its kin
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    params -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.epsilon)
    if params is not state.params:
        state.params[rows], state.m[rows], state.v[rows] = params, m, v
    return state
