"""Plain ADAM with bias correction: one elementwise rule, on floats or on stacked rows.

`adam_rule` is the update of one parameter, or of a whole array, built
from plain operators and a correctly rounded square root, so a fit's two
Python floats and a training's stacked rows round alike.  `adam_step`
applies it to the rows of an `AdamState` that a mask selects: one state
holds C parameter rows (a single vector is one row) with one step count
per row, so C trainings that share a configuration take one update per
step.  A row that skips a step keeps its parameters, moments and step
count exactly as they were.  Each row's bias corrections ``1 - beta ** t``
are Python-scalar powers: numpy's powers of a float to an integer array
round differently for some t, and a row's arithmetic must not depend on
the rows it is stacked with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9      # decay of the first moment
BETA2 = 0.999    # decay of the second moment
EPSILON = 1e-8   # added to the root of the second moment


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.01
    steps: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")

    def to_dict(self) -> dict:
        return {"learning_rate": self.learning_rate, "beta1": BETA1, "beta2": BETA2,
                "epsilon": EPSILON, "steps": self.steps}


def adam_rule(params, m, v, g, c1, c2, learning_rate: float, sqrt=np.sqrt):
    """(params, m, v) after one ADAM update with gradient g and the bias
    corrections c1 = 1 - BETA1 ** t and c2 = 1 - BETA2 ** t of step t.

    Elementwise, on floats or broadcasting arrays.  `sqrt` is np.sqrt, or
    math.sqrt for floats: both round correctly, so a float update equals
    the array one bit for bit, and stays a Python float, whose overflow is
    a silent inf where numpy's errstate can raise.
    """
    m = BETA1 * m + (1.0 - BETA1) * g
    v = BETA2 * v + (1.0 - BETA2) * g * g
    return params - learning_rate * (m / c1) / (sqrt(v / c2) + EPSILON), m, v


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
              rows: np.ndarray | None = None) -> AdamState:
    """One `adam_rule` update of the rows mask `rows` picks (default all).

    `grads` has the shape of `state.params` (a vector for a one-row
    state); the entries of rows that do not step are ignored, and an
    all-False mask is a no-op.  Returns `state`, whose arrays are new
    when every row steps.
    """
    g = np.array(grads, dtype=float, ndmin=2, copy=None)
    if g.shape != state.params.shape:
        raise ValueError("gradient shape does not match parameters")
    every = rows is None or rows.all()
    rows = range(len(state.t)) if every else np.flatnonzero(rows)
    c1, c2 = [], []  # bias corrections per stepping row
    for r in rows:
        t = state.t[r] = state.t[r] + 1
        c1.append(1.0 - BETA1 ** t)
        c2.append(1.0 - BETA2 ** t)
    if len(c1) == 1:  # a lone row divides by scalars: the same roundings, less overhead
        c1, c2 = c1[0], c2[0]
    else:
        c1, c2 = np.array(c1)[:, None], np.array(c2)[:, None]
    lr = config.learning_rate
    if every:
        state.params, state.m, state.v = adam_rule(state.params, state.m, state.v, g, c1, c2, lr)
    else:  # fancy indexing copies the stepping rows out; the assignment writes them back
        state.params[rows], state.m[rows], state.v[rows] = adam_rule(
            state.params[rows], state.m[rows], state.v[rows], g[rows], c1, c2, lr)
    return state
