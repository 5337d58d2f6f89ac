"""Plain ADAM with bias correction, as a pure state-to-state update."""

from __future__ import annotations

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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")

    def to_dict(self) -> dict:
        return {"learning_rate": self.learning_rate, "beta1": self.beta1,
                "beta2": self.beta2, "epsilon": self.epsilon, "steps": self.steps}


@dataclass(frozen=True)
class AdamState:
    params: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    t: int = 0

    @classmethod
    def init(cls, params: np.ndarray) -> "AdamState":
        params = np.asarray(params, dtype=float)
        return cls(params=params.copy(), m=np.zeros_like(params),
                   v=np.zeros_like(params), t=0)


def adam_step(state: AdamState, grads: np.ndarray, config: AdamConfig) -> AdamState:
    """One bias-corrected ADAM update; returns a fresh state."""
    g = np.asarray(grads, dtype=float)
    if g.shape != state.params.shape:
        raise ValueError("gradient shape does not match parameters")
    t = state.t + 1
    m = config.beta1 * state.m + (1.0 - config.beta1) * g
    v = config.beta2 * state.v + (1.0 - config.beta2) * g * g
    m_hat = m / (1.0 - config.beta1 ** t)
    v_hat = v / (1.0 - config.beta2 ** t)
    params = state.params - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return AdamState(params=params, m=m, v=v, t=t)
