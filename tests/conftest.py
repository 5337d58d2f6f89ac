import math

import numpy as np
import pytest

from sabvi.divergence import gaussian_pair


class GaussianJointModel:
    """1-D model whose 'joint' is a fixed (optionally unnormalized) Gaussian.

    Used wherever a test needs an exactly known target density for the
    sampling estimator.
    """

    dim = 1

    def __init__(self, mean: float, sigma: float, log_scale: float = 0.0):
        self.mean = mean
        self.sigma = sigma
        self.log_scale = log_scale

    def log_joint_and_grad(self, thetas, data):
        z = (thetas[:, 0] - self.mean) / self.sigma
        a = (-0.5 * z * z - math.log(self.sigma)
             - 0.5 * math.log(2.0 * math.pi) + self.log_scale)
        return a, (-z / self.sigma)[:, None]


def sample_gaussian_pair(rng, span=10.0, n=4001, mu_range=2.0, sigma_lo=0.7, sigma_hi=1.6):
    """Random Gaussian pair whose tails stay above the log floor on the
    shared grid (keeps negative-exponent integrals trustworthy)."""
    mu1, mu2 = rng.uniform(-mu_range, mu_range, 2)
    s1, s2 = rng.uniform(sigma_lo, sigma_hi, 2)
    p, q = gaussian_pair(mu1, s1, mu2, s2, n=n, span=span)
    return (mu1, s1, mu2, s2), p, q


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
