import math

import numpy as np
import pytest

from sabvi.divergence import gaussian_pair


class GaussianJointModel:
    """Model whose 'joint' is a fixed (optionally unnormalized) isotropic
    Gaussian in `dim` coordinates.

    Used wherever a test needs an exactly known target density for the
    sampling estimator.
    """

    def __init__(self, mean: float, sigma: float, log_scale: float = 0.0, dim: int = 1):
        self.mean = mean
        self.sigma = sigma
        self.log_scale = log_scale
        self.dim = dim

    def log_joint_and_grad(self, thetas, data):
        z = (thetas - self.mean) / self.sigma
        a = np.sum(-0.5 * z * z - math.log(self.sigma) - 0.5 * math.log(2.0 * math.pi),
                   axis=1) + self.log_scale
        return a, -z / self.sigma


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
