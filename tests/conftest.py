import math

import numpy as np
import pytest

from sabvi.divergence import gaussian_pair
from sabvi.models import BLRModel, XYData, blr_exact_posterior
from sabvi.vi import MeanFieldGaussian


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


@pytest.fixture(scope="session", params=[0, 1, 2])
def orthogonal_blr(request):
    """A BLR whose exact posterior a mean-field q can equal: (model, data, q).

    The design X = Q sqrt(N/3), with Q from a QR of a Gaussian N x d
    matrix, has X'X = (N/3) I, so without a bias the posterior precision
    is diagonal up to roundoff; q is that posterior, the optimum of every
    (alpha, beta).  N = 1000, d = 5, noise 0.1, weights 0.5, and 5% of
    the targets shifted by +5.  The seed is the fixture's parameter.
    """
    n, d = 1000, 5
    g = np.random.default_rng(request.param)
    basis, _ = np.linalg.qr(g.standard_normal((n, d)))
    X = basis * math.sqrt(n / 3)
    y = X @ np.full(d, 0.5) + 0.1 * g.standard_normal(n)
    y[g.choice(n, size=n // 20, replace=False)] += 5.0
    model = BLRModel(input_dim=d, noise_sigma=0.1, include_bias=False)
    data = XYData(X, y)
    mean, cov = blr_exact_posterior(model, data)
    diagonal = np.diag(cov)
    assert np.abs(cov - np.diag(diagonal)).max() <= 1e-15 * diagonal.min()
    return model, data, MeanFieldGaussian(mean, 0.5 * np.log(diagonal))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
