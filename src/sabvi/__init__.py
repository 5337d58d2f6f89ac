"""Scale-invariant alpha-beta divergences and direct divergence-minimization
variational inference for robust Bayesian regression."""

__version__ = "0.1.0"
