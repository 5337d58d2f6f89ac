"""Scale-invariant alpha-beta divergences and direct divergence-minimization
variational inference for robust Bayesian regression."""

from .divergence import (
    DivergenceParams,
    DomainError,
    EvaluationError,
    GridDensity,
    QuadratureMeasure,
    Region,
    classify_region,
    eval_chisq,
    eval_gamma,
    eval_hellinger,
    eval_kl,
    eval_log_euclidean,
    eval_renyi,
    eval_sab,
    gaussian_oracle,
    gaussian_pair,
    log_integral,
)
from .density_fit import (
    FitEvaluator,
    FitObjective,
    FitResult,
    Gaussian1D,
    SkewMixtureTarget,
    analytic_gradient,
    finite_diff_gradient,
    fit_gaussian,
    skew_normal_log_pdf,
)
from .optim import AdamConfig, AdamState, adam_step
from .vi import (
    MCConfig,
    MeanFieldGaussian,
    TrainReport,
    TrainingDiverged,
    UnsupportedRegionError,
    kl_elbo_objective,
    mc_objective,
    sample_reparam,
    train,
)
from .models import (
    BLRModel,
    BNNModel,
    PredictiveSummary,
    XYData,
    blr_exact_posterior,
    check_log_joint_gradient,
    model_from_config,
    model_to_config,
    predict,
)
from .experiments import (
    CVReport,
    CVRunConfig,
    Dataset,
    GridSearchSpec,
    ToyRunConfig,
    corrupt,
    gen_nonlinear,
    gen_toy,
    load_csv,
    metrics,
    nested_cv,
    normalize,
    run_toy_experiment,
)

__version__ = "0.1.0"
