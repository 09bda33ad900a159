"""Binary-regression link functions and their equivalence.

Evaluate the probit, compit (complementary log-log), cauchit and logit
links, fit binary regression models by maximum likelihood under any of
them, compute the closed-form small-coefficient estimators that tie
their slopes together, and run the replication experiments that measure
how structurally and predictively interchangeable the links are.
"""

from .approx import (
    UnivariateSample,
    beta_cf_cauchit,
    beta_cf_logit,
    beta_cf_probit,
    ratio_identities,
    shared_kernel,
)
from .concord import (
    AverageTestError,
    Classifier,
    ConcordanceMatrix,
    SplitPlan,
    average_test_error,
    classify,
    concordance_rate,
    predict_prob,
    sign_disagreement_grid,
    split,
    test_error,
)
from .equiv import (
    Equispaced,
    Gaussian,
    GenConfig,
    IcReport,
    OlsLine,
    SummaryStats,
    TestErrorReport,
    ThetaReport,
    generate_dataset,
    ic_compare,
    ols_simple,
    predictive_sim,
    structural_sim,
    summarize,
)
from .errors import (
    ArgumentError,
    DegenerateSampleError,
    DomainError,
    ExperimentError,
    LinkEquivError,
    NumericalError,
    SeparationError,
)
from .fit import (
    Dataset,
    FitResult,
    ModelSpec,
    StackFit,
    fit_mle,
    fit_stack,
    information_criteria,
    log_likelihood,
    observed_information,
    score,
)
from .links import (
    CLAMP_EPS,
    LinkKind,
    cdf,
    density,
    density_prime,
    logistic_normal_scale,
    quantile,
)
from .rng import substream

__version__ = "0.1.0"
