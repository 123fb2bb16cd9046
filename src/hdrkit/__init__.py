"""hdrkit: bivariate highest-density-region estimation via neighborhood measures.

A measure scores every point of a sample; thresholding the scores at the
right order statistic yields an HDR estimate whose membership test is a
single comparison. The package ships eight measures (kernel density, kNN
distances, empirical box probabilities, and parametric/nonparametric
copula variants), closed-form scenario generators with a Monte Carlo
truth oracle, the evaluation metrics, and a reproducible benchmark CLI.
"""

from .core import Orientation, Sample2D, ScoreVector, threshold_index
from .distributions import (
    FitReport,
    MarginalModel,
    beta11a,
    bvn_cdf,
    bvt_cdf,
    fit_marginal_mle,
    marginal_cdf,
    marginal_pdf,
    marginal_quantile,
    normal,
    normal_mixture,
    student_t,
)
from .copulas import (
    CopulaModel,
    NpCopulaFit,
    PseudoObservations,
    clayton,
    copula_cdf,
    copula_pdf,
    copula_sample,
    dirichlet11a,
    fit_copula_mle,
    frank,
    gaussian,
    independence,
    kendall_tau,
    npcop_fit,
    npcop_pdf,
    npcop_rect_prob,
    pseudo_observations,
    select_copula_aic,
    student_t_copula,
    tau_to_param,
)
from .measures import (
    MEASURE_KINDS,
    FittedMeasure,
    MeasureSpec,
    fit_measure,
    heuristic_eps,
    heuristic_k,
)
from .hdr import HdrRegion, classify, density_quantile_hdr, estimate_hdr, measure_average
from .scenarios import (
    SCENARIO_IDS,
    Scenario,
    TruthOracle,
    build_truth_oracle,
    label_truth,
    sample_scenario,
    scenario,
    true_density,
)
from .evaluation import ConfusionCounts, MetricsRow, aggregate, confusion, metrics
from .benchmark import RunConfig, apply_measures, run_bench, run_tune, simulate_scenario

__version__ = "0.1.0"
