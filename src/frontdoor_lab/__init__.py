"""Causal effect estimation from incomplete observational data.

The package wires together five pieces: a causal-graph module for
identifiability and missing-at-random checks, a structural simulator with
outcome-dependent missingness, penalized regression splines with automatic
smoothness selection, chained-equation multiple imputation with predictive
mean matching, and a frontdoor plug-in estimator of the average causal
effect and causal-distribution quantiles.  The ``frontdoor-lab`` command
line runs the whole pipeline and emits CSV and SVG artifacts.
"""

from .causal_graph import (
    Dag,
    bidirected_path_exists,
    d_separated,
    dag_from_text,
    frontdoor_dag,
    frontdoor_design_dag,
    frontdoor_identifiable,
    load_graph,
    mar_holds,
)
from .dataset import Dataset, dataset_from_csv, dataset_to_csv
from .frontdoor_estimator import (
    EffectEstimate,
    EstimatorConfig,
    FittedPair,
    ace_at,
    complete_case_effect,
    distribution_at,
    estimate_effect,
    fit_pair,
)
from .mi_engine import (
    CompletedDatasets,
    ImputationConfig,
    decompose_x,
    imputation_diagnostics,
    impute_sign,
    initialize,
    pmm_impute,
    run_mice,
)
from .runconfig import RunConfig, load_config, parse_config
from .scm_sim import (
    Population,
    ScmConfig,
    apply_missingness,
    generate_population,
    intervene_generate,
    oracle_ace,
    oracle_quantiles,
    std_normal_cdf,
    std_normal_pdf,
)
from .spline_smooth import (
    AdditiveFit,
    PenalizedSplineFit,
    SplineBasis,
    build_basis,
    fit_additive,
    fit_penalized,
    predict,
    select_lambda,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveFit",
    "CompletedDatasets",
    "Dag",
    "Dataset",
    "EffectEstimate",
    "EstimatorConfig",
    "FittedPair",
    "ImputationConfig",
    "PenalizedSplineFit",
    "Population",
    "RunConfig",
    "ScmConfig",
    "SplineBasis",
    "ace_at",
    "apply_missingness",
    "bidirected_path_exists",
    "build_basis",
    "complete_case_effect",
    "d_separated",
    "dag_from_text",
    "dataset_from_csv",
    "dataset_to_csv",
    "decompose_x",
    "distribution_at",
    "estimate_effect",
    "fit_additive",
    "fit_pair",
    "fit_penalized",
    "frontdoor_dag",
    "frontdoor_design_dag",
    "frontdoor_identifiable",
    "generate_population",
    "imputation_diagnostics",
    "impute_sign",
    "initialize",
    "intervene_generate",
    "load_config",
    "load_graph",
    "mar_holds",
    "oracle_ace",
    "oracle_quantiles",
    "parse_config",
    "pmm_impute",
    "predict",
    "run_mice",
    "select_lambda",
    "std_normal_cdf",
    "std_normal_pdf",
]
