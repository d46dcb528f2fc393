"""Causal effect estimation from incomplete observational data.

The package wires together five pieces: a causal-graph module for
identifiability and missing-at-random checks, a structural simulator with
outcome-dependent missingness, penalized regression splines with automatic
smoothness selection, chained-equation multiple imputation with predictive
mean matching, and a frontdoor plug-in estimator of the average causal
effect and causal-distribution quantiles.  The ``frontdoor-lab`` command
line runs the whole pipeline and emits CSV and SVG artifacts.  Each name
below is imported from its module on first use (PEP 562), so
``import frontdoor_lab`` alone does not load numpy, the one run-time
dependency.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name and the module that defines it
_EXPORTS = {
    "AdditiveFit": "spline_smooth",
    "CompletedDatasets": "mi_engine",
    "Dag": "causal_graph",
    "Dataset": "dataset",
    "EffectEstimate": "frontdoor_estimator",
    "FittedPair": "frontdoor_estimator",
    "PenalizedSplineFit": "spline_smooth",
    "Population": "scm_sim",
    "RunConfig": "runconfig",
    "ScmConfig": "scm_sim",
    "SplineBasis": "spline_smooth",
    "ace_at": "frontdoor_estimator",
    "apply_missingness": "scm_sim",
    "bidirected_path_exists": "causal_graph",
    "build_basis": "spline_smooth",
    "complete_case_effect": "frontdoor_estimator",
    "d_separated": "causal_graph",
    "dag_from_text": "causal_graph",
    "dataset_from_csv": "dataset",
    "dataset_to_csv": "dataset",
    "decompose_x": "mi_engine",
    "distribution_at": "frontdoor_estimator",
    "estimate_effect": "frontdoor_estimator",
    "fit_additive": "spline_smooth",
    "fit_pair": "frontdoor_estimator",
    "fit_penalized": "spline_smooth",
    "frontdoor_dag": "causal_graph",
    "frontdoor_design_dag": "causal_graph",
    "frontdoor_identifiable": "causal_graph",
    "generate_population": "scm_sim",
    "imputation_diagnostics": "mi_engine",
    "impute_sign": "mi_engine",
    "initialize": "mi_engine",
    "intervene_generate": "scm_sim",
    "load_config": "runconfig",
    "load_graph": "causal_graph",
    "mar_holds": "causal_graph",
    "oracle_ace": "scm_sim",
    "oracle_quantiles": "scm_sim",
    "parse_config": "runconfig",
    "pmm_impute": "mi_engine",
    "predict": "spline_smooth",
    "run_mice": "mi_engine",
    "select_lambda": "spline_smooth",
    "std_normal_cdf": "scm_sim",
    "std_normal_pdf": "scm_sim",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
