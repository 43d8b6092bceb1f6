"""Causal dependence plots for black-box predictors.

Given a fitted predictor and a structural causal model over its inputs,
this package computes how the prediction responds to interventions on a
chosen variable: the total response, the response with some variables
held fixed, and the direct / mediated decomposition of the total
response. Curves are exported as CSV and deterministic SVG.

The public names below load their submodule on first use (PEP 562), so
a process loads only what it runs: `import cdplot` alone loads none of
them, and structure discovery loads only where something discovers.
"""

import importlib

# the submodule that defines each public name
_NAMES = {
    "discovery": (
        "Cpdag", "Dag", "DagEnumeration", "DiscoveryError", "Skeleton", "cpdag_to_text",
        "enumerate_dags", "fisher_z_test", "fit_anm", "orient_cpdag", "pc_skeleton",
    ),
    "engine": (
        "BandSet", "CurveSet", "Ecm", "EffectDifference", "EngineError", "Grid", "band_kinds",
        "build_ecm", "effect_difference", "ice", "make_grid", "nddp", "nidp", "pcdp", "tdp",
        "uncertainty_band",
    ),
    "errors": ("CdpError", "ConfigError", "DataError"),
    "expr": (
        "BinOp", "Call", "Const", "ExpressionError", "Neg", "ParseError", "Var", "evaluate",
        "evaluate_batch", "parse", "to_source",
    ),
    "predictors": (
        "ClosedFormPredictor", "ExternalPredictor", "ExternalPredictorError", "ForestConfig",
        "ForestPredictor", "OlsPredictor", "Predictor", "PredictorError", "fit_forest",
        "fit_ols", "load_predictor", "open_external", "save_predictor",
    ),
    "render": ("export_band_csv", "export_csv", "import_csv", "render_band", "render_curves"),
    "scm": (
        "Dataset", "Mechanism", "NoiseSpec", "Scm", "ScmError", "abduct", "build_scm",
        "counterfactual_table", "sample",
    ),
}
_SUBMODULE = {name: module for module, names in _NAMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    """A public name, from its submodule, which is imported on first use."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
