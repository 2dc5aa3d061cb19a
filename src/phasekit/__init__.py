"""Nonlinear time-series toolkit: attractor reconstruction, invariant
estimation, reduced-model identification, neighborhood forecasting and
contour symmetry analysis.

Importing the package loads none of its submodules.  Each public name is
resolved from its submodule on first access (PEP 562), and a CLI command
loads only the modules it runs, so a fresh process pays for what it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "contours": ("ContourDescriptors", "SymmetryReport", "closeness",
                 "descriptors", "dft", "load_contour", "load_spectrum",
                 "normalize", "plane_rotation", "save_contour",
                 "save_spectrum", "symmetry_between"),
    "dimensions": ("CorrelationCurve", "DimensionEstimate",
                   "correlation_dimension", "correlation_integral",
                   "data_diameter", "default_epsilons", "fit_dimension",
                   "generalized_curve"),
    "embedding": ("DelayEmbedding", "MIProfile", "NeighborIndex",
                  "default_bins", "embed", "embedding_to_series",
                  "mutual_information_profile", "select_delay",
                  "successor_index"),
    "errors": ("ConfigError", "DegenerateDataError", "DivergenceError",
               "FormatError", "InsufficientDataError",
               "NoInteriorMinimumWarning", "PhasekitError",
               "ScalingRegionError"),
    "fitting": ("SlopeFit", "fit_scaling_region", "fit_slope",
                "scaling_window"),
    "identify": ("BasisTerm", "ProjectionRecord", "ReducedModel", "TimeBasis",
                 "build_state_sequence", "estimate_x0", "fit_model",
                 "fit_percent", "moving_average", "parse_basis", "parse_term",
                 "simulate"),
    "lyapunov": ("DivergenceCurve", "LyapunovSpectrum", "RateEstimate",
                 "SpectrumReport", "WolfResult", "benettin_data",
                 "benettin_exact", "divergence_rate", "kantz_curve",
                 "rosenstein_curve", "spectrum_checks", "wolf_lambda1"),
    "predict": ("FeatureTransform", "LocalForecast", "LocalStability",
                "StepwiseReport", "composite_J", "local_mean_forecast",
                "local_stability", "step_sign_feature", "stepwise_reconstruct",
                "value_feature"),
    "series": ("TimeSeries", "load_csv", "read_numeric_table", "save_csv",
               "write_numeric_table"),
    "systems": ("ReferenceSystem", "catalog", "check_jacobian", "integrate",
                "iterate", "rk4_step", "sample"),
}

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    # Not cached in this namespace: every access returns the submodule's
    # current binding, so a name patched there is patched here too.
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SOURCE})
