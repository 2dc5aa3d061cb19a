"""Nonlinear time-series toolkit: attractor reconstruction, invariant
estimation, reduced-model identification, neighborhood forecasting and
contour symmetry analysis."""

from .contours import (ContourDescriptors, SymmetryReport, closeness, descriptors,
                       dft, idft, load_contour, load_spectrum, normalize,
                       plane_rotation, save_contour, save_spectrum, smooth,
                       symmetry_between)
from .dimensions import (CorrelationCurve, DimensionEstimate, correlation_dimension,
                         correlation_integral, data_diameter, default_epsilons,
                         fit_dimension, generalized_curve, generalized_dimension,
                         kaplan_yorke)
from .embedding import (DelayEmbedding, MIProfile, NeighborIndex, default_bins,
                        embed, embedding_to_series,
                        mutual_information_profile, select_delay,
                        successor_index)
from .errors import (ConfigError, DegenerateDataError, DivergenceError,
                     FormatError, InsufficientDataError,
                     NoInteriorMinimumWarning, PhasekitError,
                     ScalingRegionError)
from .fitting import SlopeFit, fit_scaling_region, fit_slope, scaling_window
from .identify import (BasisTerm, ProjectionRecord, ReducedModel, TimeBasis,
                       build_state_sequence, estimate_x0, fit_model, fit_percent,
                       moving_average, parse_basis, parse_term, simulate)
from .lyapunov import (DivergenceCurve, LyapunovSpectrum, RateEstimate,
                       SpectrumReport, WolfResult, benettin_data, benettin_exact,
                       divergence_rate, kantz_curve, rosenstein_curve,
                       spectrum_checks, wolf_lambda1)
from .predict import (FeatureTransform, LocalForecast, LocalStability,
                      StepwiseReport, composite_J, local_mean_forecast,
                      local_stability, step_sign_feature, stepwise_reconstruct,
                      value_feature)
from .series import (StandardizeRecord, TimeSeries, detrend, load_csv,
                     read_numeric_table, save_csv, standardize,
                     write_numeric_table)
from .systems import (ReferenceSystem, catalog, check_jacobian, integrate,
                      iterate, rk4_step, sample)

__version__ = "0.1.0"

__all__ = [
    "BasisTerm", "ConfigError", "ContourDescriptors", "CorrelationCurve",
    "DegenerateDataError", "DelayEmbedding", "DimensionEstimate",
    "DivergenceCurve", "DivergenceError", "FeatureTransform", "FormatError",
    "InsufficientDataError", "LocalForecast", "LocalStability",
    "LyapunovSpectrum", "MIProfile", "NeighborIndex",
    "NoInteriorMinimumWarning", "PhasekitError", "ProjectionRecord",
    "RateEstimate", "ReducedModel", "ReferenceSystem", "ScalingRegionError",
    "SlopeFit", "SpectrumReport", "StandardizeRecord", "StepwiseReport",
    "SymmetryReport", "TimeBasis", "TimeSeries", "WolfResult",
    "benettin_data", "benettin_exact", "build_state_sequence", "catalog",
    "check_jacobian", "closeness", "composite_J", "correlation_dimension",
    "correlation_integral", "data_diameter", "default_bins",
    "default_epsilons", "descriptors", "detrend", "dft", "divergence_rate",
    "embed", "embedding_to_series", "estimate_x0", "fit_dimension",
    "fit_model", "fit_percent", "fit_scaling_region", "fit_slope",
    "generalized_curve", "generalized_dimension", "idft", "integrate",
    "iterate", "kantz_curve", "kaplan_yorke", "load_contour", "load_csv",
    "load_spectrum", "local_mean_forecast", "local_stability",
    "moving_average", "mutual_information_profile", "normalize",
    "parse_basis", "parse_term", "plane_rotation", "read_numeric_table",
    "rk4_step", "rosenstein_curve", "sample", "save_contour", "save_csv",
    "save_spectrum", "scaling_window", "select_delay", "simulate", "smooth",
    "spectrum_checks", "standardize", "step_sign_feature",
    "stepwise_reconstruct", "successor_index", "symmetry_between",
    "value_feature", "wolf_lambda1", "write_numeric_table",
]
