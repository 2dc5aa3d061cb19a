"""Exception types shared across the toolkit."""


class PhasekitError(Exception):
    """Base class for all toolkit errors."""


class FormatError(PhasekitError):
    """Malformed input file (bad row, inconsistent column count, non-numeric cell)."""


class InsufficientDataError(PhasekitError, ValueError):
    """The series or embedding is too short for the requested operation.
    Also a ValueError, since too few rows is a bad value; the CLI still
    reports it as a failed computation (exit 1)."""


class DegenerateDataError(PhasekitError):
    """Input is constant, rank-deficient, or otherwise carries no usable structure."""


class ScalingRegionError(PhasekitError, ValueError):
    """No scaling window satisfied the linearity rule, or an explicit fit range
    keeps too few points or a non-finite one.  Also a ValueError (a bad range
    is a bad value); the CLI still reports it as a failed computation (exit 1)."""


class DivergenceError(PhasekitError):
    """A simulated or propagated state left the representable range."""


class ConfigError(PhasekitError):
    """A request that the given parameters or data cannot serve: an unknown
    system name or identify mode, a plane index out of range, a contour that
    is not a 2-d array of at least 3 finite vertices, spectra or contours of
    different shapes, a time basis that overflows on its interval, a feature
    of the wrong length, or every Kantz eps0 ball empty.  Several of these
    are faults of the data, not of a flag, and it is not a ValueError: the
    CLI reports it as a failed computation (exit 1)."""


class NoInteriorMinimumWarning(UserWarning):
    """Delay selection fell back to the global minimum of the profile."""
