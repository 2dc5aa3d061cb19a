"""Scaling windows and the straight-line fits over them.

Dimension and divergence estimators all reduce to "find the part of a curve
that is actually straight, then fit its slope", and fit_scaling_region alone
picks the points: scaling_window's automatic window, or every point whose
grid value (eps for dimensions, the offset for divergence curves) lies inside
a caller's fit range, bounds included.  Only finite points are fitted: the
window accepts only finite slopes between finite points, and a fit range
holding an inf or NaN point raises ScalingRegionError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScalingRegionError

REL_TOL = 0.10   # local slopes may spread this much of their mean |slope|
MIN_POINTS = 5   # points in the shortest automatic window


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr: float
    window: tuple  # (first index, last index) fitted, into the input arrays
    n_points: int  # points fitted; a fit range on an unsorted grid skips some


def fit_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Ordinary least-squares line fit; returns (slope, intercept, stderr).

    stderr is the standard error of the slope; 0.0 when only 2 points are given.
    Fewer than 2 points, or all x equal, raise ScalingRegionError: no line
    fits there, a failed computation rather than a bad argument.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 2:
        raise ScalingRegionError("need at least 2 points for a line fit")
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ScalingRegionError("degenerate abscissa: all x equal")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    if n == 2:
        return slope, intercept, 0.0
    resid = y - (intercept + slope * x)
    stderr = float(np.sqrt(np.sum(resid ** 2) / (n - 2) / sxx))
    return slope, intercept, stderr


def scaling_window(x: np.ndarray, y: np.ndarray) -> tuple[int, int]:
    """Longest index window where local slopes vary less than REL_TOL.

    Local slopes are consecutive finite differences; a window qualifies when
    it spans at least MIN_POINTS points, every slope inside it is finite and
    joins two finite points, their mean is nonzero and (max - min) <= REL_TOL
    * |mean|.  Ties go to the leftmost window.  Raises ScalingRegionError when
    nothing qualifies.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if x.size < MIN_POINTS:
        raise ScalingRegionError(
            f"curve has {x.size} points, need {MIN_POINTS}; pass an explicit range")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, huge steps
        dx = np.diff(x)
        if np.any(dx == 0.0):
            raise ValueError("abscissa values must be distinct")
        slopes = np.diff(y) / dx
    finite = np.isfinite(x) & np.isfinite(y)
    usable = (finite[:-1] & finite[1:] & np.isfinite(slopes)).tolist()
    slopes = slopes.tolist()

    best: tuple[int, int] | None = None
    n = len(slopes)
    for i in range(n):
        lo, hi, total = slopes[i], slopes[i], 0.0
        for j in range(i, n):
            if not usable[j]:
                break  # no window reaches across a non-finite slope
            lo, hi = min(lo, slopes[j]), max(hi, slopes[j])
            total += slopes[j]
            count = j - i + 1
            mean = total / count
            if count + 1 >= MIN_POINTS and mean != 0.0 and hi - lo <= REL_TOL * abs(mean):
                if best is None or (j - i) > (best[1] - best[0]):
                    best = (i, j + 1)  # slope window [i, j] covers points i..j+1
    if best is None:
        raise ScalingRegionError(
            "no scaling window satisfies the linearity rule; pass an explicit range")
    return best


def fit_scaling_region(x, y, fit_range: tuple | None = None, grid=None,
                       min_inside: int = 2, unit: str = "points") -> SlopeFit:
    """Slope of y against x over scaling_window's window or over fit_range.

    fit_range = (lo, hi) keeps every point, in input order, whose grid value
    (x when grid is None) lies in [lo, hi]: at least min_inside points (unit
    names them in the error), all finite.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if fit_range is None:
        i, j = scaling_window(x, y)
        rows = np.arange(i, j + 1)
    else:
        lo, hi = fit_range
        grid = x if grid is None else np.asarray(grid, dtype=float)
        rows = np.flatnonzero((grid >= lo) & (grid <= hi))
        if rows.size < min_inside:
            raise ScalingRegionError(f"fit range keeps fewer than {min_inside} {unit}")
        bad = rows[~(np.isfinite(x[rows]) & np.isfinite(y[rows]))]
        if bad.size:
            raise ScalingRegionError(f"fit range holds non-finite points at {unit} "
                                     f"{grid[bad].tolist()}: y = {y[bad].tolist()}")
    slope, intercept, stderr = fit_slope(x[rows], y[rows])
    return SlopeFit(slope, intercept, stderr, (int(rows[0]), int(rows[-1])), rows.size)
