"""Fractal dimension estimators and the Lyapunov-dimension formula.

Correlation sums count ordered pairs within eps, that is at squared
Euclidean distance <= eps**2 (temporal neighbors excluded), normalized by the
squared point count.  All dimension fits run in base-2 logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .embedding import DelayEmbedding
from .errors import DegenerateDataError, InsufficientDataError
from .fitting import fit_scaling_region

DEFAULT_GRID_POINTS = 24
DEFAULT_GRID_SPAN = (1e-3, 1.0)  # relative to the data diameter

# Correlation sums split the points into spatial blocks of at least this many
# rows; smaller blocks cost more in per-call overhead than they save.
_BLOCK_ROWS = 128


def _as_points(data) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(data, DelayEmbedding):
        return data.points, data.times
    pts = np.asarray(data, dtype=float)
    return pts, np.arange(pts.shape[0])


def data_diameter(points: np.ndarray) -> float:
    """Bounding-box diagonal, used to scale default epsilon grids."""
    span = points.max(axis=0) - points.min(axis=0)
    return float(np.linalg.norm(span))


def default_epsilons(points: np.ndarray,
                     n: int = DEFAULT_GRID_POINTS,
                     span: tuple = DEFAULT_GRID_SPAN) -> np.ndarray:
    diam = data_diameter(points)
    if diam == 0.0:
        raise DegenerateDataError("all points coincide; no scale range")
    return diam * np.geomspace(span[0], span[1], n)


@dataclass(frozen=True)
class CorrelationCurve:
    epsilons: np.ndarray
    values: np.ndarray
    n_points: int
    theiler: int


@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    stderr: float
    q: float
    window: tuple  # (eps_low, eps_high) actually used by the fit
    n_fit_points: int


def _spatial_blocks(points: np.ndarray) -> list:
    """Row-index blocks from stable median cuts along each block's widest axis.

    A block is cut only while both halves keep at least _BLOCK_ROWS rows, so
    below 2 * _BLOCK_ROWS points there is a single block.
    """
    blocks, pending = [], [np.arange(points.shape[0])]
    while pending:
        rows = pending.pop()
        if rows.size < 2 * _BLOCK_ROWS:
            blocks.append(rows)
            continue
        sub = points[rows]
        axis = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        order = rows[np.argsort(sub[:, axis], kind="stable")]
        half = rows.size // 2
        pending += [order[half:], order[:half]]
    return blocks


def _pair_counts(points: np.ndarray, epsilons: np.ndarray) -> np.ndarray:
    """Ordered pairs (i, j), self-pairs included, with squared distance <= eps**2.

    Each unordered pair of blocks is counted once and doubled, where a single
    tree counted with itself would visit every cross pair twice.
    """
    trees = [cKDTree(points[rows]) for rows in _spatial_blocks(points)]
    counts = np.zeros(epsilons.size, dtype=np.int64)
    for i, tree in enumerate(trees):
        counts += tree.count_neighbors(tree, epsilons)
        for other in trees[i + 1:]:
            counts += 2 * tree.count_neighbors(other, epsilons)
    return counts


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise squared distances, summed over coordinates left to right as
    the k-d tree sums them, so both apply the same eps**2 cut-off."""
    diff = a - b
    d2 = diff[:, 0] * diff[:, 0]
    for k in range(1, diff.shape[1]):
        d2 += diff[:, k] * diff[:, k]
    return d2


def correlation_integral(data, epsilons=None, theiler: int = 0) -> CorrelationCurve:
    """Fraction of ordered point pairs within eps, excluding |t_i - t_j| <= theiler.

    A pair is within eps when its squared Euclidean distance is <= eps**2.
    Pairs are counted on k-d trees over spatial blocks (each pair of blocks
    once), and the temporally excluded near-diagonal pairs are subtracted
    explicitly under the same squared-distance rule.
    """
    points, times = _as_points(data)
    if points.ndim != 2:
        raise ValueError("data must be of shape (n, m): n points of dimension m")
    m = points.shape[0]
    if m < 2:
        raise InsufficientDataError("need at least 2 points")
    if epsilons is None:
        epsilons = default_epsilons(points)
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.ndim != 1 or epsilons.size == 0 or np.any(epsilons <= 0):
        raise ValueError("epsilons must be a 1-D positive array")
    if np.any(np.diff(epsilons) <= 0):
        raise ValueError("epsilons must be strictly increasing")
    if theiler < 0:
        raise ValueError(f"theiler must be >= 0, got {theiler}")

    counts = _pair_counts(points, epsilons)

    # Remove self-pairs and temporally close pairs.  Rows are consecutive in
    # time, so |t_i - t_j| <= theiler is exactly the band |i - j| <= theiler.
    counts -= m  # offset 0: every self-pair sits at distance 0
    eps2 = epsilons * epsilons
    for off in range(1, min(theiler, m - 1) + 1):
        d2 = np.sort(_squared_distances(points[off:], points[:-off]))
        counts -= 2 * np.searchsorted(d2, eps2, side="right")

    values = counts / float(m) ** 2
    return CorrelationCurve(epsilons, values, m, theiler)


def fit_dimension(epsilons, ordinate, q: float,
                  fit_range: tuple | None = None) -> DimensionEstimate:
    """Slope of ordinate vs log2 eps, reported as a dimension of order q.

    fitting.fit_scaling_region picks the points: the automatic window, or
    with fit_range every grid point whose eps lies inside it (at least 3;
    the grid may be unsorted).  The window is reported in eps units.
    """
    eps = np.asarray(epsilons, dtype=float)
    fit = fit_scaling_region(np.log2(eps), ordinate, fit_range, grid=eps,
                             min_inside=3, unit="grid points")
    i, j = fit.window
    return DimensionEstimate(fit.slope, fit.stderr, q, (float(eps[i]), float(eps[j])),
                             fit.n_points)


def correlation_dimension(curve: CorrelationCurve,
                          fit_range: tuple | None = None) -> DimensionEstimate:
    """Slope of log2 C(eps) vs log2 eps over the scaling window.

    Only grid points with 0 < C < 1 participate; see fit_dimension for the
    window rules.
    """
    usable = (curve.values > 0.0) & (curve.values < 1.0)
    return fit_dimension(curve.epsilons[usable], np.log2(curve.values[usable]),
                         2.0, fit_range)


def _box_masses(points: np.ndarray, eps: float) -> np.ndarray:
    anchor = points.min(axis=0)
    idx = np.floor((points - anchor) / eps).astype(np.int64)
    # Sort rows lexicographically (first coordinate most significant) and
    # count runs of equal rows: the occupied boxes in np.unique's order.
    idx = idx[np.lexsort(idx.T[::-1])]
    new_box = np.any(idx[1:] != idx[:-1], axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new_box, [True])))
    return np.diff(starts) / points.shape[0]


def generalized_curve(data, q: float, epsilons=None):
    """Box-counting ordinates for D_q: (epsilons, log2(sum p^q)/(q-1)).

    Boxes of side eps are anchored at the bounding-box corner; the q=1
    ordinate is the limit value sum(p log2 p).
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    points, _ = _as_points(data)
    if np.all(points.max(axis=0) == points.min(axis=0)):
        raise DegenerateDataError("constant data: box partition is degenerate")
    if epsilons is None:
        epsilons = default_epsilons(points)
    epsilons = np.asarray(epsilons, dtype=float)

    y = np.empty(epsilons.size)
    for i, eps in enumerate(epsilons):
        p = _box_masses(points, eps)
        if q == 1.0:
            y[i] = float(np.sum(p * np.log2(p)))
        else:
            y[i] = float(np.log2(np.sum(p ** q)) / (q - 1.0))
    return epsilons, y


def generalized_dimension(data, q: float, epsilons=None,
                          fit_range: tuple | None = None) -> DimensionEstimate:
    """Renyi dimension of order q: slope of the box-counting ordinate.

    See generalized_curve for the ordinate convention and fit_dimension for
    the window rules.
    """
    epsilons, y = generalized_curve(data, q, epsilons)
    return fit_dimension(epsilons, y, q, fit_range)


def kaplan_yorke(exponents) -> float:
    """Lyapunov dimension d = k + S_k / |lambda_{k+1}|.

    k is the largest index whose partial sum S_k stays non-negative.  All
    partial sums non-negative gives the full dimension n; a negative leading
    exponent gives 0.
    """
    lam = np.asarray(exponents, dtype=float)
    if lam.size == 0:
        raise ValueError("empty exponent list")
    if not np.all(np.isfinite(lam)):
        raise ValueError("exponents must be finite")
    if np.any(np.diff(lam) > 0):
        raise ValueError("exponents must be sorted in descending order")
    if lam[0] < 0:
        return 0.0
    sums = np.cumsum(lam)
    nonneg = np.nonzero(sums >= 0)[0]
    k = int(nonneg[-1]) + 1  # count of exponents in the non-negative head
    if k == lam.size:
        return float(lam.size)
    # lam[k] < 0 here: lam[k] == 0 would keep S_{k+1} = S_k non-negative.
    return k + float(sums[k - 1]) / abs(lam[k])
