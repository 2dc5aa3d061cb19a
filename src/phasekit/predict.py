"""Neighborhood forecasting: the local mean of successors, and the stepwise
reconstruction search.

The forecast of the newest point is the mean successor of its k nearest
neighbors outside the Theiler window (Farmer & Sidorowich, PRL 59, 1987;
Theiler, PRA 34, 1986).  It is scored by e_psi, the sum of squared one-step
residuals of that mean over the neighbors' own successors, and gated by the
neighborhood's local stability: the reciprocal of the largest successor
separation, which the composite criterion keeps only when it meets a
threshold.  scipy.spatial's hull and pdist are imported in
_successor_stability, where they are used, so importing this module does not
import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .embedding import DelayEmbedding, NeighborIndex
from .errors import ConfigError, InsufficientDataError, PhasekitError
from .series import TimeSeries


@dataclass(frozen=True)
class LocalStability:
    """Stability score of a neighborhood D: how tightly its successors bunch.

    lambda_d = 1 / (largest pairwise successor distance), +inf when all
    successors coincide.  j1 is lambda_d; j2 is the neighborhood size.
    """

    lambda_d: float
    j1: float
    j2: int


def _successor_stability(successors: np.ndarray) -> float:
    """lambda_D = 1 / largest pairwise successor distance, +inf when it is 0.

    The farthest pair of a point set is a pair of its convex hull's vertices,
    so for m >= 2 only the hull's vertices, plus the points Qhull set aside as
    within roundoff of a facet, are compared (Barber et al., ACM TOMS 22,
    1996); every pair is compared when Qhull finds the hull degenerate.  For
    m = 1 the largest distance is max - min.  Either way the maximum is the
    one distance all pairs would give, bit for bit.
    """
    if successors.shape[1] == 1:
        dmax = float(successors.max() - successors.min())
    else:
        from scipy.spatial import ConvexHull, QhullError
        from scipy.spatial.distance import pdist

        try:
            hull = ConvexHull(successors)
        except QhullError:
            dmax = float(pdist(successors).max())
        else:
            keep = np.union1d(hull.vertices, hull.coplanar[:, 0])
            dmax = float(pdist(successors[keep]).max())
    return math.inf if dmax == 0.0 else 1.0 / dmax


def local_stability(emb: DelayEmbedding, rows) -> LocalStability:
    rows = np.asarray(list(rows), dtype=int)
    if rows.size < 2:
        raise InsufficientDataError("a neighborhood needs at least 2 points")
    if np.any(rows + 1 > emb.n_points - 1):
        raise InsufficientDataError("every neighborhood point needs a successor")
    lam = _successor_stability(emb.points[rows + 1])
    return LocalStability(lam, lam, int(rows.size))


def composite_J(j1: float, j2: float, lambda_min: float) -> float:
    """j2 when the stability criterion j1 reaches lambda_min, else 0."""
    return float(j2) if j1 >= lambda_min else 0.0


@dataclass(frozen=True)
class LocalForecast:
    """The local-mean forecast of one point and the scores that gate it.

    forecast is the mean successor of the neighborhood, or zeros when gated;
    e_psi is the sum of squared residuals of that mean over the neighbors'
    successors; j is composite_J of the neighborhood's stability.
    """

    forecast: np.ndarray
    e_psi: float
    stability: LocalStability
    j: float
    gated: bool


def local_mean_forecast(emb: DelayEmbedding, rows, lambda_min: float,
                        gate: float | None = None) -> LocalForecast:
    """Forecast the next embedded point as the mean successor of rows.

    rows are the forecast point's neighbors, each with a successor.  The
    forecast is gated, and replaced by zeros, when the neighborhood fails
    the stability criterion (j == 0) or when a gate is given and e_psi
    reaches it; e_psi is reported either way.
    """
    stab = local_stability(emb, rows)
    successors = emb.points[np.asarray(rows, dtype=int) + 1]
    forecast = successors.mean(axis=0)
    e_val = float(np.sum((successors - forecast) ** 2))
    j = composite_J(stab.j1, stab.j2, lambda_min)
    gated = j == 0.0 or (gate is not None and e_val >= gate)
    if gated:
        forecast = np.zeros_like(forecast)
    return LocalForecast(forecast, e_val, stab, j, gated)


@dataclass(frozen=True)
class FeatureTransform:
    """Named map from a raw observable to a derived coordinate series."""

    name: str
    fn: Callable


def value_feature(name: str = "value") -> FeatureTransform:
    return FeatureTransform(name, lambda y: np.asarray(y, dtype=float).copy())


def step_sign_feature(name: str = "step_sign") -> FeatureTransform:
    """sign(y(t) - y(t-1)), with 0 at the first sample."""

    def fn(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        out[1:] = np.sign(np.diff(y))
        return out

    return FeatureTransform(name, fn)


@dataclass(frozen=True)
class StepwiseReport:
    """Winning reconstruction of the stepwise search plus its forecast."""

    m: int
    tau: int
    features: tuple
    lambda_d: float
    j: float
    n_neighbors: int
    forecast: tuple            # next embedded point, in raw feature units
    configs_evaluated: int
    configs_gated: int


def stepwise_reconstruct(series: TimeSeries, features, m_values, tau_values,
                         lambda_min: float, channel: int = 0,
                         radius_frac: float = 0.25) -> StepwiseReport:
    """Search feature combinations and delays for the most populated stable
    neighborhood around the newest point, then forecast from it.

    Every size-m combination of the feature transforms (order preserved) and
    every delay is scored: coordinate j is feature j delayed by j*tau, each
    coordinate standardized; the neighborhood is the admissible in-ball set
    of radius radius_frac*sqrt(m) around the last point; its score is the
    composite criterion (size if stable enough, else 0).  Each configuration's
    index excludes its own Theiler window, tau*(m-1) + 1, the delay vector's
    span plus one; that is the only window rule.
    Ties prefer smaller m, then smaller tau, then earlier feature combinations.
    An m above the number of features is skipped, but ValueError is raised
    for an empty feature list, when no m lies in [1, number of features], for
    any m or tau below 1, and for a radius_frac that is not finite and
    positive.
    """
    feats = list(features)
    if not feats:
        raise ValueError("no feature transforms given")
    m_set = sorted(set(int(v) for v in m_values))
    tau_set = sorted(set(int(v) for v in tau_values))
    if m_set and m_set[0] < 1:
        raise ValueError(f"m_values must be >= 1, got {m_set}")
    if not m_set or m_set[0] > len(feats):
        raise ValueError(f"m_values holds no m in [1, {len(feats)}], the number "
                         f"of features; got {m_set}")
    if not tau_set or tau_set[0] < 1:
        raise ValueError(f"tau_values must be >= 1, got {tau_set}")
    if not (math.isfinite(radius_frac) and radius_frac > 0):
        raise ValueError(f"radius_frac must be finite and > 0, got {radius_frac}")
    y = series.column(channel)
    n = y.size
    cache = {}
    for fi, f in enumerate(feats):
        z = np.asarray(f.fn(y), dtype=float)
        if z.shape != (n,):
            raise ConfigError(f"feature {f.name!r} must map to a series of length {n}")
        cache[fi] = z

    best_key = None
    best = None
    evaluated = 0
    gated = 0
    for m in m_set:
        if m > len(feats):
            continue
        for combo in combinations(range(len(feats)), m):
            for tau in tau_set:
                evaluated += 1
                span = (m - 1) * tau
                k_rows = n - span
                if k_rows < 3:
                    gated += 1
                    continue
                cols = []
                scales = []
                degenerate = False
                for j, fi in enumerate(combo):
                    seg = cache[fi][span - j * tau: span - j * tau + k_rows]
                    mu, sd = float(seg.mean()), float(seg.std())
                    if sd == 0.0:
                        degenerate = True
                        break
                    cols.append((seg - mu) / sd)
                    scales.append((mu, sd))
                if degenerate:
                    gated += 1
                    continue
                pts = np.column_stack(cols)
                idx = NeighborIndex(pts[:-1], np.arange(k_rows - 1),
                                    theiler=tau * (m - 1) + 1)
                cur = k_rows - 1
                ball, _ = idx.radius_point(pts[cur], cur, radius_frac * math.sqrt(m))
                if ball.size < 2:
                    gated += 1
                    continue
                succ = pts[ball + 1]
                lam_d = _successor_stability(succ)
                j_val = composite_J(lam_d, ball.size, lambda_min)
                if j_val == 0.0:
                    gated += 1
                    continue
                key = (-j_val, m, tau, combo)
                if best_key is None or key < best_key:
                    forecast_std = succ.mean(axis=0)
                    forecast = tuple(float(v * sd + mu)
                                     for v, (mu, sd) in zip(forecast_std, scales))
                    best_key = key
                    best = (m, tau, tuple(feats[fi].name for fi in combo),
                            lam_d, j_val, int(ball.size), forecast)
    if best is None:
        raise PhasekitError(
            "every configuration failed the stability gate; lower lambda_min")
    return StepwiseReport(*best, evaluated, gated)
