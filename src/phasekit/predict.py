"""Neighborhood forecasting: tableaus, feature pipelines, model competition.

A forecast candidate is a (feature recipe, regressor) pair.  Candidates are
ranked by the sum of squared one-step residuals over the nearest neighbors of
the forecast point; the winner is kept only when that error beats a gate.
Local stability of a neighborhood is the reciprocal of the largest successor
separation, and the composite criterion keeps the neighborhood size when the
stability threshold is met.

The CLI's predict command runs one candidate, the mean-state model: the mean
successor of the newest point's k nearest neighbors outside the Theiler
window (Farmer & Sidorowich, PRL 59, 1987; Theiler, PRA 34, 1986).  One
neighbor query gives the rows that train it, score it by e_psi and set its
local stability; select_prediction and the composite criterion gate it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import pdist

from .embedding import DelayEmbedding, NeighborIndex
from .errors import (ColdStartWarning, ConfigError, InsufficientDataError,
                     PhasekitError)
from .regressors import TrainConfig, train_regressor
from .series import TimeSeries

CANONICAL_LAYOUTS = ("global", "local_next", "local_with_current")

FEATURE_METHODS = ("m1", "m2", "m3", "m4", "m5")


def layout_mask(layout: str, r: int, k: int) -> np.ndarray:
    """Boolean population pattern of a (2r+1, 2k+1) tableau grid.

    Rows: neighbor ranks (2r-1, ..., 3, 1), the forecast point, then ranks
    (2, 4, ..., 2r).  Columns: time offsets +k ... 0 ... -k left to right.
    The forecast row never contains future cells.
    """
    mask = np.zeros((2 * r + 1, 2 * k + 1), dtype=bool)
    if layout == "global":
        mask[r, k:] = True
    elif layout == "local_next":
        mask[:, k - 1] = True
        mask[r, k - 1] = False
    elif layout == "local_with_current":
        mask[:, k - 1: k + 1] = True
        mask[r, k - 1] = False
        mask[r, k] = True
    else:
        raise ConfigError(f"unknown layout {layout!r}")
    return mask


@dataclass(frozen=True)
class NeighborhoodTableau:
    """Grid of embedding points around a forecast point and its 2r neighbors.

    grid[i, j] holds the embedding point at (source row of grid row i) +
    (offset of column j); unpopulated cells are zero.  neighbor_rows are the
    embedding rows of the neighbors in ascending distance order.
    """

    grid: np.ndarray            # (2r+1, 2k+1, width)
    mask: np.ndarray            # (2r+1, 2k+1)
    layout: str
    r: int
    k: int
    center: int                 # embedding row being forecast
    neighbor_rows: tuple
    distances: tuple

    @property
    def center_grid_row(self) -> int:
        return self.r

    def flatten(self) -> np.ndarray:
        """Populated cells, row-major, as one feature vector."""
        return self.grid[self.mask].ravel()


def _grid_row_sources(r: int, center: int, neighbor_rows: tuple) -> list:
    order = []
    for rank in range(2 * r - 1, 0, -2):
        order.append(neighbor_rows[rank - 1])
    order.append(center)
    for rank in range(2, 2 * r + 1, 2):
        order.append(neighbor_rows[rank - 1])
    return order


def build_tableau(emb: DelayEmbedding, row: int, r: int, k: int,
                  layout="global", theiler: int | None = None,
                  index: NeighborIndex | None = None) -> NeighborhoodTableau:
    """Assemble the neighborhood tableau for one forecast point.

    layout is a canonical name or an explicit boolean mask of shape
    (2r+1, 2k+1) whose forecast row must not touch future columns.  Neighbor
    admissibility: outside the Theiler window and inside the data range for
    every populated offset of the neighbor rows.
    """
    if r < 1 or k < 1:
        raise ConfigError("r and k must be >= 1")
    if isinstance(layout, str):
        name = layout
        mask = layout_mask(layout, r, k)
    else:
        mask = np.asarray(layout, dtype=bool)
        if mask.shape != (2 * r + 1, 2 * k + 1):
            raise ConfigError(f"mask shape must be {(2 * r + 1, 2 * k + 1)}")
        if not mask.any():
            raise ConfigError("synthetic layout populates no cells")
        if mask[r, :k].any():
            raise ConfigError("the forecast row cannot contain future samples")
        name = "synthetic"
        for cand in CANONICAL_LAYOUTS:
            if np.array_equal(mask, layout_mask(cand, r, k)):
                name = cand
                break
    offsets = k - np.arange(2 * k + 1)  # +k ... 0 ... -k per column

    center_cols = np.nonzero(mask[r])[0]
    for j in center_cols:
        if not 0 <= row + offsets[j] < emb.n_points:
            raise InsufficientDataError(
                f"forecast row {row} lacks the offset {offsets[j]} sample")

    nbr_rows_mask = np.delete(mask, r, axis=0)
    nbr_cols = np.nonzero(nbr_rows_mask.any(axis=0))[0]
    nbr_offsets = offsets[nbr_cols]
    if theiler is None:
        theiler = emb.default_theiler()

    index = index or NeighborIndex(emb)
    cand, dist = index.ranked(emb.points[row], emb.times[row], theiler)
    # Baseline admissibility: k-step history and a one-step successor,
    # plus whatever offsets the mask actually populates.
    ok = (cand - k >= 0) & (cand + 1 <= emb.n_points - 1)
    for off in nbr_offsets:
        ok &= (cand + off >= 0) & (cand + off <= emb.n_points - 1)
    good = cand[ok]
    good_d = dist[ok]
    need = 2 * r
    if good.size < need:
        raise InsufficientDataError(
            f"only {good.size} admissible neighbors; achievable r = {good.size // 2}")
    neighbor_rows = tuple(int(i) for i in good[:need])
    distances = tuple(float(d) for d in good_d[:need])

    sources = _grid_row_sources(r, row, neighbor_rows)
    grid = np.zeros((2 * r + 1, 2 * k + 1, emb.width))
    for i, src in enumerate(sources):
        for j in np.nonzero(mask[i])[0]:
            grid[i, j] = emb.points[src + offsets[j]]
    return NeighborhoodTableau(grid, mask, name, r, k, row,
                               neighbor_rows, distances)


def preprocess_features(series: TimeSeries, emb: DelayEmbedding, row: int,
                        spec, index: NeighborIndex | None = None,
                        model_errors=None, theiler: int | None = None,
                        channel: int = 0) -> np.ndarray:
    """Assemble the feature vector for one embedding row.

    spec is an ordered list of (method, lags) pairs:
      m1 raw lagged values; m2 mean of the listed lags; m3 mean of the values
      at the listed neighbor ranks; m4 linearly lag-weighted mean (nearer
      samples weigh more); m5 past forecast errors at the listed depths.
    m5 reads model_errors (most recent last); missing depth yields 0 with a
    ColdStartWarning.
    """
    y = series.column(channel)
    time = int(emb.times[row])
    out: list = []
    for method, lags in spec:
        lags = tuple(int(v) for v in lags)
        if method not in FEATURE_METHODS:
            raise ConfigError(f"unknown feature method {method!r}")
        if not lags:
            raise ConfigError(f"{method}: empty lag list")
        if method in ("m1", "m2", "m4"):
            if min(lags) < 0:
                raise ConfigError(f"{method}: lags must be >= 0")
            if time - max(lags) < 0:
                raise InsufficientDataError(
                    f"{method}: lag {max(lags)} reaches before the series start")
            vals = np.array([y[time - lag] for lag in lags])
            if method == "m1":
                out.extend(vals)
            elif method == "m2":
                out.append(float(vals.mean()))
            else:
                w = np.array([max(lags) + 1.0 - lag for lag in lags])
                out.append(float(np.sum(w * vals) / np.sum(w)))
        elif method == "m3":
            if min(lags) < 1:
                raise ConfigError("m3: neighbor ranks are 1-based")
            if index is None:
                index = NeighborIndex(emb)
            nbrs, _ = index.query_point(emb.points[row], emb.times[row],
                                        max(lags), theiler)
            picked = [y[int(index.times[nbrs[rank - 1]])] for rank in lags]
            out.append(float(np.mean(picked)))
        else:  # m5
            if min(lags) < 1:
                raise ConfigError("m5: error depths are 1-based")
            if model_errors is None:
                raise ConfigError("m5 requires a model_errors history")
            hist = list(model_errors)
            for lag in lags:
                if lag <= len(hist):
                    out.append(float(hist[-lag]))
                else:
                    warnings.warn("m5 cold start: no recorded error at depth "
                                  f"{lag}; using 0", ColdStartWarning, stacklevel=2)
                    out.append(0.0)
    return np.asarray(out, dtype=float)


@dataclass(frozen=True)
class PredictorModel:
    """A trained (feature recipe, regressor) forecasting unit."""

    feature_spec: tuple
    regressor: object
    target_kind: str = "value"   # "value": next observable; "state": next point

    def predict(self, series, emb, row, index=None, model_errors=None,
                theiler=None, channel=0):
        feats = preprocess_features(series, emb, row, self.feature_spec,
                                    index=index, model_errors=model_errors,
                                    theiler=theiler, channel=channel)
        pred = self.regressor.predict(feats[None, :])[0]
        if self.target_kind == "value":
            return float(pred[0]) if np.ndim(pred) else float(pred)
        return np.asarray(pred)


def _feature_index(emb: DelayEmbedding, spec,
                   index: NeighborIndex | None) -> NeighborIndex | None:
    """index, or one NeighborIndex(emb) for all rows when spec has an m3
    feature and no index is given; None when no feature queries neighbors."""
    if index is None and any(method == "m3" for method, _ in spec):
        index = NeighborIndex(emb)
    return index


def fit_predictor(series: TimeSeries, emb: DelayEmbedding, rows, spec,
                  kind: str = "linear", target_kind: str = "value",
                  config: TrainConfig | None = None,
                  index: NeighborIndex | None = None, model_errors=None,
                  theiler: int | None = None, channel: int = 0) -> PredictorModel:
    """Train a predictor on the given embedding rows (each needs a successor).

    index serves the m3 features; without one, a single NeighborIndex(emb)
    is built for all rows, and only when spec has an m3 feature.
    """
    if target_kind not in ("value", "state"):
        raise ConfigError(f"unknown target kind {target_kind!r}")
    index = _feature_index(emb, spec, index)
    feats = []
    targets = []
    y = series.column(channel)
    n = series.n_samples
    for row in rows:
        t = int(emb.times[row])
        if target_kind == "value":
            if t + 1 >= n:
                raise InsufficientDataError(f"row {row} has no successor sample")
            targets.append(y[t + 1])
        else:
            if row + 1 >= emb.n_points:
                raise InsufficientDataError(f"row {row} has no successor point")
            targets.append(emb.points[row + 1])
        feats.append(preprocess_features(series, emb, row, spec, index=index,
                                         model_errors=model_errors,
                                         theiler=theiler, channel=channel))
    reg = train_regressor(np.asarray(feats), np.asarray(targets), kind, config)
    return PredictorModel(tuple((m, tuple(l)) for m, l in spec), reg, target_kind)


def e_psi(model: PredictorModel, series: TimeSeries, emb: DelayEmbedding,
          rows, index: NeighborIndex | None = None, model_errors=None,
          theiler: int | None = None, channel: int = 0) -> float:
    """Sum of squared one-step residuals over the given neighbor rows.

    Every neighbor's known successor is compared against the model value
    computed from the neighbor's own features; the residuals of all
    neighbors are squared and summed in one reduction.  index and theiler
    serve the features (m3), as in fit_predictor.
    """
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0 or np.any(rows + 1 > emb.n_points - 1):
        raise InsufficientDataError("E_psi needs neighbors that have successors")
    index = _feature_index(emb, model.feature_spec, index)
    preds = np.array([model.predict(series, emb, int(row), index=index,
                                    model_errors=model_errors, theiler=theiler,
                                    channel=channel) for row in rows])
    if model.target_kind == "value":
        actual = series.column(channel)[emb.times[rows] + 1]
    else:
        actual = emb.points[rows + 1]
    return float(np.sum((actual - preds) ** 2))


@dataclass(frozen=True)
class SelectionResult:
    forecast: object
    index: int
    gated: bool
    e_psi: float


def select_prediction(candidates, gate: float | None = None) -> SelectionResult:
    """Pick the candidate with the least neighborhood error.

    candidates: sequence of (forecast, e_psi) pairs.  Ties go to the lowest
    index.  When a gate is supplied and even the winner's error reaches it,
    the forecast is replaced by zero and flagged.
    """
    if not candidates:
        raise ConfigError("no forecast candidates")
    errors = np.array([float(e) for _, e in candidates])
    win = int(np.argmin(errors))
    forecast = candidates[win][0]
    gated = gate is not None and bool(errors[win] >= gate)
    if gated:
        forecast = np.zeros_like(np.asarray(forecast, dtype=float))
        if forecast.ndim == 0:
            forecast = 0.0
    return SelectionResult(forecast, win, gated, float(errors[win]))


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


def confidence_value(yhat: float, e_psi_value: float) -> float:
    """Signed model confidence sign(yhat)/E_psi for one forecast."""
    if e_psi_value <= 0.0:
        raise ConfigError("E_psi must be positive for the confidence feature")
    return float(np.sign(yhat) / e_psi_value)


def confidence_feature(yhat: np.ndarray, e_psi_values: np.ndarray,
                       name: str = "confidence") -> FeatureTransform:
    """Precomputed confidence series sign(yhat)/E_psi as a feature transform."""
    yhat = np.asarray(yhat, dtype=float)
    eps = np.asarray(e_psi_values, dtype=float)
    if np.any(eps <= 0.0):
        raise ConfigError("E_psi values must be positive")
    z = np.sign(yhat) / eps

    def fn(y):
        if len(y) != z.size:
            raise ConfigError("confidence series length does not match the data")
        return z.copy()

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
                         radius_frac: float = 0.25,
                         theiler: int | None = None) -> StepwiseReport:
    """Search feature combinations and delays for the most populated stable
    neighborhood around the newest point, then forecast from it.

    Every size-m combination of the feature transforms (order preserved) and
    every delay is scored: coordinate j is feature j delayed by j*tau, each
    coordinate standardized; the neighborhood is the admissible in-ball set
    of radius radius_frac*sqrt(m) around the last point; its score is the
    composite criterion (size if stable enough, else 0).  Ties prefer
    smaller m, then smaller tau, then earlier feature combinations.
    """
    feats = list(features)
    if not feats:
        raise ConfigError("no feature transforms given")
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
    for m in sorted(set(int(v) for v in m_values)):
        if m < 1 or m > len(feats):
            continue
        for combo in combinations(range(len(feats)), m):
            for tau in sorted(set(int(v) for v in tau_values)):
                if tau < 1:
                    continue
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
                th = tau * (m - 1) + 1 if theiler is None else theiler
                idx = NeighborIndex(pts[:-1], np.arange(k_rows - 1),
                                    default_theiler=th)
                cur = k_rows - 1
                ball, _ = idx.radius_point(pts[cur], cur, radius_frac * math.sqrt(m),
                                           theiler=th)
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
