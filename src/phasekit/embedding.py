"""Delay-coordinate reconstruction: lag selection and neighbor machinery.

The delay is picked at the first interior minimum of the lagged mutual
information of the observable.  Embedded points put the newest sample first:
row(t) = (y(t), y(t-tau), ..., y(t-(m-1)tau)) for every channel, channels
stacked block-wise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateDataError, InsufficientDataError, NoInteriorMinimumWarning
from .series import TimeSeries

# Relative slack when pulling candidates out of the k-d tree; final distances
# are always recomputed with plain numpy so ordering matches a linear scan.
_TREE_SLACK = 1e-9


@dataclass(frozen=True)
class MIProfile:
    """Mutual information (nats) of (y(t), y(t+tau)) for tau = 1..tau_max."""

    taus: np.ndarray
    values: np.ndarray
    bins: int
    channel: int = 0


def default_bins(n_samples: int) -> int:
    """Histogram resolution rule: cube root of the sample count, clamped to [8, 64]."""
    return int(min(64, max(8, np.ceil(n_samples ** (1.0 / 3.0)))))


def mutual_information_profile(series: TimeSeries, tau_max: int,
                               channel: int = 0, bins: int | None = None) -> MIProfile:
    """Histogram mutual information against lag.

    Bin edges span the full channel range and are shared by both axes, which
    makes the estimate exactly symmetric under time reversal.  Values are
    clamped at zero (the estimator is non-negative up to float noise).
    """
    x = series.values[:, channel]
    n = x.size
    if not 1 <= tau_max < n:
        raise InsufficientDataError(f"tau_max must lie in [1, {n - 1}]")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise DegenerateDataError("channel is constant; mutual information undefined")
    if bins is None:
        bins = default_bins(n)
    if bins < 2:
        raise ValueError("need at least 2 histogram bins")
    edges = np.linspace(lo, hi, bins + 1)

    taus = np.arange(1, tau_max + 1)
    values = np.empty(tau_max)
    for i, tau in enumerate(taus):
        a = x[: n - tau]
        b = x[tau:]
        joint, _, _ = np.histogram2d(a, b, bins=(edges, edges))
        total = joint.sum()
        p = joint / total
        px = p.sum(axis=1)
        py = p.sum(axis=0)
        mask = p > 0
        denom = np.outer(px, py)[mask]
        values[i] = max(0.0, float(np.sum(p[mask] * np.log(p[mask] / denom))))
    return MIProfile(taus, values, bins, channel)


def select_delay(profile: MIProfile) -> int:
    """First interior local minimum of the MI profile.

    A minimum must be strictly below both neighbors.  If none exists the
    global arg-min is returned (first index of the minimal run) and a
    NoInteriorMinimumWarning is emitted.
    """
    v = profile.values
    for i in range(1, v.size - 1):
        if v[i] < v[i - 1] and v[i] < v[i + 1]:
            return int(profile.taus[i])
    warnings.warn("no interior minimum in the MI profile; using the global minimum",
                  NoInteriorMinimumWarning, stacklevel=2)
    return int(profile.taus[int(np.argmin(v))])


@dataclass(frozen=True)
class DelayEmbedding:
    """Reconstructed state set.

    points: (K, m * n_channels) array, K = N - (m-1)*tau.  Column block c*m+j
    holds channel c delayed by j*tau (j=0 is the newest sample).  times are
    the sample indices of the newest coordinate of each row.
    """

    points: np.ndarray
    times: np.ndarray
    m: int
    tau: int
    dt: float
    n_channels: int = 1

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def width(self) -> int:
        return self.points.shape[1]

    def default_theiler(self) -> int:
        return self.tau * (self.m - 1) + 1


def embed(series: TimeSeries, m: int, tau: int) -> DelayEmbedding:
    """Build the delay embedding of every channel of the series."""
    if m < 1 or tau < 1:
        raise ValueError("m and tau must be >= 1")
    n = series.n_samples
    span = (m - 1) * tau
    if n - span < 1:
        raise InsufficientDataError(
            f"series of {n} samples is too short for m={m}, tau={tau}")
    k = n - span
    cols = []
    for c in range(series.n_channels):
        ch = series.values[:, c]
        for j in range(m):
            cols.append(ch[span - j * tau: span - j * tau + k])
    points = np.column_stack(cols)
    times = np.arange(span, n)
    return DelayEmbedding(points, times, m, tau, series.dt, series.n_channels)


def embedding_to_series(emb: DelayEmbedding) -> TimeSeries:
    """Embedding rows as a plain multichannel series (for CSV export)."""
    names = []
    for c in range(emb.n_channels):
        for j in range(emb.m):
            names.append(f"ch{c}_z{j + 1}")
    return TimeSeries(emb.points, emb.dt, tuple(names))


class NeighborIndex:
    """k-d tree over embedding rows with temporal (Theiler) exclusion.

    Neighbor order is (distance, row index) ascending, with distances
    recomputed in numpy, so results coincide exactly with a brute-force scan.

    knn_many answers many rows with one k-d tree call and returns exactly what
    query returns for each row, ties included.  A row's pool is its
    k + 2*theiler + 2 nearest rows in tree order.  The first k admissible
    candidates are re-sorted by (numpy distance, row index) and kept when the
    pool also holds a (k+1)-th admissible candidate farther than the k-th by
    more than the tree slack, or when the pool covers every row and holds
    exactly k admissible ones.  Any other row (a tie at the cut, a pool short
    of admissible rows, fewer than k admissible rows in all) goes through the
    per-row query_point, which regrows its own pool.

    default_theiler is the exclusion window used by queries that pass no
    theiler of their own.  An explicit value always wins; None means the
    embedding's own window (DelayEmbedding.default_theiler()), or 0 for a raw
    point array.
    """

    def __init__(self, emb_or_points, times=None, default_theiler: int | None = None):
        if isinstance(emb_or_points, DelayEmbedding):
            self.points = emb_or_points.points
            self.times = emb_or_points.times
            own_window = emb_or_points.default_theiler()
        else:
            self.points = np.asarray(emb_or_points, dtype=float)
            self.times = (np.arange(self.points.shape[0])
                          if times is None else np.asarray(times))
            own_window = 0
        self.default_theiler = own_window if default_theiler is None else default_theiler
        self.n = self.points.shape[0]
        self.tree = cKDTree(self.points)

    def _admissible(self, indices: np.ndarray, row: int, theiler: int) -> np.ndarray:
        keep = np.abs(self.times[indices] - self.times[row]) > theiler
        return indices[keep]

    def _order(self, query_point: np.ndarray, indices: np.ndarray):
        d = np.sqrt(np.sum((self.points[indices] - query_point) ** 2, axis=1))
        order = np.lexsort((indices, d))
        return indices[order], d[order]

    def query_point(self, point: np.ndarray, time, k: int,
                    theiler: int | None = None):
        """k nearest rows admissible w.r.t. an explicit query time."""
        if theiler is None:
            theiler = self.default_theiler
        q = np.asarray(point, dtype=float)
        pool = min(self.n, k + 2 * (2 * theiler + 1) + 8)
        while True:
            _, idx = self.tree.query(q, k=pool)
            idx = np.atleast_1d(idx)
            adm = idx[np.abs(self.times[idx] - time) > theiler]
            if adm.size >= k or pool >= self.n:
                break
            pool = min(self.n, pool * 2)
        if adm.size < k:
            raise InsufficientDataError(
                f"only {adm.size} admissible neighbors near time {time} (need {k})")
        adm, d = self._order(q, adm)
        # Pull in everything tied with the k-th distance before cutting.
        dk = d[k - 1]
        ball = np.asarray(self.tree.query_ball_point(q, dk * (1.0 + _TREE_SLACK)),
                          dtype=int)
        ball = ball[np.abs(self.times[ball] - time) > theiler]
        ball, bd = self._order(q, ball)
        if ball.size >= k:
            return ball[:k], bd[:k]
        return adm[:k], d[:k]

    def query(self, row: int, k: int, theiler: int | None = None):
        """k nearest admissible rows; returns (indices, distances)."""
        return self.query_point(self.points[row], self.times[row], k, theiler)

    def knn_many(self, rows, k: int, theiler: int | None = None):
        """query(row, k, theiler) for every row at once.

        Returns (indices, distances), each of shape (len(rows), k).  Raises
        InsufficientDataError as query does when a row has fewer than k
        admissible neighbors.
        """
        if theiler is None:
            theiler = self.default_theiler
        rows = np.asarray(rows, dtype=int)
        n_rows = rows.size
        pool = min(self.n, k + 2 * max(theiler, 0) + 2)
        tree_d, idx = self.tree.query(self.points[rows], k=pool)
        tree_d = tree_d.reshape(n_rows, pool)
        idx = idx.reshape(n_rows, pool)
        adm = np.abs(self.times[idx] - self.times[rows][:, None]) > theiler
        count = adm.sum(axis=1)
        # Pool columns of the first k+1 admissible candidates, in tree order.
        cols = np.argsort(~adm, axis=1, kind="stable")[:, :k + 1]
        if pool > k:
            d_cut = np.take_along_axis(tree_d, cols[:, k - 1:k + 1], axis=1)
            gap = (count > k) & (d_cut[:, 1] > d_cut[:, 0] * (1.0 + _TREE_SLACK))
        else:
            gap = np.zeros(n_rows, dtype=bool)
        ok = gap | ((pool == self.n) & (count == k))

        out_idx = np.empty((n_rows, k), dtype=int)
        out_d = np.empty((n_rows, k))
        if ok.any():
            cand = np.take_along_axis(idx[ok], cols[ok, :k], axis=1)
            diff = self.points[cand] - self.points[rows[ok]][:, None, :]
            d = np.sqrt(np.sum(diff ** 2, axis=2))
            order = np.lexsort((cand, d))
            out_idx[ok] = np.take_along_axis(cand, order, axis=1)
            out_d[ok] = np.take_along_axis(d, order, axis=1)
        for i in np.nonzero(~ok)[0]:
            out_idx[i], out_d[i] = self.query(int(rows[i]), k, theiler)
        return out_idx, out_d

    def query_some(self, row: int, k: int, theiler: int | None = None):
        """Like query(), but returns however many admissible rows exist (<= k)."""
        if theiler is None:
            theiler = self.default_theiler
        try:
            return self.query(row, k, theiler)
        except InsufficientDataError:
            idx = self._admissible(np.arange(self.n), row, theiler)
            if idx.size == 0:
                return idx, np.empty(0)
            idx, d = self._order(self.points[row], idx)
            return idx[:k], d[:k]

    def radius_point(self, point: np.ndarray, time, eps: float,
                     theiler: int | None = None):
        """All rows within eps (inclusive) admissible w.r.t. an explicit time."""
        if theiler is None:
            theiler = self.default_theiler
        q = np.asarray(point, dtype=float)
        idx = np.asarray(self.tree.query_ball_point(q, eps * (1.0 + _TREE_SLACK)),
                         dtype=int)
        idx = idx[np.abs(self.times[idx] - time) > theiler]
        if idx.size == 0:
            return idx, np.empty(0)
        idx, d = self._order(q, idx)
        keep = d <= eps
        return idx[keep], d[keep]

    def radius(self, row: int, eps: float, theiler: int | None = None):
        """All admissible rows within distance eps (inclusive), ordered."""
        return self.radius_point(self.points[row], self.times[row], eps, theiler)


def successor_index(emb: DelayEmbedding, reserve: int = 1) -> NeighborIndex:
    """Index over the rows that still have `reserve` future rows available."""
    n = emb.n_points - reserve
    if n < 2:
        raise InsufficientDataError("not enough rows with the requested future span")
    return NeighborIndex(emb.points[:n], emb.times[:n],
                         default_theiler=emb.default_theiler())
