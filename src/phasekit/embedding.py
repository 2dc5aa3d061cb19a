"""Delay-coordinate reconstruction: lag selection and neighbor machinery.

The delay is picked at the first interior minimum of the lagged mutual
information of the observable.  Embedded points put the newest sample first:
row(t) = (y(t), y(t-tau), ..., y(t-(m-1)tau)) for every channel, channels
stacked block-wise.
scipy.spatial is imported in NeighborIndex.__init__, where the k-d tree is
built, so a process that builds no tree never pays for its import.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError, NoInteriorMinimumWarning
from .series import TimeSeries

# Relative slack when pulling candidates out of the k-d tree; final distances
# are always recomputed with plain numpy so ordering matches a linear scan.
_TREE_SLACK = 1e-9

# numpy sums an axis of at least this many terms pairwise, unrolled by 8, and
# a shorter one left to right.
_PAIRWISE_WIDTH = 8


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
    x = series.column(channel)
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
    # histogram2d's binning, done once: bin j holds [edges[j], edges[j+1]),
    # and values equal to the top edge go in the last bin
    idx = np.searchsorted(edges, x, "right") - 1
    idx[idx == bins] = bins - 1

    taus = np.arange(1, tau_max + 1)
    values = np.empty(tau_max)
    for i, tau in enumerate(taus):
        counts = np.bincount(idx[: n - tau] * bins + idx[tau:], minlength=bins * bins)
        joint = counts.reshape(bins, bins).astype(float)
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


def row_distances(points: np.ndarray, rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances from points[rows] to q, with q broadcast against
    rows.shape + (width,).  Bit-equal to np.sqrt(np.sum((points[rows] - q)
    ** 2, axis=-1)): below 8 coordinates that sum runs left to right, so it
    is done one coordinate at a time, which is faster on short rows."""
    sq = points.take(rows, axis=0)
    sq -= q
    sq *= sq
    if sq.shape[-1] >= _PAIRWISE_WIDTH:
        return np.sqrt(np.sum(sq, axis=-1))
    total = sq[..., 0].copy()
    for j in range(1, sq.shape[-1]):
        total += sq[..., j]
    return np.sqrt(total, out=total)


class NeighborIndex:
    """k-d tree over embedding rows with temporal (Theiler) exclusion.

    A row is admissible for a query at time t when its time lies more than
    theiler from t (Theiler, PRA 34, 1986).  The window is fixed when the
    index is built and every query applies it: None means the embedding's
    own window (DelayEmbedding.default_theiler()), or 0 for a raw point
    array; a negative one raises ValueError.  Neighbor order is (distance,
    row index) ascending, with distances recomputed in numpy, so results
    coincide exactly with a brute-force scan, ties included.

    query_point and knn_many run one batched routine in passes.  Each pass
    asks the tree for every open query point's pool, its p nearest rows in
    tree order.  The first pass takes p = min(last, 2k + 2), where last =
    min(n, k + 2*theiler + 2) holds k admissible rows past any window of
    distinct times; each later pass doubles p, up to last, and asks again
    only for the points whose pool held at most k admissible rows.  A pool
    is a prefix of the tree order, so an admissible row outside it lies at
    least as far as the pool's (k+1)-th admissible row.  Once a pool holds
    k+1 admissible rows, the k-th and (k+1)-th admissible tree distances are
    those of the whole tree order: the point settles exactly as it would in
    a pool of size last, and a cut clear in a short pool is clear there too.
    Each point finishes in one of three ways:
    - the cut is clear: the pool holds a (k+1)-th admissible row farther than
      the k-th by more than the tree slack, or it covers every row and holds
      exactly k admissible ones.  The first k admissible rows in (numpy
      distance, row index) order are the answer.  Tree order mostly is that
      order already, so only the points where it is not are re-sorted;
    - a tie at the cut: the pool holds k admissible rows but the cut is not
      clear.  radius_point at the k-th numpy distance returns every
      admissible row that could rank, and its first k are the answer;
    - the last pool holds fewer than k admissible rows: ranked scans every row.
      With distinct times a window excludes at most 2*theiler + 1 rows, so
      this happens only when times repeat or the pool covers every row.
    Every distance comes from row_distances, bit-equal to a brute-force scan.
    A point with fewer than k admissible rows in all raises
    InsufficientDataError; k < 1 raises ValueError.
    """

    def __init__(self, emb_or_points, times=None, theiler: int | None = None):
        if isinstance(emb_or_points, DelayEmbedding):
            self.points = emb_or_points.points
            self.times = emb_or_points.times
            own_window = emb_or_points.default_theiler()
        else:
            self.points = np.asarray(emb_or_points, dtype=float)
            self.times = (np.arange(self.points.shape[0])
                          if times is None else np.asarray(times))
            own_window = 0
        self.theiler = own_window if theiler is None else theiler
        if self.theiler < 0:
            raise ValueError(f"theiler must be >= 0, got {self.theiler}")
        self.n = self.points.shape[0]
        from scipy.spatial import cKDTree

        self.tree = cKDTree(self.points)

    def _order(self, query_point: np.ndarray, indices: np.ndarray):
        d = row_distances(self.points, indices, query_point)
        order = np.lexsort((indices, d))
        return indices[order], d[order]

    def _knn(self, points: np.ndarray, times: np.ndarray, k: int):
        """The k nearest admissible rows of each query point at its time."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        n_q = points.shape[0]
        out_idx = np.empty((n_q, k), dtype=int)
        out_d = np.empty((n_q, k))
        tie = np.zeros(n_q, dtype=bool)
        last = min(self.n, k + 2 * self.theiler + 2)
        pool = min(last, 2 * k + 2)
        rows = np.arange(n_q)  # query points whose pool is still too short
        while rows.size:
            tree_d, idx = self.tree.query(points[rows], k=pool)
            tree_d = tree_d.reshape(rows.size, pool)
            idx = idx.reshape(rows.size, pool)
            adm = np.abs(self.times[idx] - times[rows, None]) > self.theiler
            count = adm.sum(axis=1)
            # Pool columns of the first k+1 admissible candidates, in tree order.
            cols = np.argsort(~adm, axis=1, kind="stable")[:, :k + 1]
            clear = (pool == self.n) & (count == k)
            if pool > k:
                d_cut = np.take_along_axis(tree_d, cols[:, k - 1:k + 1], axis=1)
                clear |= (count > k) & (d_cut[:, 1] > d_cut[:, 0] * (1.0 + _TREE_SLACK))
            # A pool with k+1 admissible rows settles its point, clear or tied;
            # the last pool also settles the points with exactly k.
            settled = count >= k if pool == last else count > k
            if settled.any():
                cand = np.take_along_axis(idx[settled], cols[settled, :k], axis=1)
                d = row_distances(self.points, cand, points[rows[settled]][:, None, :])
                # Only rows whose tree order is not (distance, row) order re-sort.
                step_d, step_i = np.diff(d, axis=1), np.diff(cand, axis=1)
                unsorted = np.flatnonzero(((step_d < 0) | ((step_d == 0) & (step_i < 0)))
                                          .any(axis=1))
                if unsorted.size:
                    order = np.lexsort((cand[unsorted], d[unsorted]))
                    cand[unsorted] = np.take_along_axis(cand[unsorted], order, axis=1)
                    d[unsorted] = np.take_along_axis(d[unsorted], order, axis=1)
                out_idx[rows[settled]], out_d[rows[settled]] = cand, d
            tie[rows[settled & ~clear]] = True
            rows = rows[~settled]
            if pool == last:
                break
            pool = min(last, 2 * pool)

        for i in np.flatnonzero(tie):
            ball, ball_d = self.radius_point(points[i], times[i], out_d[i, -1])
            out_idx[i], out_d[i] = ball[:k], ball_d[:k]
        for i in rows:  # fewer than k admissible rows in the last pool
            ranked, ranked_d = self.ranked(points[i], times[i])
            if ranked.size < k:
                raise InsufficientDataError(
                    f"only {ranked.size} admissible neighbors near time {times[i]} "
                    f"(need {k})")
            out_idx[i], out_d[i] = ranked[:k], ranked_d[:k]
        return out_idx, out_d

    def query_point(self, point: np.ndarray, time, k: int):
        """k nearest rows admissible w.r.t. an explicit query time; returns
        (indices, distances)."""
        idx, d = self._knn(np.asarray(point, dtype=float)[None, :],
                           np.asarray([time]), k)
        return idx[0], d[0]

    def knn_many(self, rows, k: int):
        """query_point at every given row's own point and time, at once.

        Returns (indices, distances), each of shape (len(rows), k).
        """
        rows = np.asarray(rows, dtype=int)
        return self._knn(self.points[rows], self.times[rows], k)

    def ranked(self, point: np.ndarray, time):
        """Every row admissible w.r.t. an explicit time, nearest first: the
        candidates of searches that filter neighbors by more than distance."""
        q = np.asarray(point, dtype=float)
        return self._order(q, np.flatnonzero(np.abs(self.times - time) > self.theiler))

    def radius_point(self, point: np.ndarray, time, eps: float):
        """All rows within eps (inclusive) admissible w.r.t. an explicit time."""
        q = np.asarray(point, dtype=float)
        idx = np.asarray(self.tree.query_ball_point(q, eps * (1.0 + _TREE_SLACK)),
                         dtype=int)
        idx = idx[np.abs(self.times[idx] - time) > self.theiler]
        if idx.size == 0:
            return idx, np.empty(0)
        idx, d = self._order(q, idx)
        keep = d <= eps
        return idx[keep], d[keep]


def successor_index(emb: DelayEmbedding, reserve: int = 1,
                    theiler: int | None = None) -> NeighborIndex:
    """Index over the rows that still have `reserve` future rows available,
    with Theiler window theiler (None: the embedding's own window)."""
    n = emb.n_points - reserve
    if n < 2:
        raise InsufficientDataError("not enough rows with the requested future span")
    return NeighborIndex(emb.points[:n], emb.times[:n],
                         emb.default_theiler() if theiler is None else theiler)
