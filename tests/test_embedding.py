import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import phasekit as pk


def test_embed_definition():
    ts = pk.TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0])
    emb = pk.embed(ts, 2, 1)
    np.testing.assert_array_equal(
        emb.points, [[2, 1], [3, 2], [4, 3], [5, 4]])
    np.testing.assert_array_equal(emb.times, [1, 2, 3, 4])


def test_embed_m1_is_identity():
    ts = pk.TimeSeries([3.0, 1.0, 4.0, 1.0, 5.0])
    emb = pk.embed(ts, 1, 1)
    np.testing.assert_array_equal(emb.points[:, 0], ts.values[:, 0])


def test_embed_constant_series_identical_rows():
    ts = pk.TimeSeries(np.ones(10))
    emb = pk.embed(ts, 3, 2)
    assert np.all(emb.points == emb.points[0])


def test_embed_too_short():
    with pytest.raises(pk.InsufficientDataError):
        pk.embed(pk.TimeSeries([1.0, 2.0, 3.0]), 4, 1)


def test_embed_multichannel_blocks():
    vals = np.column_stack([np.arange(6.0), np.arange(6.0) * 10])
    emb = pk.embed(pk.TimeSeries(vals), 2, 2)
    # channel blocks: (y0(t), y0(t-2), y1(t), y1(t-2))
    np.testing.assert_array_equal(emb.points[0], [2.0, 0.0, 20.0, 0.0])
    assert emb.width == 4


@given(st.integers(1, 4), st.integers(1, 3), st.integers(12, 40))
def test_embed_row_count_and_exact_copies(m, tau, n):
    rng = np.random.default_rng(n)
    y = rng.normal(size=n)
    emb = pk.embed(pk.TimeSeries(y), m, tau)
    assert emb.n_points == n - (m - 1) * tau
    for row in (0, emb.n_points - 1):
        t = emb.times[row]
        for j in range(m):
            assert emb.points[row, j] == y[t - j * tau]


def test_embedding_to_series_names():
    emb = pk.embed(pk.TimeSeries(np.arange(8.0)), 2, 1)
    out = pk.embedding_to_series(emb)
    assert out.names == ("ch0_z1", "ch0_z2")


def test_mi_profile_non_negative(henon_series):
    prof = pk.mutual_information_profile(henon_series, 10)
    assert np.all(prof.values >= 0.0)
    assert prof.taus[0] == 1 and prof.taus[-1] == 10


def test_mi_constant_channel_rejected():
    with pytest.raises(pk.DegenerateDataError):
        pk.mutual_information_profile(pk.TimeSeries(np.ones(100)), 5)


def test_mi_iid_noise_near_zero():
    rng = np.random.default_rng(0)
    ts = pk.TimeSeries(rng.uniform(size=100000))
    prof = pk.mutual_information_profile(ts, 10, bins=16)
    assert np.all(prof.values < 0.02)


def test_mi_time_reversal_symmetry():
    rng = np.random.default_rng(3)
    y = rng.normal(size=600).cumsum()
    fwd = pk.mutual_information_profile(pk.TimeSeries(y), 12)
    rev = pk.mutual_information_profile(pk.TimeSeries(y[::-1].copy()), 12)
    np.testing.assert_allclose(fwd.values, rev.values, atol=1e-12)


def _mi_profile_histogram2d(x, tau_max, bins):
    """The MI profile with one np.histogram2d call per lag."""
    n = x.size
    edges = np.linspace(x.min(), x.max(), bins + 1)
    values = np.empty(tau_max)
    for i, tau in enumerate(range(1, tau_max + 1)):
        joint, _, _ = np.histogram2d(x[: n - tau], x[tau:], bins=(edges, edges))
        p = joint / joint.sum()
        px = p.sum(axis=1)
        py = p.sum(axis=0)
        mask = p > 0
        denom = np.outer(px, py)[mask]
        values[i] = max(0.0, float(np.sum(p[mask] * np.log(p[mask] / denom))))
    return values


@given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(2, 20),
       st.lists(st.one_of(st.integers(0, 20), st.floats(0.0, 1.0)),
                min_size=10, max_size=300),
       st.integers(1, 8))
def test_mi_profile_bit_equal_to_histogram2d(lo, span, bins, picks, tau_max):
    # ints pick a bin edge exactly (the top edge included), floats a point
    # between the extremes; both extremes are in the data, so the profile
    # builds the same edges
    edges = np.linspace(lo, lo + span, bins + 1)
    x = [edges[p % (bins + 1)] if isinstance(p, int) else lo + p * span
         for p in picks]
    x = np.clip(np.array([edges[0], edges[-1]] + x), edges[0], edges[-1])
    tau_max = min(tau_max, x.size - 1)
    prof = pk.mutual_information_profile(pk.TimeSeries(x), tau_max, bins=bins)
    np.testing.assert_array_equal(prof.values,
                                  _mi_profile_histogram2d(x, tau_max, bins))


def test_select_delay_interior_minimum():
    prof = pk.MIProfile(np.arange(1, 6), np.array([3, 2, 1, 2, 3.0]), 8)
    assert pk.select_delay(prof) == 3


def test_select_delay_monotone_warns():
    prof = pk.MIProfile(np.arange(1, 6), np.array([5, 4, 3, 2, 1.0]), 8)
    with pytest.warns(pk.NoInteriorMinimumWarning):
        assert pk.select_delay(prof) == 5


def test_select_delay_plateau_first_of_minimal_run():
    prof = pk.MIProfile(np.arange(1, 5), np.array([3, 1, 1, 2.0]), 8)
    with pytest.warns(pk.NoInteriorMinimumWarning):
        assert pk.select_delay(prof) == 2


def _line_embedding(values):
    pts = np.asarray(values, dtype=float)[:, None]
    return pk.DelayEmbedding(pts, np.arange(pts.shape[0]), 1, 1, 1.0)


def _query(index, row, k):
    """The k nearest admissible rows of one of the index's own rows."""
    return index.query_point(index.points[row], index.times[row], k)


def _radius(index, row, eps):
    """The admissible rows within eps of one of the index's own rows."""
    return index.radius_point(index.points[row], index.times[row], eps)


def test_knn_line_basic():
    emb = _line_embedding([0.0, 1.0, 3.0])
    idx, dist = _query(pk.NeighborIndex(emb, theiler=0), 0, 1)
    assert idx[0] == 1 and dist[0] == pytest.approx(1.0)
    idx, dist = _query(pk.NeighborIndex(emb, theiler=0), 1, 2)
    np.testing.assert_array_equal(idx, [0, 2])
    np.testing.assert_allclose(dist, [1.0, 2.0])


def test_knn_theiler_excludes_temporal_neighbors():
    emb = _line_embedding([0.0, 0.1, 0.2, 5.0])
    idx, _ = _query(pk.NeighborIndex(emb, theiler=1), 1, 1)
    assert idx[0] == 3  # rows 0 and 2 are inside the temporal window


def test_knn_tie_breaks_by_lower_row():
    emb = _line_embedding([0.0, 1.0, -1.0, 1.0])
    idx, dist = _query(pk.NeighborIndex(emb, theiler=0), 0, 2)
    assert dist[0] == dist[1] == pytest.approx(1.0)
    np.testing.assert_array_equal(idx, [1, 2])


def test_knn_insufficient_neighbors():
    emb = _line_embedding([0.0, 1.0, 2.0])
    with pytest.raises(pk.InsufficientDataError):
        _query(pk.NeighborIndex(emb, theiler=0), 1, 4)


@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(0, 3))
def test_knn_matches_brute_force(seed, k, theiler):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(max(12, k + 2 * theiler + 3), 60))
    pts = rng.normal(size=(n, 2))
    emb = pk.DelayEmbedding(pts, np.arange(n), 1, 1, 1.0)
    row = int(rng.integers(0, n))
    adm = np.array([i for i in range(n) if abs(i - row) > theiler])
    if adm.size < k:
        return
    index = pk.NeighborIndex(emb, theiler=theiler)
    idx, dist = _query(index, row, k)
    d = np.sqrt(np.sum((pts[adm] - pts[row]) ** 2, axis=1))
    order = np.lexsort((adm, d))
    np.testing.assert_array_equal(idx, adm[order][:k])
    np.testing.assert_allclose(dist, d[order][:k])
    assert np.all(np.diff(dist) >= 0)
    # The batched query over every row follows the same brute-force order.
    many_idx, many_d = index.knn_many(np.arange(n), k)
    for r in range(n):
        want_idx, want_d = _brute_knn(pts, np.arange(n), r, k, theiler)
        np.testing.assert_array_equal(many_idx[r], want_idx)
        np.testing.assert_array_equal(many_d[r], want_d)


def _brute_knn(pts, times, row, k, theiler):
    """(distance, row index) order over every admissible row, first k."""
    return _brute_knn_point(pts, times, pts[row], times[row], k, theiler)


def _brute_knn_point(pts, times, q, t, k, theiler):
    adm = np.flatnonzero(np.abs(times - t) > theiler)
    d = np.sqrt(np.sum((pts[adm] - q) ** 2, axis=1))
    order = np.lexsort((adm, d))
    return adm[order][:k], d[order][:k]


@pytest.mark.parametrize("k", [1, 4, 5, 8])
def test_knn_many_exact_ties_on_a_lattice(k):
    # Every row of an integer lattice has several rows at its k-th distance.
    grid = np.array([(i, j) for i in range(11) for j in range(11)], dtype=float)
    pts = grid[np.random.default_rng(7).permutation(len(grid))]
    index = pk.NeighborIndex(pts, theiler=0)
    idx, dist = index.knn_many(np.arange(len(pts)), k)
    for r in range(len(pts)):
        want_idx, want_d = _brute_knn(pts, np.arange(len(pts)), r, k, 0)
        np.testing.assert_array_equal(idx[r], want_idx)
        np.testing.assert_array_equal(dist[r], want_d)
        q_idx, q_d = _query(index, r, k)
        np.testing.assert_array_equal(idx[r], q_idx)
        np.testing.assert_array_equal(dist[r], q_d)


def test_knn_many_rows_short_of_admissible_neighbors():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(80, 2))
    # Two rows per time stamp: a Theiler window holds twice the rows the
    # batched pool allows for, so those rows regrow through the per-row path.
    times = np.repeat(np.arange(40), 2)
    index = pk.NeighborIndex(pts, times, theiler=3)
    idx, dist = index.knn_many(np.arange(80), 5)
    for r in range(80):
        want_idx, want_d = _brute_knn(pts, times, r, 5, 3)
        np.testing.assert_array_equal(idx[r], want_idx)
        np.testing.assert_array_equal(dist[r], want_d)
    # Rows with fewer than k admissible rows in all fail as query_point does.
    line = pk.NeighborIndex(np.arange(10.0)[:, None], theiler=3)
    with pytest.raises(pk.InsufficientDataError):
        _query(line, 5, 4)
    with pytest.raises(pk.InsufficientDataError):
        line.knn_many(np.arange(10), 4)
    idx, _ = line.knn_many([0, 9], 4)
    np.testing.assert_array_equal(idx, [[4, 5, 6, 7], [5, 4, 3, 2]])


def test_knn_many_resorts_rows_out_of_tree_order():
    # Every point appears three times, shuffled: the tree lists tied copies
    # in its own order, which the finish must put back into row order.
    rng = np.random.default_rng(3)
    pts = np.repeat(rng.normal(size=(60, 2)), 3, axis=0)[rng.permutation(180)]
    index = pk.NeighborIndex(pts, theiler=0)
    tree_d, tree_idx = index.tree.query(pts, k=6)
    assert np.any((np.diff(tree_d, axis=1) == 0) & (np.diff(tree_idx, axis=1) < 0))
    idx, dist = index.knn_many(np.arange(180), 5)
    for r in range(180):
        want_idx, want_d = _brute_knn(pts, np.arange(180), r, 5, 0)
        np.testing.assert_array_equal(idx[r], want_idx)
        np.testing.assert_array_equal(dist[r], want_d)


@pytest.mark.parametrize("m", [7, 8, 9])
def test_knn_many_matches_brute_force_at_eight_coordinates(m):
    # From 8 coordinates numpy's sum is pairwise, not left to right; the
    # distances must still equal a brute-force np.sum bit for bit.
    emb = pk.embed(pk.TimeSeries(pk.sample(pk.catalog("henon"), 500)[:, 0]), m, 1)
    idx, dist = pk.NeighborIndex(emb).knn_many(np.arange(emb.n_points), 4)
    for r in range(emb.n_points):
        want_idx, want_d = _brute_knn(emb.points, emb.times, r, 4, emb.default_theiler())
        np.testing.assert_array_equal(idx[r], want_idx)
        np.testing.assert_array_equal(dist[r], want_d)


def _rounded_henon_embedding(n, decimals):
    values = pk.sample(pk.catalog("henon"), n)
    return pk.embed(pk.TimeSeries(np.round(values[:, 0], decimals)), 2, 1)


@pytest.mark.parametrize("k", [1, 5])
def test_knn_on_rounded_henon_matches_brute_force(k):
    # Two decimals leave about 300 distinct values for 1500 rows: ties at the
    # k-th distance are common, and many rows sit at distance zero.
    emb = _rounded_henon_embedding(1500, 2)
    index = pk.NeighborIndex(emb)
    theiler = emb.default_theiler()
    idx, dist = index.knn_many(np.arange(emb.n_points), k)
    for r in range(emb.n_points):
        want_idx, want_d = _brute_knn(emb.points, emb.times, r, k, theiler)
        np.testing.assert_array_equal(idx[r], want_idx)
        np.testing.assert_array_equal(dist[r], want_d)
    for r in range(0, emb.n_points, 7):
        q_idx, q_d = _query(index, r, k)
        np.testing.assert_array_equal(q_idx, idx[r])
        np.testing.assert_array_equal(q_d, dist[r])


@pytest.mark.parametrize("theiler", [0, 2])
@pytest.mark.parametrize("decimals", [1, 2])
def test_knn_many_on_rounded_henon_finishes_ties_in_one_ball_query(decimals, theiler):
    # At 1 decimal nearly every row ties at its k-th distance, most of them
    # at distance 0; every tied row is finished by one shared ball query.
    emb = _rounded_henon_embedding(2000, decimals)
    index = pk.NeighborIndex(emb, theiler=theiler)
    ball_queries = []
    balls = index._balls

    def recording_balls(points, times, eps):
        ball_queries.append(points.shape[0])
        return balls(points, times, eps)

    index._balls = recording_balls
    want_idx, want_d = _brute_knn_all(emb.points, emb.times, 16, theiler)
    for k in (1, 5, 16):
        ball_queries.clear()
        idx, dist = index.knn_many(np.arange(emb.n_points), k)
        np.testing.assert_array_equal(idx, want_idx[:, :k])
        np.testing.assert_array_equal(dist, want_d[:, :k])
        assert len(ball_queries) == 1 and ball_queries[0] > emb.n_points // 10


@pytest.mark.parametrize("values", [np.tile(np.arange(4.0), 15),
                                    np.round(pk.sample(pk.catalog("henon"), 300)[:, 0], 1)])
@pytest.mark.parametrize("k", [1, 3, 6])
def test_query_point_outside_the_index_matches_brute_force(values, k):
    # The successor index leaves out the last rows, whose neighbors the
    # predict command looks up; on these series their k-th distance is tied.
    emb = pk.embed(pk.TimeSeries(values), 2, 1)
    sub = pk.successor_index(emb, 3)
    theiler = emb.default_theiler()
    for row in range(sub.n - 2, emb.n_points):
        idx, dist = sub.query_point(emb.points[row], emb.times[row], k)
        want_idx, want_d = _brute_knn_point(sub.points, sub.times, emb.points[row],
                                            emb.times[row], k, theiler)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(dist, want_d)


def _flow_embedding(system, decimals):
    """Channel 0 of a flow, embedded at m = 3 with the delay its workload
    uses; decimals rounds the series first, which ties many distances."""
    dt, tau = {"lorenz": (0.01, 17), "rossler": (0.05, 8)}[system]
    values = pk.sample(pk.catalog(system), 1500, dt=dt)[:, 0]
    if decimals is not None:
        values = np.round(values, decimals)
    return pk.embed(pk.TimeSeries(values, dt=dt), 3, tau)


def _brute_knn_all(pts, times, k, theiler):
    """_brute_knn for every row, a block of rows at a time."""
    out_idx, out_d = [], []
    for lo in range(0, len(pts), 256):
        d = np.sqrt(np.sum((pts[None, :, :] - pts[lo:lo + 256, None, :]) ** 2, axis=-1))
        d[np.abs(times[None, :] - times[lo:lo + 256, None]) <= theiler] = np.inf
        # a stable sort breaks distance ties by the lower row
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        out_idx.append(order)
        out_d.append(np.take_along_axis(d, order, axis=1))
    return np.concatenate(out_idx), np.concatenate(out_d)


@pytest.mark.parametrize("theiler", [0, 35, 40])
@pytest.mark.parametrize("decimals", [None, 2])
@pytest.mark.parametrize("system", ["lorenz", "rossler"])
def test_staged_pools_match_brute_force_on_flows(system, decimals, theiler):
    # A wide window on a flow settles most rows in a pool far shorter than
    # k + 2*theiler + 2; rounding puts ties at the cut of those short pools.
    emb = _flow_embedding(system, decimals)
    index = pk.NeighborIndex(emb, theiler=theiler)
    want_idx, want_d = _brute_knn_all(emb.points, emb.times, 50, theiler)
    for k in (1, 5, 20, 50):
        idx, dist = index.knn_many(np.arange(emb.n_points), k)
        np.testing.assert_array_equal(idx, want_idx[:, :k])
        np.testing.assert_array_equal(dist, want_d[:, :k])
        for r in range(0, emb.n_points, 37):
            q_idx, q_d = _query(index, r, k)
            np.testing.assert_array_equal(q_idx, want_idx[r, :k])
            np.testing.assert_array_equal(q_d, want_d[r, :k])


class _RecordingTree:
    """A k-d tree that records the pool size and query points of each query."""

    def __init__(self, tree):
        self.tree = tree
        self.queries = []

    def query(self, x, k):
        self.queries.append((k, np.array(x)))
        return self.tree.query(x, k=k)

    def __getattr__(self, name):
        return getattr(self.tree, name)


@pytest.mark.parametrize("case", ["lorenz-k1", "lorenz-k5", "lorenz-k20",
                                  "repeated-times"])
def test_staged_pool_schedule(case):
    if case == "repeated-times":
        # A walk with two rows per time stamp: a window holds up to
        # 4*theiler + 2 rows, mostly the nearest ones, so some points reach
        # the last pool and some run short even there.
        rng = np.random.default_rng(11)
        index = pk.NeighborIndex(rng.normal(size=(200, 2)).cumsum(axis=0),
                                 np.repeat(np.arange(100), 2), theiler=3)
        k = 5
    else:
        index = pk.NeighborIndex(_flow_embedding("lorenz", None), theiler=40)
        k = int(case[len("lorenz-k"):])
    recorder = _RecordingTree(index.tree)
    index.tree = recorder
    idx, dist = index.knn_many(np.arange(index.n), k)
    want_idx, want_d = _brute_knn_all(index.points, index.times, k, index.theiler)
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(dist, want_d)

    last = k + 2 * index.theiler + 2
    pool = min(last, 2 * k + 2)
    open_rows = np.arange(index.n)
    for passes, (asked, points) in enumerate(recorder.queries, 1):
        # Each pass doubles the pool, up to the last one, and asks again only
        # for the points whose pool held at most k admissible rows.
        assert asked == pool
        np.testing.assert_array_equal(points, index.points[open_rows])
        _, nb = recorder.tree.query(points, k=pool)
        admissible = np.abs(index.times[nb] - index.times[open_rows, None]) > index.theiler
        open_rows = open_rows[admissible.sum(axis=1) <= k]
        if pool == last:
            break
        pool = min(last, 2 * pool)
    assert passes == len(recorder.queries)
    assert open_rows.size == 0 or pool == last
    if case == "repeated-times":
        assert [q[0] for q in recorder.queries] == [12, last]
        assert open_rows.size > 0  # ranked() finishes these
    else:
        assert len(recorder.queries) >= 2  # a flow settles most points early


def test_knn_rejects_bad_k_and_window():
    index = pk.NeighborIndex(np.arange(10.0)[:, None], theiler=1)
    with pytest.raises(ValueError, match="k must be >= 1"):
        index.knn_many(np.arange(10), 0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        index.query_point([2.5], 20, -3)
    # A negative window fails at build, for a raw array and for an embedding.
    with pytest.raises(ValueError, match="theiler must be >= 0, got -1"):
        pk.NeighborIndex(np.arange(10.0)[:, None], theiler=-1)
    with pytest.raises(ValueError, match="theiler must be >= 0, got -2"):
        pk.NeighborIndex(np.arange(10.0)[:, None], np.arange(10), theiler=-2)
    with pytest.raises(ValueError, match="theiler must be >= 0, got -4"):
        pk.NeighborIndex(_line_embedding(np.arange(10.0)), theiler=-4)
    with pytest.raises(ValueError, match="theiler must be >= 0, got -3"):
        pk.successor_index(_line_embedding(np.arange(10.0)), 1, -3)


def test_ranked_lists_every_admissible_row_nearest_first():
    pts = np.array([[0.0], [3.0], [1.0], [1.0], [-1.0], [0.5]])
    index = pk.NeighborIndex(pts, theiler=1)
    idx, dist = index.ranked(pts[0], 0)
    np.testing.assert_array_equal(idx, [5, 2, 3, 4])  # row 1 is in the window
    np.testing.assert_array_equal(dist, [0.5, 1.0, 1.0, 1.0])
    assert pk.NeighborIndex(pts, theiler=9).ranked(pts[0], 0)[0].size == 0


def test_successor_index_reserves_future_rows():
    emb = _line_embedding(np.arange(10.0))
    index = pk.successor_index(emb, 3)
    assert index.n == 7
    assert index.theiler == emb.default_theiler()
    with pytest.raises(pk.InsufficientDataError):
        pk.successor_index(emb, 9)


@pytest.mark.parametrize("reserve, theiler", [(1, 0), (3, 2), (2, 5)])
def test_successor_index_fixes_the_given_window(reserve, theiler):
    emb = _line_embedding(np.arange(12.0))
    index = pk.successor_index(emb, reserve, theiler)
    assert index.theiler == theiler
    idx, _ = _query(index, 0, 1)
    assert idx[0] == theiler + 1  # the nearest row outside the window


def test_radius_query_inclusive_and_ordered():
    emb = _line_embedding([0.0, 0.5, 1.0, 2.0])
    index = pk.NeighborIndex(emb, theiler=0)
    idx, dist = _radius(index, 0, 1.0)
    np.testing.assert_array_equal(idx, [1, 2])
    np.testing.assert_allclose(dist, [0.5, 1.0])


def _brute_ball(pts, times, row, eps, theiler):
    """Every admissible row within eps of a row, in (distance, row) order."""
    adm = np.flatnonzero(np.abs(times - times[row]) > theiler)
    d = np.sqrt(np.sum((pts[adm] - pts[row]) ** 2, axis=1))
    order = np.lexsort((adm, d))
    keep = d[order] <= eps
    return adm[order][keep], d[order][keep]


@given(st.integers(0, 10 ** 6), st.integers(0, 3), st.sampled_from([None, 0, 1]),
       st.booleans())
def test_radius_many_matches_brute_force(seed, theiler, decimals, per_point):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 50))
    pts = rng.normal(size=(n, int(rng.integers(1, 4))))
    if decimals is not None:  # repeated coordinates: ties and distance-0 rows
        pts = np.round(pts, decimals)
    times = np.arange(n)
    index = pk.NeighborIndex(pts, theiler=theiler)
    # Radii at an exact row distance (that row is inside), at 0, and random.
    pair = rng.integers(0, n, size=(n, 2))
    at_row = np.sqrt(np.sum((pts[pair[:, 0]] - pts[pair[:, 1]]) ** 2, axis=1))
    eps = np.where(rng.random(n) < 0.7, at_row, rng.uniform(0.0, 1.5, n))
    eps[rng.random(n) < 0.1] = 0.0
    if not per_point:
        eps = eps[0]
    rows = rng.permutation(n)[:int(rng.integers(0, n + 1))]
    idx, dist, starts = index.radius_many(rows, eps[rows] if per_point else eps)
    assert starts[0] == 0 and starts[-1] == idx.size == dist.size
    assert starts.size == rows.size + 1
    for i, r in enumerate(rows):
        r_eps = eps[r] if per_point else eps
        want_idx, want_d = _brute_ball(pts, times, r, r_eps, theiler)
        np.testing.assert_array_equal(idx[starts[i]:starts[i + 1]], want_idx)
        np.testing.assert_array_equal(dist[starts[i]:starts[i + 1]], want_d)
        one_idx, one_d = _radius(index, r, r_eps)
        np.testing.assert_array_equal(one_idx, want_idx)
        np.testing.assert_array_equal(one_d, want_d)


def test_radius_many_cut_is_inclusive_to_the_last_bit():
    eps = 0.3
    pts = np.array([0.0, eps, np.nextafter(eps, np.inf), -eps, 0.0, 2.0])[:, None]
    index = pk.NeighborIndex(pts, theiler=0)
    idx, dist, starts = index.radius_many([0, 5, 1], [eps, 0.5, 0.0])
    np.testing.assert_array_equal(starts, [0, 3, 3, 3])
    # Row 4 duplicates row 0; row 2 lies one ulp past eps.  Rows 1 and 3
    # tie at eps and keep row order.
    np.testing.assert_array_equal(idx, [4, 1, 3])
    np.testing.assert_array_equal(dist, [0.0, eps, eps])
    idx, dist, starts = index.radius_many([], eps)
    assert idx.size == dist.size == 0 and starts.tolist() == [0]


def test_neighbor_index_defaults_to_embedding_theiler_window():
    emb = pk.DelayEmbedding(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]),
                            np.arange(3), 2, 1, 1.0)
    assert emb.default_theiler() == 2
    index = pk.NeighborIndex(emb)
    assert index.theiler == 2
    idx, _ = _radius(index, 0, 1.0)
    assert idx.size == 0
    idx, dist = _radius(pk.NeighborIndex(emb, theiler=1), 0, 1.0)
    np.testing.assert_array_equal(idx, [2])
    np.testing.assert_allclose(dist, [1.0])
