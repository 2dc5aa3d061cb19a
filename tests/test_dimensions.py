import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import phasekit as pk
from phasekit import dimensions


def brute_correlation(points, epsilons, theiler):
    """Literal ordered-pair count, i != j, |i-j| > theiler, over m^2."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    out = np.zeros(len(epsilons))
    for i in range(m):
        d = np.sqrt(np.sum((pts - pts[i]) ** 2, axis=1))
        for e, eps in enumerate(epsilons):
            hits = (d <= eps) & (np.abs(np.arange(m) - i) > theiler)
            out[e] += hits.sum()
    return out / m ** 2


def test_correlation_two_points():
    pts = np.array([[0.0], [1.0]])
    curve = pk.correlation_integral(pts, epsilons=np.array([0.5, 1.0, 2.0]))
    np.testing.assert_allclose(curve.values, [0.0, 0.5, 0.5])


def test_correlation_identical_points():
    pts = np.zeros((7, 2))
    curve = pk.correlation_integral(pts, epsilons=np.array([0.1, 1.0]))
    np.testing.assert_allclose(curve.values, (49 - 7) / 49)


def test_correlation_saturation_with_theiler():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 2))
    theiler = 2
    curve = pk.correlation_integral(pts, epsilons=np.array([100.0]),
                                    theiler=theiler)
    m = 40
    excluded = m + 2 * sum(m - off for off in range(1, theiler + 1))
    assert curve.values[0] == pytest.approx((m * m - excluded) / m ** 2)


@given(st.integers(0, 10 ** 6), st.integers(0, 3))
def test_correlation_matches_brute_force(seed, theiler):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(int(rng.integers(10, 60)), 2))
    eps = np.geomspace(0.05, 5.0, 8)
    curve = pk.correlation_integral(pts, epsilons=eps, theiler=theiler)
    np.testing.assert_allclose(curve.values,
                               brute_correlation(pts, eps, theiler),
                               atol=1e-12)
    assert np.all(np.diff(curve.values) >= 0)
    assert np.all(curve.values >= 0) and np.all(curve.values <= 1)


def test_correlation_band_uses_the_trees_squared_distance_rule():
    # The first pair lies at squared distance 1 + 2**-52 > 1 = eps**2, so the
    # tree does not count it at eps = 1, although sqrt rounds its distance
    # to exactly 1.0; the Theiler band must not subtract it there either.
    pts = np.array([(0.0, 0.0), (1.0, 2.0 ** -26), (50.0, 50.0), (80.0, 10.0)])
    curve = pk.correlation_integral(pts, epsilons=[0.5, 1.0, 2.0], theiler=1)
    assert np.all(curve.values >= 0) and np.all(curve.values <= 1)
    assert np.all(np.diff(curve.values) >= 0)
    np.testing.assert_array_equal(curve.values, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("n", [10, 300])
def test_correlation_rejects_flat_points(n):
    with pytest.raises(ValueError, match="shape"):
        pk.correlation_integral(np.arange(float(n)), epsilons=[1.0])


def _test_points(seed, n, width, kind):
    rng = np.random.default_rng(seed)
    if kind == "lattice":  # exact ties at distance == eps
        return rng.integers(0, 5, size=(n, width)).astype(float), np.array([1.0, 2.0, 3.0])
    if kind == "duplicates":
        base = rng.normal(size=(max(1, n // 4), width))
        pts = base[rng.integers(0, base.shape[0], size=n)]
    else:
        pts = rng.normal(size=(n, width))
    return pts, np.geomspace(0.05, 5.0, 9)


@pytest.mark.parametrize("n, n_blocks", [(1, 1), (255, 1), (256, 2), (600, 4)])
def test_spatial_blocks_partition_the_rows(n, n_blocks):
    pts, _ = _test_points(n, n, 3, "normal")
    blocks = dimensions._spatial_blocks(pts)
    assert len(blocks) == n_blocks
    assert min(b.size for b in blocks) >= min(n, dimensions._BLOCK_ROWS)
    np.testing.assert_array_equal(np.sort(np.concatenate(blocks)), np.arange(n))


@given(st.integers(0, 10 ** 6), st.integers(1, 600), st.integers(1, 5),
       st.sampled_from(["normal", "lattice", "duplicates"]), st.integers(0, 3))
@example(0, 600, 2, "lattice", 3)
@example(1, 600, 5, "duplicates", 1)
@example(2, 256, 1, "lattice", 0)
def test_blocked_pair_counts_match_single_tree(seed, n, width, kind, theiler):
    pts, eps = _test_points(seed, n, width, kind)
    tree = cKDTree(pts)
    want = tree.count_neighbors(tree, eps)
    got = dimensions._pair_counts(pts, eps)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    if n < 2:
        return
    # The band subtraction drops exactly the pairs the tree counted.
    band = sum(2 * (np.sum((pts[off:] - pts[:-off]) ** 2, axis=1)[:, None]
                    <= eps * eps).sum(axis=0)
               for off in range(1, min(theiler, n - 1) + 1))
    curve = pk.correlation_integral(pts, epsilons=eps, theiler=theiler)
    np.testing.assert_array_equal(curve.values, (want - n - band) / float(n) ** 2)


@pytest.mark.parametrize("kind", ["normal", "lattice", "duplicates"])
def test_pair_counts_equal_on_one_thread_and_on_two(monkeypatch, kind):
    # Both routes of _pair_counts: block rows in the calling thread alone,
    # and shared with one helper per further usable CPU (here forced to 1
    # and 2 CPUs).
    from concurrent import futures

    pools = []

    class Pool(futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", Pool)
    pts, eps = _test_points(7, 5 * dimensions._BLOCK_ROWS, 3, kind)
    counts = {}
    for cpus in (1, 2):
        monkeypatch.setattr(dimensions, "_usable_cpus", lambda: cpus)
        counts[cpus] = dimensions._pair_counts(pts, eps)
    assert pools == [1]
    assert counts[1].dtype == counts[2].dtype == np.int64
    np.testing.assert_array_equal(counts[1], counts[2])
    tree = cKDTree(pts)
    np.testing.assert_array_equal(counts[2], tree.count_neighbors(tree, eps))


def test_pair_counts_take_each_row_once_under_fast_thread_switches(monkeypatch):
    # More threads than cores draw rows from one shared queue; a row taken
    # twice or dropped would change the counts.
    pts, eps = _test_points(11, 8 * dimensions._BLOCK_ROWS, 3, "normal")
    monkeypatch.setattr(dimensions, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = dimensions._pair_counts(pts, eps)
    finally:
        sys.setswitchinterval(interval)
    tree = cKDTree(pts)
    np.testing.assert_array_equal(counts, tree.count_neighbors(tree, eps))


def test_usable_cpus_is_the_affinity_mask():
    cpus = dimensions._usable_cpus()
    assert cpus >= 1
    if hasattr(os, "sched_getaffinity"):
        assert cpus == len(os.sched_getaffinity(0))


def test_correlation_integral_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(dimensions, "_usable_cpus", lambda: 2)
    pts, eps = _test_points(3, 4 * dimensions._BLOCK_ROWS, 2, "normal")
    before = threading.active_count()
    pk.correlation_integral(pts, epsilons=eps, theiler=2)
    assert threading.active_count() == before


@given(st.integers(0, 10 ** 6), st.integers(1, 400), st.integers(1, 5),
       st.sampled_from(["normal", "lattice", "duplicates"]),
       st.sampled_from([0.05, 0.5, 1.0, 3.0]))
def test_box_masses_match_unique_rows(seed, n, width, kind, eps):
    pts, _ = _test_points(seed, n, width, kind)
    idx = np.floor((pts - pts.min(axis=0)) / eps).astype(np.int64)
    _, counts = np.unique(idx, axis=0, return_counts=True)
    got = dimensions._box_masses(pts, eps)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, counts / n)


def test_correlation_dimension_exact_power_law():
    eps = np.geomspace(0.01, 0.9, 20)
    curve = pk.CorrelationCurve(eps, eps ** 2, 100, 0)
    est = pk.correlation_dimension(curve)
    assert est.value == pytest.approx(2.0, abs=1e-12)
    assert est.q == 2.0


def test_correlation_dimension_circle():
    rng = np.random.default_rng(1)
    ang = rng.uniform(0, 2 * np.pi, 1000)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    eps = np.geomspace(0.01, 0.3, 12)
    curve = pk.correlation_integral(pts, epsilons=eps)
    est = pk.correlation_dimension(curve, fit_range=(0.01, 0.3))
    assert est.value == pytest.approx(1.0, abs=0.05)


def test_correlation_dimension_manual_range_too_narrow():
    eps = np.geomspace(0.01, 0.9, 20)
    curve = pk.CorrelationCurve(eps, eps ** 2, 100, 0)
    with pytest.raises(pk.ScalingRegionError):
        pk.correlation_dimension(curve, fit_range=(0.5, 0.51))


def test_fit_dimension_manual_range_keeps_boundary_points():
    eps = np.geomspace(0.01, 0.9, 20)
    est = pk.fit_dimension(eps, 1.5 * np.log2(eps), 0.0,
                           fit_range=(eps[3], eps[8]))
    assert est.window == (eps[3], eps[8])
    assert est.n_fit_points == 6
    assert est.value == pytest.approx(1.5, abs=1e-12)
    assert est.q == 0.0


def test_correlation_dimension_skips_saturated_points():
    eps = np.geomspace(0.01, 0.9, 20)
    values = np.minimum(eps ** 2, 1.0)
    values[:4] = 0.0
    values[-2:] = 1.0
    curve = pk.CorrelationCurve(eps, values, 100, 0)
    est = pk.correlation_dimension(curve, fit_range=(eps[0], eps[-1]))
    assert est.window == (eps[4], eps[-3])
    assert est.n_fit_points == 14
    assert est.value == pytest.approx(2.0, abs=1e-12)


def test_generalized_d1_circle():
    n = 4000
    ang = 2 * np.pi * np.arange(n) / n
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    eps = np.geomspace(0.01, 0.3, 12)
    est = pk.fit_dimension(*pk.generalized_curve(pts, 1.0, eps), 1.0, (0.01, 0.3))
    assert est.value == pytest.approx(1.0, abs=0.1)


def test_generalized_q2_matches_correlation_dimension(henon_emb):
    pts = henon_emb.points[:4000]
    eps = np.geomspace(0.02, 0.5, 12)
    d2_box = pk.fit_dimension(*pk.generalized_curve(pts, 2.0, eps), 2.0, (0.02, 0.5))
    curve = pk.correlation_integral(pts, epsilons=eps, theiler=1)
    d2_pairs = pk.correlation_dimension(curve, fit_range=(0.02, 0.5))
    assert abs(d2_box.value - d2_pairs.value) < 0.1


def test_dq_non_increasing(henon_emb):
    pts = henon_emb.points[:4000]
    eps = np.geomspace(0.02, 0.5, 12)
    ests = [pk.fit_dimension(*pk.generalized_curve(pts, q, eps), q, (0.02, 0.5))
            for q in (0.0, 1.0, 2.0)]
    for lo, hi in zip(ests[1:], ests[:-1]):
        slack = 3 * (lo.stderr + hi.stderr) + 0.02
        assert hi.value >= lo.value - slack


@pytest.mark.parametrize("q", [-1.0, math.inf, math.nan])
def test_generalized_curve_rejects_negative_or_non_finite_q(q):
    # a ValueError before any box is counted, not RuntimeWarnings from
    # log2(sum p^inf) and then a ScalingRegionError
    pts = np.random.default_rng(0).random((200, 2))
    with pytest.raises(ValueError, match="q must be finite and >= 0"):
        pk.generalized_curve(pts, q)


def test_generalized_constant_data_rejected():
    with pytest.raises(pk.DegenerateDataError):
        pk.generalized_curve(np.ones((50, 2)), 0.0)


def test_data_diameter_bounding_box():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert pk.data_diameter(pts) == pytest.approx(5.0)
