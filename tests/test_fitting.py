"""fitting.fit_scaling_region: the one slope-fit path of every estimator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import phasekit as pk


def _masked_fit(grid, x, y, fit_range, min_inside):
    """A fit range applied as an explicit mask: (slope, stderr, window in grid
    units, points fitted), or None when fewer than min_inside points are
    inside."""
    lo, hi = fit_range
    inside = (grid >= lo) & (grid <= hi)
    if inside.sum() < min_inside:
        return None
    slope, _, stderr = pk.fit_slope(x[inside], y[inside])
    used = grid[inside]
    return slope, stderr, (float(used[0]), float(used[-1])), int(inside.sum())


def _reference_window(x, y, rel_tol=0.10, min_points=5):
    """The window rule on a finite curve, as a plain double loop over numpy
    slopes: (first, last) point index, or None."""
    slopes = np.diff(y) / np.diff(x)
    best = None
    for i in range(slopes.size):
        lo = hi = slopes[i]
        total = 0.0
        for j in range(i, slopes.size):
            lo = min(lo, slopes[j])
            hi = max(hi, slopes[j])
            total += slopes[j]
            count = j - i + 1
            if count + 1 < min_points:
                continue
            mean = total / count
            if mean == 0.0:
                continue
            if hi - lo <= rel_tol * abs(mean):
                if best is None or (j - i) > (best[1] - best[0]):
                    best = (i, j + 1)
    return best


def _windowed_fit(grid, x, y):
    window = _reference_window(x, y)
    if window is None:
        return None
    i, j = window
    slope, _, stderr = pk.fit_slope(x[i:j + 1], y[i:j + 1])
    return slope, stderr, (float(grid[i]), float(grid[j])), j - i + 1


def _dimension(eps, y, fit_range):
    est = pk.fit_dimension(eps, y, 2.0, fit_range=fit_range)
    return est.value, est.stderr, est.window, est.n_fit_points


def _rate(offsets, y, fit_range):
    curve = pk.DivergenceCurve(offsets, y, 10, 1.0, "rosenstein")
    rate = pk.divergence_rate(curve, fit_range=fit_range)
    return rate.value, rate.stderr, rate.window


def _grid(rng, n):
    """Increasing eps whose log2 steps vary by up to 3x."""
    return 2.0 ** np.cumsum(rng.uniform(0.2, 0.6, size=n))


def _curve(rng, x):
    """A noisy line in x with a kink: some have a scaling window, some not."""
    y = rng.uniform(0.2, 2.0) * x + rng.normal(scale=rng.choice([0.0, 0.003, 0.3]),
                                               size=x.size)
    kink = int(rng.integers(0, x.size))
    y[kink:] += rng.uniform(-2.0, 2.0) * (x[kink:] - x[kink])
    return y


def _fit_range(rng, grid):
    """Bounds drawn around the grid, each snapped to a grid value half the time."""
    bounds = rng.uniform(grid.min() - 0.2, grid.max() + 0.2, size=2)
    snap = rng.integers(0, 2, size=2).astype(bool)
    bounds[snap] = rng.choice(grid, size=int(snap.sum()))
    return tuple(np.sort(bounds).tolist())


@given(st.integers(0, 10 ** 6), st.integers(2, 30), st.booleans())
def test_fit_range_is_bit_equal_to_an_explicit_mask(seed, n, shuffled):
    rng = np.random.default_rng(seed)
    eps = _grid(rng, n)
    if shuffled:  # generalized_curve hands fit_dimension a caller's grid unsorted
        eps = rng.permutation(eps)
    y = _curve(rng, np.log2(eps))
    fit_range = _fit_range(rng, eps)
    want = _masked_fit(eps, np.log2(eps), y, fit_range, 3)
    if want is None:
        with pytest.raises(pk.ScalingRegionError, match="fewer than 3 grid points"):
            _dimension(eps, y, fit_range)
    else:
        assert _dimension(eps, y, fit_range) == want

    offsets = np.arange(n)
    y = _curve(rng, offsets.astype(float))
    fit_range = _fit_range(rng, offsets.astype(float))
    want = _masked_fit(offsets.astype(float), offsets.astype(float), y, fit_range, 2)
    if want is None:
        with pytest.raises(pk.ScalingRegionError, match="fewer than 2 offsets"):
            _rate(offsets, y, fit_range)
    else:
        assert _rate(offsets, y, fit_range) == want[:3]


@given(st.integers(0, 10 ** 6), st.integers(5, 40))
def test_automatic_window_is_bit_equal_to_the_window_rule(seed, n):
    rng = np.random.default_rng(seed)
    eps = _grid(rng, n)
    y_eps = _curve(rng, np.log2(eps))
    offsets = np.arange(n)
    grid = offsets.astype(float)
    y_offsets = _curve(rng, grid)
    rate_want = _windowed_fit(grid, grid, y_offsets)  # a rate reports no count
    for fit, want in [(lambda: _dimension(eps, y_eps, None),
                       _windowed_fit(eps, np.log2(eps), y_eps)),
                      (lambda: _rate(offsets, y_offsets, None),
                       rate_want and rate_want[:3])]:
        if want is None:
            with pytest.raises(pk.ScalingRegionError, match="no scaling window"):
                fit()
        else:
            assert fit() == want


@given(st.integers(0, 10 ** 6), st.integers(5, 40), st.integers(1, 4))
def test_scaling_window_never_touches_a_non_finite_point(seed, n, n_bad):
    rng = np.random.default_rng(seed)
    x = np.arange(n, dtype=float)
    y = 0.5 * x + rng.normal(scale=0.001, size=n)
    bad = rng.choice(n, size=min(n_bad, n), replace=False)
    y[bad] = rng.choice([np.inf, -np.inf, np.nan], size=bad.size)
    try:
        i, j = pk.scaling_window(x, y)
    except pk.ScalingRegionError:
        return
    assert np.all(np.isfinite(y[i:j + 1]))
    assert j - i + 1 >= 5


def _rounded_kantz_curve():
    """Henon rounded to 2 decimals: balls collapse at offsets 1-4 (-inf)."""
    values = np.round(pk.sample(pk.catalog("henon"), 7000)[:, 0], 2)
    emb = pk.embed(pk.TimeSeries(values), 2, 1)
    return pk.kantz_curve(emb, 0.01 * pk.data_diameter(emb.points), 12, n_refs=3000)


def test_rounded_kantz_curve_has_no_scaling_window():
    curve = _rounded_kantz_curve()
    assert np.all(curve.values[1:5] == -np.inf)
    assert np.all(np.isfinite(curve.values[[0] + list(range(5, 13))]))
    # Without the finite-slope condition the rule picks [4, 12]: the -inf to
    # finite slope passes inf - x <= 0.1 * inf.  The finite run 5-12 alone is
    # not straight enough.
    with pytest.raises(pk.ScalingRegionError, match="no scaling window"):
        pk.scaling_window(curve.offsets.astype(float), curve.values)
    with pytest.raises(pk.ScalingRegionError,
                       match=r"offsets \[2.0, 3.0, 4.0\]: y = \[-inf, -inf, -inf\]"):
        pk.divergence_rate(curve, fit_range=(2, 8))


def test_fit_range_with_a_nan_point_names_it():
    eps = np.geomspace(0.01, 1.0, 10)
    y = 2.0 * np.log2(eps)
    y[4] = np.nan
    with pytest.raises(pk.ScalingRegionError, match="non-finite points at grid points"):
        pk.fit_dimension(eps, y, 2.0, fit_range=(eps[2], eps[7]))
    est = pk.fit_dimension(eps, y, 2.0, fit_range=(eps[5], eps[9]))
    assert est.n_fit_points == 5


def test_box_dimension_counts_points_on_an_unsorted_grid():
    data = pk.sample(pk.catalog("henon"), 3000)
    eps = np.geomspace(0.01, 0.5, 12)
    order = np.random.default_rng(1).permutation(eps.size)
    fit_range = (eps[3], eps[9])
    est = pk.fit_dimension(*pk.generalized_curve(data, 0.0, eps[order]), 0.0, fit_range)
    assert est.n_fit_points == 7
    inside = eps[order][(eps[order] >= eps[3]) & (eps[order] <= eps[9])]
    assert est.window == (float(inside[0]), float(inside[-1]))
    ordered = pk.fit_dimension(*pk.generalized_curve(data, 0.0, eps), 0.0, fit_range)
    assert est.value == pytest.approx(ordered.value, rel=1e-12)


def test_fit_slope_with_fewer_than_two_points_is_a_scaling_region_error():
    with pytest.raises(pk.ScalingRegionError, match="at least 2 points"):
        pk.fit_slope(np.array([1.0]), np.array([2.0]))


def test_fit_slope_on_equal_abscissas_is_a_scaling_region_error():
    with pytest.raises(pk.ScalingRegionError, match="all x equal"):
        pk.fit_slope(np.full(4, 0.5), np.arange(4.0))
