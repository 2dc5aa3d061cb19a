import math

import numpy as np
import pytest

import phasekit as pk

HENON_LAMBDA1 = 0.419
HENON_BAND = 0.06  # tolerance shared by the delay-coordinate estimators


def test_benettin_exact_henon():
    spec = pk.benettin_exact(pk.catalog("henon"), 100000)
    lam = spec.exponents
    assert lam[0] == pytest.approx(HENON_LAMBDA1, abs=0.01)
    # constant Jacobian determinant pins the sum exactly
    assert sum(lam) == pytest.approx(math.log(0.3), abs=1e-6)
    assert spec.method == "benettin-exact"
    assert spec.dt == 1.0
    assert spec.steps == 100000


def test_benettin_exact_lorenz_volume_rate():
    dt = 0.01
    spec = pk.benettin_exact(pk.catalog("lorenz"), 20000, dt=dt)
    lam = spec.exponents
    assert len(lam) == 3
    assert lam[0] > 0 > lam[2]
    assert abs(lam[1] / dt) < 0.02  # neutral direction
    assert sum(lam) == pytest.approx(-41.0 / 3.0 * dt, rel=1e-3)
    assert spec.dt == dt


def test_benettin_exact_constant_divergence():
    dt = 0.1
    spec = pk.benettin_exact(pk.catalog("test42"), 20000, dt=dt)
    assert sum(spec.exponents) == pytest.approx(-0.23 * dt, abs=1e-6)


def test_benettin_exact_partial_spectrum():
    spec = pk.benettin_exact(pk.catalog("henon"), 50000, n_exp=1)
    assert len(spec.exponents) == 1
    assert spec.exponents[0] == pytest.approx(HENON_LAMBDA1, abs=0.01)


def test_benettin_exact_rejects_bad_args():
    sys = pk.catalog("henon")
    with pytest.raises(ValueError):
        pk.benettin_exact(sys, 100, n_exp=5)
    with pytest.raises(ValueError):
        pk.benettin_exact(sys, 0)
    with pytest.raises(ValueError):
        pk.benettin_exact(sys, 100, renorm_interval=0)


def test_wolf_henon(henon_emb):
    res = pk.wolf_lambda1(henon_emb)
    assert res.lambda1 == pytest.approx(HENON_LAMBDA1, abs=HENON_BAND)
    assert res.dt == 1.0
    assert res.evolve_steps == 1
    assert res.segments == res.total_steps  # renormalize every step
    assert res.total_steps > 0


def test_wolf_needs_neighbors():
    emb = pk.embed(pk.TimeSeries(np.arange(5.0)), 2, 1)
    with pytest.raises(pk.InsufficientDataError):
        pk.wolf_lambda1(emb)


def test_rosenstein_henon(henon_emb):
    curve = pk.rosenstein_curve(henon_emb, horizon=15)
    assert curve.method == "rosenstein"
    assert curve.offsets[0] == 0
    assert curve.values[1] > curve.values[0]  # separation grows early on
    rate = pk.divergence_rate(curve)
    assert rate.value == pytest.approx(HENON_LAMBDA1, abs=HENON_BAND)
    assert curve.offsets[0] <= rate.window[0] < rate.window[1] <= curve.offsets[-1]


def test_rosenstein_horizon_too_long():
    emb = pk.embed(pk.TimeSeries(np.arange(8.0)), 2, 1)
    with pytest.raises(pk.InsufficientDataError):
        pk.rosenstein_curve(emb, horizon=20)


def test_kantz_henon(henon_emb):
    eps0 = 0.01 * pk.data_diameter(henon_emb.points)
    curve = pk.kantz_curve(henon_emb, eps0=eps0, horizon=15)
    assert curve.method == "kantz"
    assert curve.eps0 == eps0
    rate = pk.divergence_rate(curve)
    assert rate.value == pytest.approx(HENON_LAMBDA1, abs=HENON_BAND)


def test_kantz_rejects_nonpositive_radius(henon_emb):
    with pytest.raises(ValueError):
        pk.kantz_curve(henon_emb, eps0=0.0, horizon=5)


def test_benettin_data_henon(henon_emb):
    spec = pk.benettin_data(henon_emb)
    lam = spec.exponents
    assert lam[0] == pytest.approx(HENON_LAMBDA1, abs=HENON_BAND)
    assert lam[1] < 0
    assert spec.method == "benettin-data"


def test_benettin_data_rejects_bad_args(henon_emb):
    with pytest.raises(ValueError):
        pk.benettin_data(henon_emb, n_exp=3)
    with pytest.raises(ValueError):
        pk.benettin_data(henon_emb, k_neighbors=1)
    with pytest.raises(ValueError):
        pk.benettin_data(henon_emb, renorm_interval=0)
    with pytest.raises(pk.InsufficientDataError):
        pk.benettin_data(henon_emb, steps=0)


def test_benettin_data_names_first_singular_row():
    # Rows 120.. lie on a horizontal line far from the cloud of rows 0..119,
    # so their neighborhoods span one direction only.
    rng = np.random.default_rng(3)
    cloud = rng.uniform(0.0, 1.0, size=(120, 2))
    line = np.column_stack([np.linspace(10.0, 20.0, 80), np.full(80, 10.0)])
    emb = pk.DelayEmbedding(np.vstack([cloud, line]), np.arange(200), 1, 1, 1.0)
    with pytest.raises(pk.DegenerateDataError, match="at row 120;"):
        pk.benettin_data(emb)


def test_rosenstein_breaks_ties_by_lower_row():
    # An integer-valued series: most rows have several nearest neighbors at
    # the same distance, and the lowest admissible row must win.
    values = np.random.default_rng(5).integers(0, 10, size=300).astype(float)
    emb = pk.embed(pk.TimeSeries(values), 3, 1)
    horizon, theiler = 4, 2
    curve = pk.rosenstein_curve(emb, horizon, theiler=theiler)
    pts = emb.points
    n = emb.n_points - horizon
    refs, nns = [], []
    for r in range(n):
        adm = np.array([j for j in range(n) if abs(j - r) > theiler])
        d = np.sqrt(np.sum((pts[adm] - pts[r]) ** 2, axis=1))
        j = adm[np.lexsort((adm, d))[0]]
        if d.min() > 0.0:
            refs.append(r)
            nns.append(j)
    refs, nns = np.array(refs), np.array(nns)
    assert curve.n_refs == refs.size
    for i in range(horizon + 1):
        d = np.sqrt(np.sum((pts[refs + i] - pts[nns + i]) ** 2, axis=1))
        assert curve.values[i] == np.mean(np.log(d[d > 0.0]))


def test_divergence_rate_manual_window_exact():
    offsets = np.arange(21)
    curve = pk.DivergenceCurve(offsets, 0.05 * offsets - 1.0, 10, 1.0,
                               "rosenstein", None)
    rate = pk.divergence_rate(curve, fit_range=(2, 9))
    assert rate.value == pytest.approx(0.05, abs=1e-12)
    assert rate.window == (2.0, 9.0)
    with pytest.raises(ValueError):
        pk.divergence_rate(curve, fit_range=(3.2, 3.4))


def test_divergence_rate_range_outside_curve_is_scaling_region_error():
    offsets = np.arange(13)
    curve = pk.DivergenceCurve(offsets, 0.4 * offsets, 10, 1.0, "rosenstein", None)
    with pytest.raises(pk.ScalingRegionError, match="fewer than 2 offsets"):
        pk.divergence_rate(curve, fit_range=(50, 60))


def test_divergence_rate_auto_stops_at_plateau():
    offsets = np.arange(30)
    values = np.minimum(0.1 * offsets, 1.0)  # linear head, flat tail
    curve = pk.DivergenceCurve(offsets, values, 10, 1.0, "rosenstein", None)
    rate = pk.divergence_rate(curve)
    assert rate.value == pytest.approx(0.1, abs=0.01)
    assert rate.window[1] <= 11


def test_spectrum_checks_flow():
    rep = pk.spectrum_checks((0.009, 0.00005, -0.028), kind="flow")
    assert rep.dissipative
    assert rep.zero_exponent_ok
    assert rep.sum_exponents == pytest.approx(-0.01895)
    assert rep.entropy_rate == pytest.approx(0.00905)


def test_spectrum_checks_map_and_expanding():
    rep = pk.spectrum_checks((0.4, -1.6), kind="map")
    assert rep.zero_exponent_ok is None
    assert rep.dissipative
    rep2 = pk.spectrum_checks((0.5, 0.2), kind="flow")
    assert not rep2.dissipative
    assert not rep2.zero_exponent_ok
    assert rep2.entropy_rate == pytest.approx(0.7)


def test_spectrum_checks_accepts_spectrum_object():
    spec = pk.LyapunovSpectrum((0.42, -1.62), "benettin-exact", 10, 1.0)
    rep = pk.spectrum_checks(spec, kind="map")
    assert rep.sum_exponents == pytest.approx(-1.2)
