import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

import phasekit as pk
from phasekit.embedding import successor_index
from phasekit.predict import (ColdStartWarning, PredictorModel,
                              _successor_stability, layout_mask,
                              step_sign_feature, value_feature)
from phasekit.regressors import LinearRegressor


def line_embedding(values):
    return pk.embed(pk.TimeSeries(np.asarray(values, dtype=float)), 1, 1)


# five points whose two nearest admissible neighbors of the last row are
# rows 0 and 2, with successors 1.3 and 1.4
NEIGHBOR_SERIES = [0.88, 1.3, 0.92, 1.4, 0.9]


def constant_predictor(value):
    w = np.array([[0.0], [value]])  # zero slope, intercept only
    return PredictorModel((("m1", (0,)),), LinearRegressor(w), "value")


def test_layout_mask_global():
    mask = layout_mask("global", 2, 2)
    expect = np.zeros((5, 5), dtype=bool)
    expect[2, 2:] = True  # offsets 0, -1, -2 of the forecast row
    np.testing.assert_array_equal(mask, expect)


def test_layout_mask_local_next():
    mask = layout_mask("local_next", 2, 2)
    assert mask[:, 1].sum() == 4  # all neighbor rows at offset +1
    assert not mask[2].any()  # forecast row empty
    assert mask.sum() == 4


def test_layout_mask_local_with_current():
    mask = layout_mask("local_with_current", 1, 2)
    assert mask[0, 1] and mask[0, 2]  # neighbor: offsets +1 and 0
    assert mask[2, 1] and mask[2, 2]
    assert not mask[1, 1]  # no future cell for the forecast row
    assert mask[1, 2]
    assert mask.sum() == 5
    with pytest.raises(pk.ConfigError):
        layout_mask("diagonal", 1, 1)


def test_build_tableau_row_order_and_values():
    emb = line_embedding(np.arange(30.0))
    tab = pk.build_tableau(emb, 15, r=1, k=1, layout="global")
    # equidistant neighbors 13 and 17: tie goes to the lower row
    assert tab.neighbor_rows == (13, 17)
    assert tab.distances == (2.0, 2.0)
    assert tab.center == 15
    assert tab.center_grid_row == 1
    np.testing.assert_allclose(tab.grid[1, 1], [15.0])
    np.testing.assert_allclose(tab.grid[1, 2], [14.0])
    assert not tab.mask[1, 0]  # no future cell
    np.testing.assert_allclose(tab.flatten(), [15.0, 14.0])


def test_build_tableau_local_next_uses_successors():
    emb = line_embedding(np.arange(30.0))
    tab = pk.build_tableau(emb, 15, r=1, k=1, layout="local_next")
    # grid rows: rank 1 neighbor, forecast point, rank 2 neighbor
    np.testing.assert_allclose(tab.grid[0, 0], [14.0])  # successor of 13
    np.testing.assert_allclose(tab.grid[2, 0], [18.0])  # successor of 17
    assert not tab.mask[1].any()


def test_build_tableau_end_of_series_neighbors():
    emb = line_embedding(np.arange(30.0))
    tab = pk.build_tableau(emb, 29, r=1, k=1, layout="local_next")
    # row 28 is inside the Theiler window; row 29 has no successor
    assert tab.neighbor_rows == (27, 26)


def _brute_tableau_rows(emb, row, r, k, mask):
    """First 2r rows, in (distance, row) order, outside the Theiler window
    whose k-step history, successor and populated offsets all exist."""
    offsets = k - np.arange(2 * k + 1)
    nbr_offsets = offsets[np.delete(mask, r, axis=0).any(axis=0)]
    last = emb.n_points - 1
    adm = np.flatnonzero(np.abs(emb.times - emb.times[row]) > emb.default_theiler())
    d = np.sqrt(np.sum((emb.points[adm] - emb.points[row]) ** 2, axis=1))
    keep = [int(i) for i in adm[np.lexsort((adm, d))]
            if i - k >= 0 and i + 1 <= last
            and all(0 <= i + off <= last for off in nbr_offsets)]
    return tuple(keep[:2 * r])


@pytest.mark.parametrize("layout", ["global", "local_next", "local_with_current"])
@pytest.mark.parametrize("row", [3, 20, 38])
def test_build_tableau_offset_filter_at_the_series_edges(layout, row):
    # A period-5 sawtooth: each row's nearest rows are its exact repeats,
    # including rows 0-2 and 39, whose offsets fall outside the data.
    emb = line_embedding(np.tile(np.arange(5.0), 8))
    r, k = 3, 2
    tab = pk.build_tableau(emb, row, r=r, k=k, layout=layout)
    assert tab.neighbor_rows == _brute_tableau_rows(emb, row, r, k,
                                                    layout_mask(layout, r, k))
    if row == 20:
        assert tab.neighbor_rows == (5, 10, 15, 25, 30, 35)  # row 0 discarded


def test_build_tableau_synthetic_masks():
    emb = line_embedding(np.arange(30.0))
    mask = layout_mask("local_next", 1, 1)
    tab = pk.build_tableau(emb, 15, r=1, k=1, layout=mask)
    assert tab.layout == "local_next"  # canonical pattern is recognized
    custom = np.zeros((3, 3), dtype=bool)
    custom[0, 2] = True
    assert pk.build_tableau(emb, 15, 1, 1, layout=custom).layout == "synthetic"
    with pytest.raises(pk.ConfigError):
        pk.build_tableau(emb, 15, 1, 1, layout=np.zeros((3, 5), dtype=bool))
    with pytest.raises(pk.ConfigError):
        pk.build_tableau(emb, 15, 1, 1, layout=np.zeros((3, 3), dtype=bool))
    future = custom.copy()
    future[1, 0] = True
    with pytest.raises(pk.ConfigError):
        pk.build_tableau(emb, 15, 1, 1, layout=future)
    with pytest.raises(pk.ConfigError):
        pk.build_tableau(emb, 15, 0, 1)


def test_build_tableau_needs_history():
    emb = line_embedding(np.arange(30.0))
    with pytest.raises(pk.InsufficientDataError):
        pk.build_tableau(emb, 0, r=1, k=1, layout="global")


def test_preprocess_value_features():
    series = pk.TimeSeries(np.array([2.0, 4.0, 8.0, 16.0]))
    emb = pk.embed(series, 1, 1)
    row = 3
    np.testing.assert_allclose(
        pk.preprocess_features(series, emb, row, [("m1", (0, 1))]), [16.0, 8.0])
    np.testing.assert_allclose(
        pk.preprocess_features(series, emb, row, [("m2", (0, 2))]), [10.0])
    # linear weights (2, 1) over lags (0, 1)
    np.testing.assert_allclose(
        pk.preprocess_features(series, emb, row, [("m4", (0, 1))]),
        [(2 * 16.0 + 8.0) / 3])
    # nearest admissible neighbor of 16 is the sample 4 at time 1
    np.testing.assert_allclose(
        pk.preprocess_features(series, emb, row, [("m3", (1,))]), [4.0])


def test_preprocess_error_history():
    series = pk.TimeSeries(np.array([2.0, 4.0, 8.0, 16.0]))
    emb = pk.embed(series, 1, 1)
    errs = [0.5, 0.25]  # most recent last
    np.testing.assert_allclose(
        pk.preprocess_features(series, emb, 3, [("m5", (1, 2))],
                               model_errors=errs), [0.25, 0.5])
    with pytest.warns(ColdStartWarning):
        out = pk.preprocess_features(series, emb, 3, [("m5", (3,))],
                                     model_errors=errs)
    np.testing.assert_allclose(out, [0.0])
    with pytest.raises(pk.ConfigError):
        pk.preprocess_features(series, emb, 3, [("m5", (1,))])


def test_preprocess_rejects_bad_specs():
    series = pk.TimeSeries(np.array([2.0, 4.0, 8.0, 16.0]))
    emb = pk.embed(series, 1, 1)
    with pytest.raises(pk.ConfigError):
        pk.preprocess_features(series, emb, 3, [("m9", (0,))])
    with pytest.raises(pk.ConfigError):
        pk.preprocess_features(series, emb, 3, [("m1", ())])
    with pytest.raises(pk.ConfigError):
        pk.preprocess_features(series, emb, 3, [("m1", (-1,))])
    with pytest.raises(pk.ConfigError):
        pk.preprocess_features(series, emb, 3, [("m3", (0,))])
    with pytest.raises(pk.InsufficientDataError):
        pk.preprocess_features(series, emb, 3, [("m1", (9,))])


def test_e_psi_squared_residuals():
    series = pk.TimeSeries(np.array(NEIGHBOR_SERIES))
    emb = pk.embed(series, 1, 1)
    model = constant_predictor(1.0)
    # neighbor successors 1.3 and 1.4 against constant forecast 1.0
    val = pk.e_psi(model, series, emb, [0, 2])
    assert val == pytest.approx(0.3 ** 2 + 0.4 ** 2, abs=1e-12)


def test_e_psi_zero_for_exact_model():
    values = np.arange(30.0)
    series = pk.TimeSeries(values)
    emb = pk.embed(series, 1, 1)
    exact = PredictorModel((("m1", (0,)),),
                           LinearRegressor(np.array([[1.0], [1.0]])), "value")
    nbrs, _ = successor_index(emb).query_point(emb.points[20], emb.times[20], 4)
    assert pk.e_psi(exact, series, emb, nbrs) == pytest.approx(0.0)
    with pytest.raises(pk.InsufficientDataError):
        pk.e_psi(exact, series, emb, [29])  # the last row has no successor


def test_select_prediction_ranking_and_gate():
    picked = pk.select_prediction([(10.0, 0.5), (20.0, 0.2), (30.0, 0.9)])
    assert (picked.forecast, picked.index) == (20.0, 1)
    assert not picked.gated
    assert picked.e_psi == pytest.approx(0.2)
    tie = pk.select_prediction([(10.0, 0.4), (20.0, 0.4)])
    assert tie.index == 0
    gated = pk.select_prediction([(10.0, 0.5), (20.0, 0.2)], gate=0.2)
    assert gated.gated and gated.forecast == 0.0
    vec = pk.select_prediction([(np.array([1.0, 2.0]), 0.5)], gate=0.1)
    np.testing.assert_array_equal(vec.forecast, [0.0, 0.0])
    with pytest.raises(pk.ConfigError):
        pk.select_prediction([])


@given(st.floats(0.01, 100.0), st.integers(0, 10 ** 6))
def test_select_prediction_scale_invariant_when_ungated(c, seed):
    rng = np.random.default_rng(seed)
    errs = rng.uniform(0.1, 1.0, size=5)
    cands = [(float(i), float(e)) for i, e in enumerate(errs)]
    scaled = [(f, c * e) for f, e in cands]
    assert pk.select_prediction(cands).index == pk.select_prediction(scaled).index


def test_local_stability_values():
    emb = line_embedding([0.0, 1.0, 1.5, 5.0])
    res = pk.local_stability(emb, [0, 1])
    assert res.lambda_d == pytest.approx(2.0)  # successor spread 0.5
    assert res.j1 == res.lambda_d
    assert res.j2 == 2
    same = line_embedding([0.0, 5.0, 3.0, 5.0, 3.0])
    assert pk.local_stability(same, [1, 3]).lambda_d == math.inf
    with pytest.raises(pk.InsufficientDataError):
        pk.local_stability(emb, [0])
    with pytest.raises(pk.InsufficientDataError):
        pk.local_stability(emb, [2, 3])  # row 3 has no successor


def _all_pairs_stability(points):
    dmax = float(pdist(points).max())
    return math.inf if dmax == 0.0 else 1.0 / dmax


@pytest.mark.parametrize("points", [
    np.random.default_rng(0).standard_normal((500, 1)),     # m = 1: max - min
    np.random.default_rng(1).standard_normal((2000, 2)),
    np.random.default_rng(2).standard_normal((800, 3)),
    np.array([[0.0, 0.0], [1.0, 1.0]]),                    # too few for a hull
    np.column_stack([np.arange(9.0), 2.0 * np.arange(9.0)]),  # collinear
    np.repeat([[0.3, -1.0], [0.3, -1.0], [2.0, 4.0], [-1.0, 0.5]], 5, axis=0),
    np.round(np.random.default_rng(3).standard_normal((300, 2)), 1),  # ties
    np.full((6, 2), 0.25),                                  # one point: +inf
])
def test_successor_stability_equals_all_pairs_maximum(points):
    assert _successor_stability(points) == _all_pairs_stability(points)


def test_composite_j_gate():
    assert pk.composite_J(3.0, 7.0, 2.0) == 7.0
    assert pk.composite_J(1.0, 7.0, 2.0) == 0.0
    assert pk.composite_J(2.0, 7.0, 2.0) == 7.0  # boundary passes


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
def test_composite_j_binary(j1, j2, lam):
    assert pk.composite_J(j1, j2, lam) in (0.0, j2)


def _mean_state_forecast(series, emb, row, k):
    sub = successor_index(emb)
    nbrs, _ = sub.query_point(emb.points[row], emb.times[row], k)
    model = pk.fit_predictor(series, emb, nbrs, (), kind="mean",
                             target_kind="state", index=sub)
    return model, nbrs, model.predict(series, emb, row, index=sub)


def test_mean_state_model_mean_of_successors():
    series = pk.TimeSeries(np.array(NEIGHBOR_SERIES))
    emb = pk.embed(series, 1, 1)
    model, _, out = _mean_state_forecast(series, emb, 4, 2)
    assert isinstance(model.regressor, pk.MeanRegressor)
    np.testing.assert_allclose(out, [(1.3 + 1.4) / 2])
    _, _, single = _mean_state_forecast(series, emb, 4, 1)
    np.testing.assert_allclose(single, [1.3])  # tie resolved to row 0
    with pytest.raises(ValueError, match="k must be >= 1"):
        _mean_state_forecast(series, emb, 4, 0)


def _seeded_series(name, steps, seed):
    system = pk.catalog(name)
    rng = np.random.default_rng(seed)
    x0 = np.asarray(system.x0_default, dtype=float)
    x0 = x0 * (1.0 + 1e-3 * rng.standard_normal(x0.shape))
    return pk.TimeSeries(pk.sample(system, steps, x0=x0)[:, :1])


@pytest.mark.parametrize("name, steps, m, tau", [
    ("henon", 2000, 2, 1), ("lorenz", 3000, 3, 17), ("rossler", 2000, 3, 8)])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [4, 10])
def test_mean_state_model_equals_the_inline_local_mean(name, steps, m, tau, seed, k):
    # the forecast and E_psi of the local-average predictor, written out
    series = _seeded_series(name, steps, seed)
    emb = pk.embed(series, m, tau)
    row = emb.n_points - 1
    model, nbrs, forecast = _mean_state_forecast(series, emb, row, k)
    assert np.array_equal(forecast, emb.points[nbrs + 1].mean(axis=0))
    inline = float(np.sum((emb.points[nbrs + 1] - forecast) ** 2))
    assert pk.e_psi(model, series, emb, nbrs, index=successor_index(emb)) == inline


def test_successor_index_excludes_last_row():
    emb = line_embedding(np.arange(10.0))
    sub = successor_index(emb, 1, 1)
    nbrs, _ = sub.query_point(emb.points[9], 9, 3)
    assert 9 not in nbrs
    assert all(n + 1 <= 9 for n in nbrs)


def test_confidence_value_and_feature():
    assert pk.confidence_value(3.0, 0.5) == pytest.approx(2.0)
    assert pk.confidence_value(-3.0, 0.5) == pytest.approx(-2.0)
    with pytest.raises(pk.ConfigError):
        pk.confidence_value(1.0, 0.0)
    feat = pk.predict.confidence_feature(np.array([1.0, -2.0]),
                                         np.array([0.5, 4.0]))
    np.testing.assert_allclose(feat.fn(np.zeros(2)), [2.0, -0.25])
    with pytest.raises(pk.ConfigError):
        feat.fn(np.zeros(3))


def test_train_regressor_linear_exact():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2))
    y = 2.0 * x[:, 0] - 3.0 * x[:, 1] + 1.0
    reg = pk.train_regressor(x, y, kind="linear")
    assert reg.kind == "linear"
    np.testing.assert_allclose(reg.predict(x).ravel(), y, atol=1e-10)
    with pytest.raises(pk.ConfigError):
        pk.train_regressor(x, y, kind="forest")


def test_train_regressor_net_learns_xor():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    reg = pk.train_regressor(x, y, kind="net")
    mse = float(np.mean((reg.predict(x).ravel() - y) ** 2))
    assert mse < 0.01
    again = pk.train_regressor(x, y, kind="net")
    np.testing.assert_array_equal(reg.predict(x), again.predict(x))


def alternating_series(n):
    return pk.TimeSeries((np.arange(n) % 2).astype(float))


def geometric_feature(name="wild"):
    return pk.predict.FeatureTransform(
        name, lambda y: 2.0 ** np.arange(len(y)))


def test_stepwise_hand_checked_winner():
    n = 40
    series = alternating_series(n)
    feats = (value_feature(), geometric_feature())
    report = pk.stepwise_reconstruct(series, feats, m_values=(1, 2),
                                     tau_values=(1, 2), lambda_min=10.0)
    # period-2 data: every same-phase point coincides, successors identical
    assert report.features == ("value",)
    assert (report.m, report.tau) == (1, 1)  # tau tie resolved downward
    assert report.lambda_d == math.inf
    # same-parity rows 1, 3, ..., 37 (Theiler window drops row 38)
    assert report.n_neighbors == 19
    assert report.j == 19.0
    np.testing.assert_allclose(report.forecast, [0.0], atol=1e-12)
    assert report.configs_evaluated == 6
    assert report.configs_gated == 4  # every combination with the wild feature


def test_stepwise_skips_oversized_m():
    series = alternating_series(40)
    report = pk.stepwise_reconstruct(series, (value_feature(),),
                                     m_values=(1, 5), tau_values=(1,),
                                     lambda_min=1.0)
    assert report.configs_evaluated == 1


def test_stepwise_all_gated():
    series = alternating_series(40)
    with pytest.raises(pk.PhasekitError, match="lower lambda_min"):
        pk.stepwise_reconstruct(series, (geometric_feature(),),
                                m_values=(1,), tau_values=(1,),
                                lambda_min=1.0)
    with pytest.raises(pk.ConfigError):
        pk.stepwise_reconstruct(series, (), m_values=(1,), tau_values=(1,),
                                lambda_min=1.0)


def test_fit_predictor_linear_pipeline():
    values = np.sin(0.3 * np.arange(120.0))
    series = pk.TimeSeries(values)
    emb = pk.embed(series, 2, 1)
    rows = range(5, 80)
    model = pk.predict.fit_predictor(series, emb, rows, [("m1", (0, 1))],
                                     kind="linear")
    pred = model.predict(series, emb, 100)
    assert pred == pytest.approx(values[int(emb.times[100]) + 1], abs=1e-6)


def test_m3_feature_at_the_forecast_row_of_a_successor_index():
    series = pk.TimeSeries(np.sin(0.3 * np.arange(200.0)))
    emb = pk.embed(series, 2, 1)
    sub = successor_index(emb)
    row = emb.n_points - 1   # left out of the successor index
    out = pk.preprocess_features(series, emb, row, [("m3", (1, 2))], index=sub)
    nbrs, _ = sub.query_point(emb.points[row], emb.times[row], 2)
    assert out[0] == np.mean(series.column(0)[emb.times[nbrs]])


def test_tableau_and_m3_feature_share_the_index_window():
    # The index's window, not the embedding's (5 here), rules both: with
    # window 0 the nearest rows of row 150 are its own time neighbours.
    k = np.arange(400.0)
    series = pk.TimeSeries(np.sin(0.01 * k) + 0.001 * np.sin(0.37 * k))
    emb = pk.embed(series, 3, 2)
    index = pk.NeighborIndex(emb, theiler=0)
    row = 150
    tab = pk.build_tableau(emb, row, 2, 1, index=index)
    nbrs, _ = index.query_point(emb.points[row], emb.times[row], 4)
    assert tab.neighbor_rows == tuple(nbrs) == (151, 149, 152, 148)
    out = pk.preprocess_features(series, emb, row, [("m3", (1, 2, 3, 4))], index=index)
    assert out[0] == np.mean(series.column(0)[emb.times[list(tab.neighbor_rows)]])


@pytest.mark.parametrize("spec, builds", [
    ([("m1", (0, 1))], 0),
    ([("m1", (0,)), ("m3", (1, 2))], 1),
], ids=["no-m3", "m3"])
def test_fit_predictor_and_e_psi_build_one_index_only_for_m3(monkeypatch, spec, builds):
    series = pk.TimeSeries(np.sin(0.3 * np.arange(300.0)))
    emb = pk.embed(series, 2, 1)
    calls = []
    init = pk.NeighborIndex.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pk.NeighborIndex, "__init__", counted)
    rows = range(100, 110)
    model = pk.fit_predictor(series, emb, rows, spec, kind="linear")
    assert len(calls) == builds
    pk.e_psi(model, series, emb, rows)
    assert len(calls) == 2 * builds
