import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

import phasekit as pk
from phasekit.embedding import successor_index
from phasekit.predict import _successor_stability, value_feature


def line_embedding(values):
    return pk.embed(pk.TimeSeries(np.asarray(values, dtype=float)), 1, 1)


# five points whose two nearest admissible neighbors of the last row are
# rows 0 and 2, with successors 1.3 and 1.4
NEIGHBOR_SERIES = [0.88, 1.3, 0.92, 1.4, 0.9]


def test_e_psi_squared_residuals():
    emb = line_embedding(NEIGHBOR_SERIES)
    res = pk.local_mean_forecast(emb, [0, 2], lambda_min=0.0)
    # neighbor successors 1.3 and 1.4 against their mean 1.35
    assert res.e_psi == pytest.approx(2 * 0.05 ** 2, abs=1e-12)
    assert not res.gated


def test_e_psi_zero_for_exact_model():
    # period-2 data: the neighbors' successors coincide, so their mean is exact
    emb = line_embedding(np.arange(30) % 2)
    nbrs, _ = successor_index(emb).query_point(emb.points[29], emb.times[29], 4)
    res = pk.local_mean_forecast(emb, nbrs, lambda_min=0.0)
    assert res.e_psi == 0.0
    np.testing.assert_array_equal(res.forecast, [0.0])
    assert res.stability.lambda_d == math.inf
    with pytest.raises(pk.InsufficientDataError):
        pk.local_mean_forecast(emb, [28, 29], 0.0)  # the last row has no successor


def test_local_mean_forecast_gates():
    emb = line_embedding(NEIGHBOR_SERIES)
    free = pk.local_mean_forecast(emb, [0, 2], lambda_min=9.0)
    assert free.j == 2.0 and not free.gated  # lambda_D = 1 / 0.1
    np.testing.assert_array_equal(free.forecast, emb.points[[1, 3]].mean(axis=0))
    for gated in (pk.local_mean_forecast(emb, [0, 2], 0.0, gate=free.e_psi),
                  pk.local_mean_forecast(emb, [0, 2], lambda_min=11.0)):
        assert gated.gated
        np.testing.assert_array_equal(gated.forecast, [0.0])
        assert gated.e_psi == free.e_psi
    assert pk.local_mean_forecast(emb, [0, 2], lambda_min=11.0).j == 0.0


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


def _mean_state_forecast(emb, row, k):
    sub = successor_index(emb)
    nbrs, _ = sub.query_point(emb.points[row], emb.times[row], k)
    return nbrs, pk.local_mean_forecast(emb, nbrs, lambda_min=0.0)


def test_mean_state_model_mean_of_successors():
    emb = line_embedding(NEIGHBOR_SERIES)
    nbrs, res = _mean_state_forecast(emb, 4, 2)
    assert list(nbrs) == [0, 2]
    np.testing.assert_allclose(res.forecast, [(1.3 + 1.4) / 2])
    assert (res.stability.j2, res.j) == (2, 2.0)
    with pytest.raises(pk.InsufficientDataError, match="at least 2 points"):
        _mean_state_forecast(emb, 4, 1)
    with pytest.raises(ValueError, match="k must be >= 1"):
        _mean_state_forecast(emb, 4, 0)


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
    nbrs, res = _mean_state_forecast(emb, emb.n_points - 1, k)
    assert np.array_equal(res.forecast, emb.points[nbrs + 1].mean(axis=0))
    inline = float(np.sum((emb.points[nbrs + 1] - res.forecast) ** 2))
    assert res.e_psi == inline


def test_successor_index_excludes_last_row():
    emb = line_embedding(np.arange(10.0))
    sub = successor_index(emb, 1, 1)
    nbrs, _ = sub.query_point(emb.points[9], 9, 3)
    assert 9 not in nbrs
    assert all(n + 1 <= 9 for n in nbrs)


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
    with pytest.raises(ValueError, match="no feature transforms given"):
        pk.stepwise_reconstruct(series, (), m_values=(1,), tau_values=(1,),
                                lambda_min=1.0)
