import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import phasekit as pk
from phasekit.identify import TimeBasis, _state_run, parse_term


def damped_rotation(angle=0.7, rho=0.95):
    c, s = np.cos(angle), np.sin(angle)
    return rho * np.array([[c, -s], [s, c]])


def run_discrete(B, psi, basis, x0, steps, dt=1.0, t0=0.0):
    x = np.asarray(x0, dtype=float)
    phi = basis.evaluate(t0 + dt * np.arange(steps))
    out = [x]
    for k in range(steps - 1):
        x = B @ x + psi @ phi[k]
        out.append(x)
    return np.array(out)


def test_discrete_recovery_exact():
    B = damped_rotation()
    psi = np.array([[0.10], [-0.20]])
    basis = pk.parse_basis("t")
    states = run_discrete(B, psi, basis, [1.0, 0.3], 40)
    C = np.array([[1.0, 0.5]])
    y = states @ C.T + 0.7
    model = pk.fit_model(states, y, basis=basis)
    np.testing.assert_allclose(model.dynamics, B, atol=1e-8)
    np.testing.assert_allclose(model.psi_coeffs, psi, atol=1e-8)
    np.testing.assert_allclose(model.C, C, atol=1e-8)
    np.testing.assert_allclose(model.output_offset, [0.7], atol=1e-8)
    assert model.fit[0] > 99.999
    assert max(model.residual_rms) < 1e-10


def test_discrete_recovery_multichannel_outputs():
    B = damped_rotation(0.4, 0.9)
    basis = TimeBasis(())
    states = run_discrete(B, np.zeros((2, 0)), basis, [1.0, -1.0], 30)
    C = np.array([[1.0, 0.0], [2.0, -1.0]])
    y = states @ C.T + np.array([0.1, -0.2])
    model = pk.fit_model(states, y)
    np.testing.assert_allclose(model.C, C, atol=1e-8)
    np.testing.assert_allclose(model.output_offset, [0.1, -0.2], atol=1e-8)
    assert len(model.fit) == 2
    assert min(model.fit) > 99.9


def test_continuous_recovery_harmonic():
    dt = 0.01
    t = dt * np.arange(600)
    states = np.column_stack([np.cos(t), -np.sin(t)])
    model = pk.fit_model(states, states[:, 0], mode="continuous", dt=dt)
    target = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # central differences limit the accuracy to O(dt^2)
    np.testing.assert_allclose(model.dynamics, target, atol=1e-3)
    assert model.fit[0] > 99.0


def test_fit_model_rejects_bad_input():
    good = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.raises(ValueError):
        pk.fit_model(good[:2], np.zeros(2))
    with pytest.raises(ValueError):
        pk.fit_model(good, np.zeros(7))
    with pytest.raises(pk.ConfigError):
        pk.fit_model(good, good[:, 0], mode="spectral")
    dup = np.column_stack([good[:, 0], good[:, 0]])
    with pytest.raises(pk.DegenerateDataError):
        pk.fit_model(dup, good[:, 0])


def test_simulate_decay_sequence():
    model = pk.ReducedModel("discrete", np.array([[0.5]]), np.zeros((1, 0)),
                            np.eye(1), np.zeros(1), TimeBasis(()), 1.0, 0.0,
                            None, (0.0,))
    out = pk.simulate(model, [1.0], 3)
    np.testing.assert_allclose(out.ravel(), [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        pk.simulate(model, [1.0], 0)
    with pytest.raises(ValueError):
        pk.simulate(model, [1.0, 2.0], 3)


def test_simulate_divergence_detected():
    # gain**step is the first power past the 1e12 limit
    for gain, step in ((2.0, 40), (1.2, 152)):
        model = pk.ReducedModel("discrete", np.array([[gain]]), np.zeros((1, 0)),
                                np.eye(1), np.zeros(1), TimeBasis(()), 1.0, 0.0,
                                None, (0.0,))
        with pytest.raises(pk.DivergenceError, match=f"diverged at step {step}$"):
            pk.simulate(model, [1.0], 400)


@pytest.mark.parametrize("x0", [1e13, math.inf])
def test_simulate_checks_x0_itself(x0):
    # x0 alone passes the limit; under B = 0.05 step 1 would be back below it
    model = pk.ReducedModel("discrete", np.array([[0.05]]), np.zeros((1, 0)),
                            np.eye(1), np.zeros(1), TimeBasis(()), 1.0, 0.0,
                            None, (0.0,))
    for steps in (1, 3):
        with pytest.raises(pk.DivergenceError, match="diverged at step 0$"):
            pk.simulate(model, [x0], steps)


def test_fit_percent_reference_points():
    y = np.array([1.0, 2.0, 3.0])
    assert pk.fit_percent(y, y)[0] == pytest.approx(100.0)
    assert pk.fit_percent(y, np.full(3, 2.0))[0] == pytest.approx(0.0)
    val = pk.fit_percent(np.array([0.0, 2.0]), np.zeros(2))[0]
    assert val == pytest.approx(100.0 * (1.0 - np.sqrt(2.0)))
    with pytest.raises(pk.DegenerateDataError):
        pk.fit_percent(np.ones(5), np.zeros(5))
    with pytest.raises(ValueError):
        pk.fit_percent(np.ones(5), np.zeros(4))


@given(st.floats(0.1, 50.0), st.floats(-5.0, 5.0), st.integers(0, 10 ** 6))
def test_fit_percent_affine_invariant(a, b, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=12)
    yhat = y + rng.normal(scale=0.3, size=12)
    base = pk.fit_percent(y, yhat)[0]
    moved = pk.fit_percent(a * y + b, a * yhat + b)[0]
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_parse_term_table():
    assert parse_term("1") == pk.identify.BasisTerm("poly", degree=0)
    assert parse_term("t").degree == 1
    assert parse_term("t^3").degree == 3
    assert parse_term("sin(2.0)").omega == 2.0
    two = parse_term("sin(2.0, 0.5)")
    assert (two.omega, two.phase) == (2.0, 0.5)
    assert parse_term("exp(-0.3)").alpha == -0.3
    for bad in ("q", "t^", "sin(1,2,3)"):
        with pytest.raises(pk.ConfigError):
            parse_term(bad)


def test_basis_term_validation():
    for kind in ("poly", "sin", "exp"):
        assert pk.identify.BasisTerm(kind).kind == kind
    with pytest.raises(pk.ConfigError, match="unknown basis term kind"):
        pk.identify.BasisTerm("cos")
    with pytest.raises(pk.ConfigError, match="polynomial degree"):
        pk.identify.BasisTerm("poly", degree=9)


def test_parse_basis_respects_parentheses():
    basis = pk.parse_basis("t^2, sin(2.0,0.5), 1")
    assert len(basis.terms) == 3
    t = np.array([0.0, 1.0, 2.0])
    cols = basis.evaluate(t)
    np.testing.assert_allclose(cols[:, 0], t ** 2)
    np.testing.assert_allclose(cols[:, 1], np.sin(2.0 * t + 0.5))
    np.testing.assert_allclose(cols[:, 2], 1.0)
    assert pk.parse_basis("  ").terms == ()


def test_basis_overflow_rejected():
    basis = pk.parse_basis("exp(500)")
    with pytest.raises(pk.ConfigError):
        basis.evaluate(np.array([0.0, 10.0]))


def test_build_state_sequence_identity_at_full_width(henon_emb):
    emb = pk.embed(pk.TimeSeries(np.sin(0.3 * np.arange(200.0))), 2, 3)
    states, record = pk.build_state_sequence(emb, 2)
    assert record.identity
    np.testing.assert_allclose(states, emb.points - emb.points.mean(axis=0))
    np.testing.assert_allclose(record.components, np.eye(2))


def test_build_state_sequence_projection():
    emb = pk.embed(pk.TimeSeries(np.sin(0.3 * np.arange(400.0))), 4, 5)
    states, record = pk.build_state_sequence(emb, 2)
    assert states.shape == (emb.n_points, 2)
    assert not record.identity
    # sign rule: dominant entry of each component is positive
    for comp in record.components:
        assert comp[np.argmax(np.abs(comp))] > 0
    recon = states @ record.components + record.mean
    # two principal coordinates carry a planar limit cycle
    assert np.max(np.abs(recon - emb.points)) < 1e-6


def test_build_state_sequence_rank_guard():
    emb = pk.embed(pk.TimeSeries(np.arange(50.0)), 2, 1)
    with pytest.raises(pk.DegenerateDataError):
        pk.build_state_sequence(emb, 2)
    with pytest.raises(pk.ConfigError):
        pk.build_state_sequence(emb, 3)


def test_estimate_x0_recovers_truth():
    B = damped_rotation(0.5, 0.9)
    basis = pk.parse_basis("sin(0.3)")
    psi = np.array([[0.2], [0.1]])
    x_true = np.array([0.8, -0.4])
    states = run_discrete(B, psi, basis, x_true, 50)
    C = np.array([[1.0, 1.0]])
    y = states @ C.T
    model = pk.ReducedModel("discrete", B, psi, C, np.zeros(1), basis,
                            1.0, 0.0, None, (0.0,))
    x0 = pk.estimate_x0(model, y)
    np.testing.assert_allclose(x0, x_true, atol=1e-9)
    with pytest.raises(ValueError):
        pk.estimate_x0(model, y[:1])


def _three_state_model(mode, basis, dt):
    rot = damped_rotation(0.5, 0.9)
    dyn = np.zeros((3, 3))
    dyn[:2, :2] = rot
    dyn[2, 2] = 0.8
    if mode == "continuous":
        dyn = (dyn - np.eye(3)) / dt   # slow decay, so the flow stays bounded
    psi = np.array([[0.2, -0.1, 0.01], [0.1, 0.05, -0.02],
                    [-0.3, 0.2, 0.005]])[:, :basis.size]
    C = np.array([[1.0, 1.0, 0.5], [0.0, -2.0, 1.0]])
    return pk.ReducedModel(mode, dyn, psi, C, np.array([0.3, -0.1]), basis,
                           dt, 1.5, None, (0.0,))


@pytest.mark.parametrize("mode,dt", [("discrete", 1.0), ("continuous", 0.05)])
def test_estimate_x0_recovers_truth_three_states_two_channels(mode, dt):
    basis = pk.parse_basis("sin(0.3), 1")
    model = _three_state_model(mode, basis, dt)
    x_true = np.array([0.8, -0.4, 1.1])
    y = pk.simulate(model, x_true, 60)
    assert y.shape == (60, 2)
    np.testing.assert_allclose(pk.estimate_x0(model, y), x_true, atol=1e-9)


def _rk4_reference(model, x0, steps):
    """Forced continuous run with a basis evaluation per RK4 stage."""
    def rhs(state, t):
        phi = model.basis.evaluate(np.array([t]))[0]
        return model.dynamics @ state + model.psi_coeffs @ phi

    x = np.asarray(x0, dtype=float)
    out = [x]
    for i in range(steps - 1):
        x = pk.rk4_step(rhs, x, model.t0 + i * model.dt, model.dt)
        out.append(x)
    return np.array(out) @ model.C.T + model.output_offset


def test_simulate_continuous_forced_matches_rk4_reference():
    basis = pk.parse_basis("1, t, sin(2.0,0.3)")
    model = _three_state_model("continuous", basis, 0.05)
    x0 = np.array([0.5, -1.0, 0.25])
    np.testing.assert_allclose(pk.simulate(model, x0, 200),
                               _rk4_reference(model, x0, 200), rtol=1e-12)


def test_simulate_basis_overflow_within_horizon_is_config_error():
    model = pk.ReducedModel("discrete", np.array([[2.0]]), np.array([[1e-300]]),
                            np.eye(1), np.zeros(1), pk.parse_basis("exp(10)"),
                            1.0, 0.0, None, (0.0,))
    # exp(10 t) overflows at t = 71, inside the 100-step horizon; the state
    # itself would pass 1e12 only at step 40
    with pytest.raises(pk.ConfigError, match="overflow"):
        pk.simulate(model, [1.0], 100)


def test_estimate_x0_unstable_free_mode_diverges():
    model = pk.ReducedModel("discrete", np.diag([0.5, 2.0, 0.3]),
                            np.zeros((3, 0)), np.ones((1, 3)), np.zeros(1),
                            TimeBasis(()), 1.0, 0.0, None, (0.0,))
    with pytest.raises(pk.DivergenceError):
        pk.estimate_x0(model, np.linspace(0.0, 1.0, 60))


def test_estimate_x0_divergence_check_is_per_run():
    # a scaled rotation keeps every free run at norm gain**step, which ends
    # at 8e11, below the 1e12 limit; the three runs stacked together have
    # norm 1.4e12, which must not count as divergence
    k = 50
    gain = 8e11 ** (1.0 / (k - 1))
    dyn = np.eye(3)
    dyn[:2, :2] = damped_rotation(0.7, 1.0)
    model = pk.ReducedModel("discrete", gain * dyn, np.zeros((3, 0)),
                            np.array([[1.0, 2.0, -1.0]]), np.zeros(1),
                            TimeBasis(()), 1.0, 0.0, None, (0.0,))
    x_true = np.array([1.0, 0.5, 0.25])
    y = pk.simulate(model, x_true, k)
    np.testing.assert_allclose(pk.estimate_x0(model, y), x_true, rtol=1e-9)


def test_model_json_round_trip():
    B = damped_rotation()
    basis = pk.parse_basis("t, sin(2.0,0.5)")
    psi = np.array([[0.1, 0.3], [-0.2, 0.05]])
    states = run_discrete(B, psi, basis, [1.0, 0.3], 25)
    model = pk.fit_model(states, states[:, 0], basis=basis)
    text = model.to_json()
    back = pk.ReducedModel.from_json(text)
    assert back.mode == model.mode
    np.testing.assert_array_equal(back.dynamics, model.dynamics)
    np.testing.assert_array_equal(back.psi_coeffs, model.psi_coeffs)
    np.testing.assert_array_equal(back.C, model.C)
    np.testing.assert_array_equal(back.output_offset, model.output_offset)
    assert back.fit == model.fit
    assert back.basis.terms == model.basis.terms
    assert (back.dt, back.t0) == (model.dt, model.t0)


def test_moving_average_windows():
    vals = np.array([0.0, 3.0, 0.0, 3.0, 0.0])
    out = pk.moving_average(vals, 3)
    np.testing.assert_allclose(out, [1.5, 1.0, 2.0, 1.0, 1.5])
    np.testing.assert_allclose(pk.moving_average(vals, 1), vals)
    const = pk.moving_average(np.full((6, 2), 4.0), 5)
    np.testing.assert_allclose(const, 4.0)


def _random_stable_model(seed, mode, n, channels=2):
    rng = np.random.default_rng(seed)
    dt = 1.0 if mode == "discrete" else 0.05
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    decay = q @ np.diag(rng.uniform(0.3, 0.97, n)) @ q.T
    dyn = decay if mode == "discrete" else (decay - np.eye(n)) / dt
    basis = pk.parse_basis("1, t, sin(0.7,0.2)")
    return pk.ReducedModel(mode, dyn, rng.normal(scale=0.1, size=(n, 3)),
                           rng.normal(size=(channels, n)),
                           rng.normal(size=channels), basis, dt, 0.3, None,
                           (0.0,))


def _two_run_x0(model, y):
    """Least-squares x0 from a forced run from zero, then a free run of the
    identity block on a copy of the model without input."""
    n, k = model.n_states, y.shape[0]
    forced = _state_run(model, np.zeros(n), k, model.t0)
    unforced = dataclasses.replace(model,
                                   psi_coeffs=np.zeros_like(model.psi_coeffs))
    free = _state_run(unforced, np.eye(n), k, model.t0)
    y_forced = forced @ model.C.T + model.output_offset
    design = (free @ model.C.T).transpose(0, 2, 1).reshape(-1, n)
    return np.linalg.lstsq(design, (y - y_forced).ravel(), rcond=None)[0]


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("seed", range(6))
def test_estimate_x0_bit_equal_to_two_runs(mode, seed):
    n = 1 + seed % 4
    model = _random_stable_model(seed, mode, n)
    rng = np.random.default_rng(100 + seed)
    y = (pk.simulate(model, rng.normal(size=n), 300)
         + rng.normal(scale=0.05, size=(300, 2)))
    np.testing.assert_array_equal(pk.estimate_x0(model, y), _two_run_x0(model, y))


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("seed", range(6))
def test_fit_model_fit_matches_simulate_from_x0(mode, seed):
    # the fit comes from forced + free @ x0, equal to the simulated free
    # run up to rounding
    n = 1 + seed % 4
    truth = _random_stable_model(seed, mode, n, channels=n)
    rng = np.random.default_rng(200 + seed)
    unit = dataclasses.replace(truth, C=np.eye(n), output_offset=np.zeros(n))
    k = 400
    states = (pk.simulate(unit, rng.normal(size=n), k)
              + rng.normal(scale=0.01, size=(k, n)))
    outputs = states @ truth.C.T + truth.output_offset
    model = pk.fit_model(states, outputs, basis=truth.basis, mode=mode,
                         dt=truth.dt, t0=truth.t0,
                         smooth_window=3 if mode == "continuous" else 0)
    x0 = pk.estimate_x0(model, outputs)
    ref = pk.fit_percent(outputs, pk.simulate(model, x0, k))
    np.testing.assert_allclose(model.fit, ref, rtol=1e-12, atol=0.0)


def test_estimate_x0_divergence_names_the_free_member_step():
    # only the free run from e_1 diverges: 2**40 is the first power past 1e12
    model = pk.ReducedModel("discrete", np.diag([0.5, 2.0, 0.3]),
                            np.zeros((3, 0)), np.ones((1, 3)), np.zeros(1),
                            TimeBasis(()), 1.0, 0.0, None, (0.0,))
    with pytest.raises(pk.DivergenceError, match="diverged at step 40$"):
        pk.estimate_x0(model, np.linspace(0.0, 1.0, 60))


def test_estimate_x0_divergence_names_the_forced_member_step():
    # the free run decays; the forced run follows the growing input exp(0.4 t)
    model = pk.ReducedModel("discrete", np.array([[0.5]]), np.array([[1.0]]),
                            np.eye(1), np.zeros(1), pk.parse_basis("exp(0.4)"),
                            1.0, 0.0, None, (0.0,))
    x, step = 0.0, 0
    while abs(x) <= 1e12:
        x = 0.5 * x + math.exp(0.4 * step)
        step += 1
    assert step > 64   # past the first divergence-check block
    with pytest.raises(pk.DivergenceError, match=f"diverged at step {step}$"):
        pk.simulate(model, [0.0], 100)
    with pytest.raises(pk.DivergenceError, match=f"diverged at step {step}$"):
        pk.estimate_x0(model, np.linspace(0.0, 1.0, 100))


def _unstable_mode_states(second, k):
    # x(t+1) = diag(0.8, 1.5) x(t): the free run from e_2 passes 1e12 at
    # step 69, and the data follow the run from (1, second)
    return np.array([[0.8 ** i, second * 1.5 ** i] for i in range(k)])


def test_fit_model_fallback_fits_the_run_from_the_first_state():
    states = _unstable_mode_states(1e-12, 80)
    outputs = states @ np.array([1.0, 1.0]) + np.sin(np.arange(80.0)) * 1e-3
    model = pk.fit_model(states, outputs)
    with pytest.raises(pk.DivergenceError):
        pk.estimate_x0(model, outputs)
    ref = pk.fit_percent(outputs, pk.simulate(model, states[0], 80))
    assert model.fit == tuple(float(v) for v in ref)


def test_fit_model_fallback_gives_none_when_first_state_run_diverges():
    # from (1, 1e-4) the run passes 1e12 at step 91
    states = _unstable_mode_states(1e-4, 100)
    model = pk.fit_model(states, states[:, 0] + states[:, 1])
    with pytest.raises(pk.DivergenceError):
        pk.simulate(model, states[0], 100)
    assert model.fit is None


def test_fit_model_fit_is_none_when_the_run_from_x0_passes_the_limit():
    # x0 itself (norm about 1e13) passes 1e12 while every member of the
    # stacked run stays small, as simulate from x0 reports at step 0
    states = 1e13 * run_discrete(damped_rotation(), np.zeros((2, 0)),
                                 TimeBasis(()), [1.0, 0.3], 40)
    model = pk.fit_model(states, states[:, 0])
    with pytest.raises(pk.DivergenceError, match="diverged at step 0$"):
        pk.simulate(model, pk.estimate_x0(model, states[:, 0]), 40)
    assert model.fit is None


def test_fit_model_fit_is_none_when_only_x0_passes_the_limit():
    # under B = 0.05 the run from x0 (about 1e13) is below 1e12 from step 1
    states = 1e13 * 0.05 ** np.arange(20.0)[:, None]
    model = pk.fit_model(states, states[:, 0])
    with pytest.raises(pk.DivergenceError, match="diverged at step 0$"):
        pk.simulate(model, pk.estimate_x0(model, states[:, 0]), 20)
    assert model.fit is None


@pytest.mark.parametrize("values, m, tau, n", [
    (np.random.default_rng(4).normal(size=400), 3, 1, 3),   # identity branch
    (np.sin(0.3 * np.arange(400.0)), 4, 5, 2),              # PCA branch
], ids=["identity", "pca"])
def test_projection_record_round_trip(values, m, tau, n):
    emb = pk.embed(pk.TimeSeries(values), m, tau)
    states, record = pk.build_state_sequence(emb, n)
    assert record.identity == (n == m)
    np.testing.assert_array_equal(record.transform(emb.points), states)
    # the sine's delay vectors lie in a plane, so two components keep them
    np.testing.assert_allclose(record.inverse(states), emb.points, atol=1e-9)
    np.testing.assert_allclose(record.transform(record.inverse(states)), states,
                               atol=1e-12)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_blocked_run_matches_the_per_step_reference(mode, n):
    # 5 000 steps span 79 blocks of 64 rows; the closed form rounds
    # differently from stepping, but stays within 1e-12 of the largest state
    # C = I and no offset, so simulate returns the states themselves
    model = dataclasses.replace(_random_stable_model(10 + n, mode, n), C=np.eye(n),
                                output_offset=np.zeros(n))
    x0 = np.random.default_rng(n).normal(size=n)
    steps = 5000
    if mode == "discrete":
        ref = run_discrete(model.dynamics, model.psi_coeffs, model.basis, x0,
                           steps, model.dt, model.t0)
    else:
        ref = _rk4_reference(model, x0, steps)
    got = pk.simulate(model, x0, steps)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_member_is_bit_equal_to_its_run_alone(mode, n):
    model = _random_stable_model(20 + n, mode, n)
    unforced = dataclasses.replace(model,
                                   psi_coeffs=np.zeros_like(model.psi_coeffs))
    stack = np.random.default_rng(n).normal(size=(3, n))
    runs = _state_run(model, stack, 300, model.t0)
    np.testing.assert_array_equal(runs[:, 0], _state_run(model, stack[0], 300, model.t0))
    for i in (1, 2):
        np.testing.assert_array_equal(
            runs[:, i], _state_run(unforced, stack[i], 300, model.t0))


@pytest.mark.parametrize("mode, dyn, dt, steps", [
    ("discrete", [0.5, 2.0], 1.0, 2000),
    ("continuous", [-0.5, 10.0], 0.05, 3000),
], ids=["discrete", "continuous"])
def test_unstable_mode_left_unexcited_stays_bounded(mode, dyn, dt, steps):
    # the growing mode's power over the whole horizon overflows (2**2000,
    # 1.65**3000), and inf * 0 would turn the run to nan; within a block of
    # 64 rows it stays finite, so the run from (1, 0) decays as it should
    model = pk.ReducedModel(mode, np.diag(dyn), np.zeros((2, 0)), np.eye(2),
                            np.zeros(2), TimeBasis(()), dt, 0.0, None, (0.0,))
    states = pk.simulate(model, [1.0, 0.0], steps)
    assert np.all(np.isfinite(states))
    np.testing.assert_array_equal(states[:, 1], 0.0)
    h = dt * dyn[0]   # the decaying mode's factor per step: B, or RK4's
    rate = dyn[0] if mode == "discrete" else 1 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24
    np.testing.assert_allclose(states[:, 0], rate ** np.arange(steps), rtol=1e-12)
    assert states[-1, 0] < states[0, 0]
