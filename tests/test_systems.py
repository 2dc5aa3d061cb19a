import math
from dataclasses import replace

import numpy as np
import pytest

import phasekit as pk
from phasekit import systems


def test_henon_map_values():
    sys = pk.catalog("henon")
    assert sys.kind == "map" and sys.dim == 2
    assert sys.params == {"a": 1.4, "b": 0.3}
    np.testing.assert_allclose(sys.f(np.array([0.0, 0.0]), 0.0), [1.0, 0.0])
    np.testing.assert_allclose(sys.f(np.array([1.0, 0.0]), 1.0), [-0.4, 0.3])
    det = np.linalg.det(sys.jac(np.array([0.3, -0.2]), 0.0))
    assert det == pytest.approx(-0.3)


def test_coupled_map_values():
    sys = pk.catalog("example3")
    np.testing.assert_allclose(sys.f(np.array([0.3, 0.4]), 0.0),
                               [0.225, 0.354], atol=1e-12)
    assert sys.transient_default == 0  # orbits are transient by nature


def test_slow_focus_flow_values():
    sys = pk.catalog("test42")
    np.testing.assert_allclose(sys.f(np.array([0.0, 1.0, 0.0]), 0.0),
                               [-1.0, 0.0, 0.0])
    # trace of the Jacobian is the constant volume contraction rate
    for state in ([0.0, 0.0, 0.0], [1.0, -2.0, 0.5]):
        tr = np.trace(sys.jac(np.array(state), 0.0))
        assert tr == pytest.approx(-0.23)


def test_driven_oscillator_values():
    sys = pk.catalog("example2")
    np.testing.assert_allclose(sys.f(np.array([0.0, 0.0]), np.pi / 4),
                               [0.0, -0.05], atol=1e-12)
    np.testing.assert_allclose(sys.f(np.array([1.0, 2.0]), 0.0), [2.0, 0.0])
    assert sys.x0_default == (0.0, 0.042)


def test_rossler_parameters():
    sys = pk.catalog("rossler")
    assert sys.params == {"a": 0.2, "b": 0.2, "c": 5.7}
    assert sys.kind == "flow"


def test_catalog_listing_and_unknown_name():
    table = pk.catalog()
    assert {"henon", "lorenz", "rossler", "test42",
            "example2", "example3"} <= set(table)
    with pytest.raises(pk.ConfigError):
        pk.catalog("nosuch")


@pytest.fixture()
def jacobian_checks(monkeypatch):
    """A process in which no system has been checked yet; returns the names
    check_jacobian is called with, in order."""
    calls = []
    check = systems.check_jacobian

    def counting(system, *args, **kwargs):
        calls.append(system.name)
        return check(system, *args, **kwargs)

    monkeypatch.setattr(systems, "_CHECKED", set())
    monkeypatch.setattr(systems, "check_jacobian", counting)
    return calls


def test_lookup_checks_that_system_once(jacobian_checks):
    assert pk.catalog("henon").name == "henon"
    assert jacobian_checks == ["henon"]
    pk.catalog("henon")  # checked already in this process
    pk.catalog("lorenz")
    assert jacobian_checks == ["henon", "lorenz"]


def test_lookup_rejects_a_wrong_jacobian(jacobian_checks, monkeypatch):
    def wrong_henon():
        good = systems._henon()
        return replace(good, rhs_jac=lambda x, t: ((0.0, 1.0), (0.3, 0.0)))

    monkeypatch.setitem(systems._FACTORIES, "henon", wrong_henon)
    for _ in range(2):  # a failed check is not remembered as passed
        with pytest.raises(AssertionError, match="jacobian of henon deviates"):
            pk.catalog("henon")
    assert jacobian_checks == ["henon", "henon"]
    pk.catalog("lorenz")  # the other systems are unaffected


def test_listing_checks_every_system(jacobian_checks):
    table = pk.catalog()
    assert list(table) == jacobian_checks
    assert sorted(table) == list(systems.NAMES)
    assert len(table) == 6
    pk.catalog()
    pk.catalog("henon")
    assert len(jacobian_checks) == 6


@pytest.mark.parametrize("name", ["henon", "lorenz", "rossler",
                                  "test42", "example2", "example3"])
def test_analytic_jacobians_match_finite_differences(name):
    err = pk.check_jacobian(pk.catalog(name))
    assert err < 1e-6


def test_rk4_step_order():
    f = lambda x, t: x
    x0 = np.array([1.0])
    e1 = abs(pk.rk4_step(f, x0, 0.0, 0.1)[0] - np.exp(0.1))
    e2 = abs(pk.rk4_step(f, x0, 0.0, 0.05)[0] - np.exp(0.05))
    assert 24 < e1 / e2 < 40  # fifth-order local truncation


def test_rk4_uses_explicit_time():
    f = lambda x, t: np.array([t])
    out = pk.rk4_step(f, np.array([0.0]), 2.0, 0.5)
    # integral of t from 2 to 2.5
    assert out[0] == pytest.approx((2.5 ** 2 - 2.0 ** 2) / 2, abs=1e-12)


def test_sample_shapes_and_transient():
    sys = pk.catalog("henon")
    vals = pk.sample(sys, 5, x0=(0.0, 0.0), transient=0)
    assert vals.shape == (5, 2)
    np.testing.assert_allclose(vals[0], [0.0, 0.0])
    np.testing.assert_allclose(vals[1], [1.0, 0.0])
    np.testing.assert_allclose(vals[2], [-0.4, 0.3])
    # default transient discards the lead-in
    led = pk.sample(sys, 5)
    assert not np.allclose(led[0], [0.0, 0.0])


@pytest.mark.parametrize("steps, transient, message", [
    (10, -4, "transient must be >= 0, got -4"),
    (0, 5, "steps must be >= 1, got 0"),
])
def test_sample_rejects_negative_transient_and_empty_runs(steps, transient, message):
    # a negative transient would slice rows off the head of the run
    with pytest.raises(ValueError, match=message):
        pk.sample(pk.catalog("lorenz"), steps, transient=transient)


def test_sample_flow_matches_rk4():
    sys = pk.catalog("lorenz")
    vals = pk.sample(sys, 3, x0=(1.0, 1.0, 1.0), dt=0.01, transient=0)
    step = pk.rk4_step(sys.f, np.array([1.0, 1.0, 1.0]), 0.0, 0.01)
    np.testing.assert_allclose(vals[1], step, atol=1e-14)


def test_sample_divergence_is_reported():
    with pytest.raises(pk.DivergenceError, match="henon: state diverged at step 7$"):
        pk.sample(pk.catalog("henon"), 50, x0=(10.0, 10.0), transient=0)
    with pytest.raises(pk.DivergenceError, match="example3: state diverged at step 82$"):
        pk.sample(pk.catalog("example3"), 200)
    # Henon from (10, 10) is still finite at step 7, but past the norm limit
    sys = pk.catalog("henon")
    x = np.array([10.0, 10.0])
    for _ in range(7):
        x = sys.f(x, 0.0)
    assert np.all(np.isfinite(x)) and 1e100 < np.linalg.norm(x) < 1e200
    # A square that overflows (Python raises where numpy gives inf) is too
    with pytest.raises(pk.DivergenceError, match="test42: state diverged at step 1$"):
        pk.sample(pk.catalog("test42"), 5, x0=(0.0, 1e160, 0.0), transient=0)


def _sample_reference(system, steps, transient):
    """sample() stepped on numpy arrays through system.f and rk4_step."""
    dt = system.dt_default
    x = np.asarray(system.x0_default, dtype=float)
    rows = [x]
    for i in range(transient + steps - 1):
        if system.kind == "flow":
            x = pk.rk4_step(system.f, x, i * dt, dt)
        else:
            x = system.f(x, float(i))
        rows.append(x)
    return np.array(rows)[transient:]


@pytest.mark.parametrize("name", ["henon", "lorenz", "rossler",
                                  "test42", "example2", "example3"])
def test_sample_is_bit_identical_to_array_stepping(name):
    sys = pk.catalog(name)
    steps = 60 if name == "example3" else 1500
    transient = 0 if name == "example3" else 500
    np.testing.assert_array_equal(pk.sample(sys, steps, transient=transient),
                                  _sample_reference(sys, steps, transient))


def _forced_ring(width):
    """A forced flow with cubic damping that couples each component to its
    ring neighbours, so the stages differ enough for a reordered sum in the
    step to change its rounding."""
    def rhs(x, t):
        return tuple(x[(i + 1) % width] - 0.5 * x[i - 1] - v * v * v
                     + (i + 1) * math.cos(t) for i, v in enumerate(x))

    def rhs_jac(x, t):
        raise NotImplementedError  # the step never reads it

    return pk.ReferenceSystem(f"ring-{width}", "flow", width, rhs, rhs_jac,
                              x0_default=tuple(0.25 * (i + 1) for i in range(width)),
                              dt_default=0.1)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 12])
def test_rk4_kernel_is_bit_identical_to_rk4_step(width):
    system = _forced_ring(width)
    step = systems.rk4_floats(width)
    assert systems.rk4_floats(width) is step  # built once per width
    x, t, dt = list(system.x0_default), 0.3, system.dt_default
    arr = np.array(x)
    for _ in range(200):
        x = step(system.rhs, x, t, dt)
        arr = pk.rk4_step(system.f, arr, t, dt)
        assert type(x) is list and len(x) == width
        np.testing.assert_array_equal(x, arr)
        t += dt


def test_integrate_from_nonzero_time_is_bit_identical_to_array_stepping():
    # example2's forcing reads t, so every step must see its own start time
    system = pk.catalog("example2")
    t0, dt = 1.7, 0.1
    x = np.asarray(system.x0_default, dtype=float)
    rows = [x]
    for i in range(800):
        x = pk.rk4_step(system.f, x, t0 + i * dt, dt)
        rows.append(x)
    np.testing.assert_array_equal(
        pk.integrate(system, system.x0_default, dt, 800, t0=t0), np.array(rows))


def test_integrate_names_the_step_past_the_norm_limit():
    # dx/dt = x grows by RK4's R(100) = 4.3e6 per step of dt = 100, so the
    # state first passes the 1e100 limit at step 16
    system = pk.ReferenceSystem("growth", "flow", 1, lambda x, t: (x[0],),
                                lambda x, t: ((1.0,),))
    np.testing.assert_array_less(np.abs(pk.integrate(system, (1.0,), 100.0, 15)), 1e100)
    with pytest.raises(pk.DivergenceError, match="growth: state diverged at step 16$"):
        pk.integrate(system, (1.0,), 100.0, 40)


def test_transient_map_rides_bounded_window():
    vals = pk.sample(pk.catalog("example3"), 64)
    assert np.abs(vals).max() < 2.0
