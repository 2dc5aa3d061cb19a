"""Benchmark dynamical systems with exact Jacobians, plus fixed-step integrators.

Each catalog entry is defined once, by a scalar right-hand side and a scalar
analytic Jacobian that take and return Python floats; the array forms f and
jac are derived from them.  Flows are integrated with classical fixed-step
RK4 (no adaptive stepping, so runs are bit-reproducible), maps by direct
iteration, both stepping the scalar forms on Python floats: for states of a
few components numpy's per-call cost would outweigh the arithmetic, and the
elementwise operations are the same IEEE operations either way.  The same
integrators step lyapunov.benettin_exact's variational system, rk4_floats on
floats and rk4_step on arrays (whose f and jac are the array forms).  A
system's Jacobian is checked against central finite differences the first
time the catalog looks that system up in a process; NAMES lists the systems
without building or checking any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DivergenceError

DEFAULT_TRANSIENT = 1000

# States beyond this norm are treated as numerically divergent.
_NORM_LIMIT = 1e100


@dataclass(frozen=True)
class ReferenceSystem:
    """A named flow or map with analytic right-hand side and Jacobian.

    rhs(x, t) is the one definition of the system: given the dim components
    of x as a sequence of floats, it returns the derivative (flows) or the
    next state (maps) as a tuple of floats; t is ignored by autonomous
    systems.  rhs_jac(x, t) returns the state Jacobian d rhs / d x as a tuple
    of row tuples.  f and jac are the same functions returning numpy arrays,
    derived from rhs and rhs_jac; they serve check_jacobian and the array
    form of lyapunov.benettin_exact's variational step, which it takes for
    systems too wide for its float path.
    """

    name: str
    kind: str  # "flow" | "map"
    dim: int
    rhs: Callable[[Sequence[float], float], tuple]
    rhs_jac: Callable[[Sequence[float], float], tuple]
    params: dict = field(default_factory=dict)
    x0_default: tuple = ()
    dt_default: float = 1.0
    transient_default: int | None = None  # None -> module default

    def f(self, x, t: float) -> np.ndarray:
        """rhs(x, t) as a (dim,) array."""
        return np.array(self.rhs(x, t), dtype=float)

    def jac(self, x, t: float) -> np.ndarray:
        """rhs_jac(x, t) as a (dim, dim) array."""
        return np.array(self.rhs_jac(x, t), dtype=float)


def _lorenz(sigma: float = 10.0, rho: float = 28.0, beta: float = 8.0 / 3.0) -> ReferenceSystem:
    def rhs(x, t):
        x0, x1, x2 = x
        return (sigma * (x1 - x0), x0 * (rho - x2) - x1, x0 * x1 - beta * x2)

    def rhs_jac(x, t):
        x0, x1, x2 = x
        return ((-sigma, sigma, 0.0), (rho - x2, -1.0, -x0), (x1, x0, -beta))

    return ReferenceSystem(
        "lorenz", "flow", 3, rhs, rhs_jac,
        params={"sigma": sigma, "rho": rho, "beta": beta},
        x0_default=(1.0, 1.0, 1.0), dt_default=0.01,
    )


def _rossler(a: float = 0.2, b: float = 0.2, c: float = 5.7) -> ReferenceSystem:
    def rhs(x, t):
        x0, x1, x2 = x
        return (-(x1 + x2), x0 + a * x1, b + x2 * (x0 - c))

    def rhs_jac(x, t):
        x0, x1, x2 = x
        return ((0.0, -1.0, -1.0), (1.0, a, 0.0), (x2, 0.0, x0 - c))

    return ReferenceSystem(
        "rossler", "flow", 3, rhs, rhs_jac,
        params={"a": a, "b": b, "c": c},
        x0_default=(1.0, 1.0, 1.0), dt_default=0.05,
    )


def _test42() -> ReferenceSystem:
    # Funnel-type benchmark flow used throughout the estimator tests.
    def rhs(x, t):
        x0, x1, x2 = x
        return (-x1 - x2, x0, 0.375 * (x1 - x1 ** 2) - 0.23 * x2)

    def rhs_jac(x, t):
        x0, x1, x2 = x
        return ((0.0, -1.0, -1.0), (1.0, 0.0, 0.0), (0.0, 0.375 * (1.0 - 2.0 * x1), -0.23))

    return ReferenceSystem(
        "test42", "flow", 3, rhs, rhs_jac,
        params={"gamma": 0.375, "delta": 0.23},
        x0_default=(0.1, 0.1, 0.1), dt_default=0.1,
    )


def _henon(a: float = 1.4, b: float = 0.3) -> ReferenceSystem:
    def rhs(x, t):
        x0, x1 = x
        return (1.0 - a * x0 ** 2 + x1, b * x0)

    def rhs_jac(x, t):
        x0, x1 = x
        return ((-2.0 * a * x0, 1.0), (b, 0.0))

    return ReferenceSystem(
        "henon", "map", 2, rhs, rhs_jac,
        params={"a": a, "b": b},
        x0_default=(0.0, 0.0), dt_default=1.0,
    )


def _example2() -> ReferenceSystem:
    # Oscillator with quadratic stiffness under weak 2-rad/s sinusoidal forcing.
    def rhs(x, t):
        x0, x1 = x
        return (x1, -x0 + x0 ** 2 - 0.05 * float(np.sin(2.0 * t)))

    def rhs_jac(x, t):
        x0, x1 = x
        return ((0.0, 1.0), (-1.0 + 2.0 * x0, 0.0))

    return ReferenceSystem(
        "example2", "flow", 2, rhs, rhs_jac,
        params={"amplitude": 0.05, "omega": 2.0},
        x0_default=(0.0, 0.042), dt_default=0.1,
    )


def _example3() -> ReferenceSystem:
    # Two logistic-type maps with weak difference coupling.
    def rhs(x, t):
        x0, x1 = x
        return (1.25 * x0 * (1.0 - x1), 1.3 * x1 * (1.0 - x0) + 0.1 * (x0 - x1))

    def rhs_jac(x, t):
        x0, x1 = x
        return ((1.25 * (1.0 - x1), -1.25 * x0),
                (-1.3 * x1 + 0.1, 1.3 * (1.0 - x0) - 0.1))

    # Almost every orbit escapes to infinity after a few dozen steps; the
    # dynamics live on a chaotic saddle around the fixed point (0.25, 0.2).
    # This seed gives one of the longest bounded rides, about 65 steps.
    return ReferenceSystem(
        "example3", "map", 2, rhs, rhs_jac,
        params={"r1": 1.25, "r2": 1.3, "coupling": 0.1},
        x0_default=(0.64944548, 0.59384336), dt_default=1.0,
        transient_default=0,
    )


def check_jacobian(system: ReferenceSystem, n_states: int = 100,
                   seed: int = 0, rel_tol: float = 1e-6) -> float:
    """Compare the analytic Jacobian with central differences at random states.

    Returns the worst relative deviation seen; raises AssertionError when it
    exceeds rel_tol.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_states):
        x = rng.uniform(-2.0, 2.0, size=system.dim)
        t = float(rng.uniform(0.0, 10.0))
        analytic = system.jac(x, t)
        fd = np.empty_like(analytic)
        for j in range(system.dim):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (system.f(xp, t) - system.f(xm, t)) / (2.0 * h)
        scale = 1.0 + np.abs(analytic).max()
        worst = max(worst, float(np.abs(fd - analytic).max() / scale))
    if worst > rel_tol:
        raise AssertionError(
            f"jacobian of {system.name} deviates from finite differences by {worst:.3e}")
    return worst


_FACTORIES = {
    "lorenz": _lorenz, "rossler": _rossler, "test42": _test42,
    "henon": _henon, "example2": _example2, "example3": _example3,
}

NAMES = tuple(sorted(_FACTORIES))

_CHECKED: set[str] = set()  # names whose Jacobian passed check_jacobian


def _checked(name: str) -> ReferenceSystem:
    system = _FACTORIES[name]()
    if name not in _CHECKED:
        check_jacobian(system)
        _CHECKED.add(name)
    return system


def catalog(name: str | None = None):
    """Look up a built-in system by name, or get all of them as a dict.

    A system's Jacobian is FD-checked the first time it is looked up in a
    process, so catalog(name) checks that one system and catalog() all of
    them.  Unknown names raise ConfigError listing the valid choices.
    """
    if name is None:
        return {n: _checked(n) for n in _FACTORIES}
    if name not in _FACTORIES:
        raise ConfigError(f"unknown system {name!r}; choose from {list(NAMES)}")
    return _checked(name)


def rk4_step(f: Callable, x: np.ndarray, t: float, dt: float) -> np.ndarray:
    k1 = f(x, t)
    k2 = f(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = f(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = f(x + dt * k3, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_floats(rhs: Callable, x: Sequence[float], t: float, dt: float) -> list:
    """rk4_step on Python floats for a scalar rhs: the same operations in the
    same order, so the result is bit-identical to rk4_step on its array form."""
    h = 0.5 * dt
    k1 = rhs(x, t)
    k2 = rhs([a + h * b for a, b in zip(x, k1)], t + h)
    k3 = rhs([a + h * b for a, b in zip(x, k2)], t + h)
    k4 = rhs([a + dt * b for a, b in zip(x, k3)], t + dt)
    c = dt / 6.0
    return [a + c * (p + 2.0 * q + 2.0 * r + s)
            for a, p, q, r, s in zip(x, k1, k2, k3, k4)]


def _run(system: ReferenceSystem, x0, steps: int, advance: Callable) -> np.ndarray:
    """The (steps+1, dim) rows x0, advance(x0, 0), ..., stepped on Python floats.

    A state diverges when it turns non-finite or its norm passes _NORM_LIMIT;
    a float power that overflows (Python raises where numpy returns inf) is
    the same event.
    """
    x = np.asarray(x0, dtype=float).tolist()
    rows = [x]
    for i in range(steps):
        try:
            x = advance(x, i)
            bounded = math.hypot(*x) <= _NORM_LIMIT  # False for nan and inf
        except OverflowError:
            bounded = False
        if not bounded:
            raise DivergenceError(f"{system.name}: state diverged at step {i + 1}")
        rows.append(x)
    return np.array(rows, dtype=float)


def integrate(system: ReferenceSystem, x0, dt: float, steps: int,
              t0: float = 0.0) -> np.ndarray:
    """RK4-integrate a flow; returns the (steps+1, dim) trajectory incl. x0."""
    if system.kind != "flow":
        raise ValueError(f"{system.name} is a map; use iterate()")
    rhs = system.rhs
    # step i starts at t0 + i*dt, the first at t0 itself (which keeps a -0.0)
    return _run(system, x0, steps,
                lambda x, i: rk4_floats(rhs, x, t0 + i * dt if i else t0, dt))


def iterate(system: ReferenceSystem, x0, steps: int) -> np.ndarray:
    """Iterate a map; returns the (steps+1, dim) orbit including x0."""
    if system.kind != "map":
        raise ValueError(f"{system.name} is a flow; use integrate()")
    rhs = system.rhs
    return _run(system, x0, steps, lambda x, i: rhs(x, float(i)))


def sample(system: ReferenceSystem, steps: int, x0=None, dt: float | None = None,
           transient: int | None = None, t0: float = 0.0) -> np.ndarray:
    """Generate `steps` post-transient samples of a catalog system.

    The first `transient` samples are discarded so estimators see on-attractor
    data.  When transient is None the system's own default applies (zero for
    saddle-transient systems whose orbits never settle).  Returns an array of
    shape (steps, dim); steps < 1 or transient < 0 raises ValueError.
    """
    x0 = system.x0_default if x0 is None else x0
    dt = system.dt_default if dt is None else dt
    if transient is None:
        transient = (DEFAULT_TRANSIENT if system.transient_default is None
                     else system.transient_default)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if transient < 0:
        raise ValueError(f"transient must be >= 0, got {transient}")
    total = transient + steps
    if system.kind == "flow":
        traj = integrate(system, x0, dt, total - 1, t0=t0)
    else:
        traj = iterate(system, x0, total - 1)
    return traj[transient:]
