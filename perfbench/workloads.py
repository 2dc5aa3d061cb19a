"""The benchmark's workloads: seeded inputs and the commands run on them.

Each workload is one closed-loop user: one process runs the ops in order
through phasekit.cli.main, each waiting for the one before.  The seed fixes
every input the program sees (initial-state perturbations, noise seeds,
contour shapes); nothing else varies between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Fixed accuracy references, never computed at run time.
# Henon (a=1.4, b=0.3) largest exponent per iteration: Wolf, Swift, Swinney &
# Vastano, Physica D 16 (1985) 285; the value tier-1 tests pin.
HENON_LAMBDA1 = 0.419
# Lorenz (sigma=10, rho=28, beta=8/3) largest exponent per time unit:
# Sprott, Chaos and Time-Series Analysis (Oxford, 2003), appendix A.
LORENZ_LAMBDA1 = 0.906
# Correlation dimensions: Grassberger & Procaccia, Physica D 9 (1983) 189.
HENON_D2 = 1.21
LORENZ_D2 = 2.05
# Henon capacity (box-counting) dimension: Russell, Hanson & Ott,
# Phys. Rev. Lett. 45 (1980) 1175.
HENON_D0 = 1.26
# Sum of the Lorenz exponents per RK4 step: trace of the Jacobian,
# -(sigma + 1 + beta) = -41/3 per time unit, times dt.  Tier-1 pins it at
# rel 1e-3.
LORENZ_SUM_PER_TIME = -41.0 / 3.0
LORENZ_SUM_RTOL = 1e-3

X0_PERTURBATION = 1e-3
# Series lengths of henon-map and lorenz-flow, short enough that a run has
# several repetitions to average: at 20 000 Henon samples a repetition takes
# 15-19 s on a shared 2-core host, and single repetitions vary by a third.
HENON_STEPS = 7000
LORENZ_STEPS = 5000
KANTZ_EPS0 = "0.018"


@dataclass(frozen=True)
class Op:
    """One step of a workload.

    A CLI op runs phasekit.cli.main(argv); a library op runs call().  metric
    names the per-command time the op adds to (None: pipeline_s only).
    expect is (kind, reference) for the op's headline estimate, kind being
    "lambda1" or "dimension".  check(result) returns a list of problems with
    the op's output beyond schema and finiteness.
    """

    metric: str | None
    argv: tuple = ()
    call: Callable | None = None
    expect: tuple | None = None
    check: Callable | None = None


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def _x0(rng, base) -> str:
    """The catalog default state moved by at most X0_PERTURBATION per
    coordinate.  The transient discards the shift itself, but on a chaotic
    attractor each seed then samples a different orbit, so data-dependent
    work (stepwise's ball sizes, whether Kantz finds a scaling window) varies
    from seed to seed."""
    shift = rng.uniform(-X0_PERTURBATION, X0_PERTURBATION, size=len(base))
    return "--x0=" + ",".join(repr(float(b + s)) for b, s in zip(base, shift))


def henon_map(seed: int, workdir: Path, scale: float = 1.0) -> list:
    from phasekit import systems

    rng = np.random.default_rng(seed)
    data = str(workdir / "henon.csv")
    steps = _scaled(HENON_STEPS, scale, 2000)
    x = ("--input", data, "--m", "2", "--tau", "1", "--channel", "0")
    lyap = ("lyapunov",) + x
    return [
        Op("simulate_s", ("simulate", "--system", "henon", "--steps", str(steps),
                          _x0(rng, systems.catalog("henon").x0_default),
                          "--out", data)),
        Op("mi_s", ("mi", "--input", data)),
        Op(None, ("embed",) + x),
        Op("dimension_s", ("dimension",) + x + ("--q", "2"),
           expect=("dimension", HENON_D2)),
        # A fixed fit window: the one the automatic search picks on most
        # seeds.  Below 20 000 samples it finds none on some seeds (about one
        # in 20 at 10 000).
        Op("dimension_s", ("dimension",) + x + ("--q", "0", "--fit-lo", "0.012",
                                                "--fit-hi", "0.04"),
           expect=("dimension", HENON_D0)),
        Op("lyapunov_s", lyap + ("--method", "wolf"),
           expect=("lambda1", HENON_LAMBDA1)),
        Op("lyapunov_s", lyap + ("--method", "rosenstein", "--horizon", "12"),
           expect=("lambda1", HENON_LAMBDA1)),
        # An explicit radius, 0.5% of the attractor's bounding-box diagonal
        # (about 3.6 here), small against the attractor as Kantz prescribes,
        # and 3 000 reference points.  With the CLI defaults (5%, 1 000
        # points) no scaling window is found on most seeds; with 0.5% and
        # 1 000 points on about one in 25 (10 000 samples).
        Op("lyapunov_s", lyap + ("--method", "kantz", "--horizon", "12",
                                 "--eps0", KANTZ_EPS0, "--n-refs", "3000"),
           expect=("lambda1", HENON_LAMBDA1)),
        Op("lyapunov_s", lyap + ("--method", "benettin", "--kind", "map"),
           expect=("lambda1", HENON_LAMBDA1)),
        Op("identify_s", ("identify", "--input", data, "--m", "3", "--tau", "1",
                          "--channel", "0", "--n", "2", "--basis", "t")),
        Op("predict_s", ("predict",) + x),
        Op("stepwise_s", ("stepwise", "--input", data, "--m-values", "1,2",
                          "--tau-values", "1,2,3,4,5", "--lambda-min", "0.5")),
    ]


def _lorenz_reference(steps: int):
    from phasekit import lyapunov, systems

    return lyapunov.benettin_exact(systems.catalog("lorenz"), steps)


def _check_lorenz_sum(spectrum) -> list:
    want = LORENZ_SUM_PER_TIME * spectrum.dt
    got = math.fsum(spectrum.exponents)
    if not math.isclose(got, want, rel_tol=LORENZ_SUM_RTOL):
        return [f"exponent sum {got!r} is not -41/3*dt = {want!r}"]
    return []


def lorenz_flow(seed: int, workdir: Path, scale: float = 1.0) -> list:
    from phasekit import systems

    rng = np.random.default_rng(seed)
    data = str(workdir / "lorenz.csv")
    steps = _scaled(LORENZ_STEPS, scale, 2000)
    # tau = 17 is the delay mi selects here; fixing it keeps a change in the
    # MI estimate from moving the work downstream.
    x = ("--input", data, "--dt", "0.01", "--m", "3", "--tau", "17",
         "--channel", "0")
    return [
        Op("simulate_s", ("simulate", "--system", "lorenz", "--steps", str(steps),
                          "--dt", "0.01",
                          _x0(rng, systems.catalog("lorenz").x0_default),
                          "--out", data)),
        Op("mi_s", ("mi", "--input", data, "--dt", "0.01")),
        Op("dimension_s", ("dimension",) + x + ("--q", "2"),
           expect=("dimension", LORENZ_D2)),
        Op("lyapunov_s", ("lyapunov",) + x + ("--method", "rosenstein",
                                             "--horizon", "100"),
           expect=("lambda1", LORENZ_LAMBDA1)),
        Op("identify_s", ("identify",) + x + ("--mode", "continuous", "--n", "3",
                                             "--basis", "1,t,sin(1.0,0)",
                                             "--smooth-window", "5")),
        Op("predict_s", ("predict",) + x),
        Op("reference_s", call=lambda: _lorenz_reference(steps),
           check=_check_lorenz_sum),
    ]


CONTOUR_VERTICES = 512


def _contour_pair(rng):
    """A star-shaped closed contour and a rotated, scaled, shifted copy."""
    theta = 2.0 * math.pi * np.arange(CONTOUR_VERTICES) / CONTOUR_VERTICES
    radius = np.ones_like(theta)
    for k in range(2, 7):
        radius += rng.uniform(0.0, 0.15 / k) * np.cos(k * theta + rng.uniform(0, 2 * math.pi))
    shape = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    angle = rng.uniform(0.1, 2.0 * math.pi - 0.1)
    scale = rng.uniform(0.5, 3.0)
    shift = rng.uniform(-10.0, 10.0, size=2)
    rot = np.array([[math.cos(angle), math.sin(angle)],
                    [-math.sin(angle), math.cos(angle)]])
    return shape, shape @ rot * scale + shift, scale


def _check_copy(scale: float):
    def check(payload) -> list:
        cmp = payload["comparison"]
        problems = []
        if not math.isclose(cmp["scale_ratio"], scale, rel_tol=1e-9):
            problems.append(f"scale_ratio {cmp['scale_ratio']} != {scale}")
        if not math.isclose(cmp["ratio"], 1.0, rel_tol=1e-9):
            problems.append(f"closeness ratio {cmp['ratio']} of a similar copy != 1")
        return problems
    return check


SWEEP_SERIES = 16
# At 2 000 samples the automatic scaling window of dimension (Rossler, about
# one series in eight) or of rosenstein (Henon, one in 200) is not found on
# some seeds.  At 3 000 the Rossler D2 search still failed on 1 series of
# 320, so its window is fixed, to one inside those the search picks.
SWEEP_STEPS = 3000
ROSSLER_D2_FIT = ("--fit-lo", "0.25", "--fit-hi", "1.5")


def short_sweep(seed: int, workdir: Path, scale: float = 1.0) -> list:
    from phasekit import contours, systems

    rng = np.random.default_rng(seed)
    ops = []
    for i in range(_scaled(SWEEP_SERIES, scale, 2)):
        henon = i % 2 == 0
        name = "henon" if henon else "rossler"
        data = str(workdir / f"sweep{i:02d}.csv")
        dt = ("--dt", "1") if henon else ("--dt", "0.05")
        x = ("--input", data) + dt + ("--m", "3", "--tau", "2" if henon else "8",
                                      "--channel", "0")
        shape, copy, factor = _contour_pair(rng)
        first = str(workdir / f"contour{i:02d}a.csv")
        second = str(workdir / f"contour{i:02d}b.csv")
        contours.save_contour(first, shape)
        contours.save_contour(second, copy)
        ops += [
            Op("simulate_s", ("simulate", "--system", name, "--steps", str(SWEEP_STEPS)) + dt
               + (_x0(rng, systems.catalog(name).x0_default), "--noise", "1e-3",
                  "--seed", str(int(rng.integers(2 ** 31))), "--out", data)),
            Op("mi_s", ("mi", "--input", data) + dt),
            Op("dimension_s", ("dimension",) + x + (() if henon else ROSSLER_D2_FIT),
               expect=("dimension", HENON_D2) if henon else None),
            Op("lyapunov_s", ("lyapunov",) + x + ("--method", "rosenstein",
                                                 "--horizon", "20"),
               expect=("lambda1", HENON_LAMBDA1) if henon else None),
            Op("predict_s", ("predict",) + x),
            Op("stepwise_s", ("stepwise", "--input", data) + dt
               + ("--lambda-min", "0.1")),
            Op("symmetry_s", ("symmetry", "--input", first, "--input-b", second),
               check=_check_copy(factor)),
        ]
    return ops


# name -> build(seed, workdir, scale=1.0) -> list[Op]; BENCHMARK.json says why
# each workload is there.
WORKLOADS = {"henon-map": henon_map, "lorenz-flow": lorenz_flow,
             "short-sweep": short_sweep}
