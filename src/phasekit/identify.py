"""Reduced evolution models fitted to reconstructed states.

Discrete form  x(t+1) = B x(t) + P phi(t),  continuous form  dx/dt = A x + P phi(t),
observation    y(t)   = C x(t) + y0,
with phi a small catalog of explicit time functions (powers, sinusoids,
exponentials).  States come from a PCA projection of the centered embedding;
all parameter blocks are fitted by least squares.

Free runs use the model's linearity: every step is x_{j+1} = Phi x_j + g_j,
with Phi = B (discrete) or the RK4 step matrix of A (continuous) and g_j the
step's input term.  The run is propagated in closed form in blocks of 64 rows
(a prefix scan; Blelloch, CMU-CS-90-190, 1990) instead of one step at a time,
so its rounding differs from per-step RK4: on stable models the states stay
within 1e-12 of the run's largest |state|.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .embedding import DelayEmbedding
from .errors import (ConfigError, DegenerateDataError, DivergenceError,
                     InsufficientDataError)

_STATE_NORM_LIMIT = 1e12
# Rows propagated from one block start of a free run (see _state_run).
_BLOCK = 64
_MAX_POLY_DEGREE = 8


@dataclass(frozen=True)
class BasisTerm:
    """One explicit time function: t^p, sin(omega t + phase), or exp(alpha t)."""

    kind: str
    degree: int = 0
    omega: float = 0.0
    phase: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("poly", "sin", "exp"):
            raise ConfigError(f"unknown basis term kind {self.kind!r}")
        if self.kind == "poly" and not 0 <= self.degree <= _MAX_POLY_DEGREE:
            raise ConfigError(f"polynomial degree must be in [0, {_MAX_POLY_DEGREE}]")

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "poly":
            return t ** self.degree
        if self.kind == "sin":
            return np.sin(self.omega * t + self.phase)
        with np.errstate(over="ignore"):
            return np.exp(self.alpha * t)

    def label(self) -> str:
        if self.kind == "poly":
            return "1" if self.degree == 0 else ("t" if self.degree == 1 else f"t^{self.degree}")
        if self.kind == "sin":
            return f"sin({self.omega!r}*t+{self.phase!r})"
        return f"exp({self.alpha!r}*t)"


@dataclass(frozen=True)
class TimeBasis:
    """Ordered collection of basis terms; holds only the terms."""

    terms: tuple = ()

    @property
    def size(self) -> int:
        return len(self.terms)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """(len(t), size) design block; must stay finite on the grid."""
        t = np.asarray(t, dtype=float)
        if self.size == 0:
            out = np.empty((t.size, 0))
        else:
            out = np.column_stack([term.evaluate(t) for term in self.terms])
        if not np.all(np.isfinite(out)):
            raise ConfigError("basis values overflow on the evaluation interval")
        return out


def parse_term(token: str) -> BasisTerm:
    """Parse "1", "t", "t^3", "sin(omega,phase)", "exp(alpha)"."""
    token = token.strip()
    try:
        if token == "1":
            return BasisTerm("poly", degree=0)
        if token == "t":
            return BasisTerm("poly", degree=1)
        if token.startswith("t^"):
            return BasisTerm("poly", degree=int(token[2:]))
        if token.startswith("sin(") and token.endswith(")"):
            parts = token[4:-1].split(",")
            if len(parts) == 1:
                return BasisTerm("sin", omega=float(parts[0]))
            if len(parts) == 2:
                return BasisTerm("sin", omega=float(parts[0]),
                                 phase=float(parts[1]))
            raise ConfigError(f"sin term takes 1 or 2 parameters: {token!r}")
        if token.startswith("exp(") and token.endswith(")"):
            return BasisTerm("exp", alpha=float(token[4:-1]))
    except ValueError as exc:
        raise ConfigError(f"cannot parse basis term {token!r}") from exc
    raise ConfigError(f"cannot parse basis term {token!r}")


def parse_basis(text: str) -> TimeBasis:
    """Comma-separated term list, commas inside parentheses respected."""
    if not text.strip():
        return TimeBasis(())
    tokens, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            tokens.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    tokens.append("".join(cur))
    return TimeBasis(tuple(parse_term(tok) for tok in tokens))


@dataclass(frozen=True)
class ProjectionRecord:
    """Centering plus orthonormal components mapping embedding rows to states."""

    mean: np.ndarray
    components: np.ndarray          # (n, width)
    singular_values: np.ndarray     # full spectrum of the centered embedding
    identity: bool = False

    def transform(self, points: np.ndarray) -> np.ndarray:
        centered = np.asarray(points) - self.mean
        if self.identity:
            return centered
        return centered @ self.components.T

    def inverse(self, states: np.ndarray) -> np.ndarray:
        if self.identity:
            return np.asarray(states) + self.mean
        return np.asarray(states) @ self.components + self.mean


def build_state_sequence(emb: DelayEmbedding, n: int) -> tuple[np.ndarray, ProjectionRecord]:
    """Leading-n principal coordinates of the mean-centered embedding.

    When n equals the embedding width the projection is the identity on
    centered coordinates (no rotation).  Component signs are fixed so the
    largest-magnitude entry of each component is positive.
    """
    pts = emb.points
    k, width = pts.shape
    if not 1 <= n <= width:
        raise ConfigError(f"n must lie in [1, {width}]")
    mean = pts.mean(axis=0)
    centered = pts - mean
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    tol = sv[0] * max(k, width) * np.finfo(float).eps if sv.size else 0.0
    rank = int(np.sum(sv > tol))
    if n > rank:
        raise DegenerateDataError(
            f"embedding has numerical rank {rank}; cannot build {n} states")
    if n == width:
        record = ProjectionRecord(mean, np.eye(width), sv, identity=True)
        return centered.copy(), record
    comps = vt[:n].copy()
    for i in range(n):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    record = ProjectionRecord(mean, comps, sv)
    return centered @ comps.T, record


@dataclass(frozen=True)
class ReducedModel:
    """Fitted evolution model plus its observation map.

    dynamics is B (discrete) or A (continuous); psi_coeffs maps basis values
    into the state equation; C and output_offset map states to outputs.
    fit holds the per-channel free-run fit on the training data, simulated
    from the least-squares initial state (None when the free run diverged).
    """

    mode: str                       # "discrete" | "continuous"
    dynamics: np.ndarray            # (n, n)
    psi_coeffs: np.ndarray          # (n, b)
    C: np.ndarray                   # (channels, n)
    output_offset: np.ndarray       # (channels,)
    basis: TimeBasis
    dt: float
    t0: float = 0.0
    fit: tuple | None = None
    residual_rms: tuple = ()

    @property
    def n_states(self) -> int:
        return self.dynamics.shape[0]

    def to_json(self) -> str:
        """Serialize as {mode, n, B, psi, C, fit} plus reconstruction extras.

        B is the dynamics matrix in either mode; psi lists one entry per
        basis term with its column of coefficients.  Floats are emitted with
        full repr precision, so from_json restores the model bit-exactly.
        """
        psi = []
        for j, tm in enumerate(self.basis.terms):
            psi.append({
                "term": tm.label(),
                "params": {"kind": tm.kind, "degree": tm.degree,
                           "omega": tm.omega, "phase": tm.phase,
                           "alpha": tm.alpha},
                "coeffs": self.psi_coeffs[:, j].tolist(),
            })
        payload = {
            "mode": self.mode,
            "n": int(self.dynamics.shape[0]),
            "B": self.dynamics.tolist(),
            "psi": psi,
            "C": self.C.tolist(),
            "fit": list(self.fit) if self.fit is not None else None,
            "dt": self.dt,
            "t0": self.t0,
            "output_offset": self.output_offset.tolist(),
            "residual_rms": list(self.residual_rms),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ReducedModel":
        d = json.loads(text)
        n = int(d["n"])
        basis = TimeBasis(tuple(
            BasisTerm(p["kind"], p["degree"], p["omega"], p["phase"], p["alpha"])
            for p in (entry["params"] for entry in d["psi"])))
        psi_coeffs = np.zeros((n, len(d["psi"])))
        for j, entry in enumerate(d["psi"]):
            psi_coeffs[:, j] = entry["coeffs"]
        return cls(
            mode=d["mode"],
            dynamics=np.array(d["B"], dtype=float),
            psi_coeffs=psi_coeffs,
            C=np.array(d["C"], dtype=float),
            output_offset=np.array(d["output_offset"], dtype=float),
            basis=basis,
            dt=d["dt"],
            t0=d.get("t0", 0.0),
            fit=tuple(d["fit"]) if d["fit"] is not None else None,
            residual_rms=tuple(d["residual_rms"]),
        )


def fit_percent(y, yhat) -> np.ndarray:
    """Per-channel fit 100*(1 - ||y - yhat|| / ||y - mean(y)||).

    100 is a perfect match; negative values mean worse than the mean
    predictor.  Constant observations are rejected.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float).T).T
    yhat = np.atleast_2d(np.asarray(yhat, dtype=float).T).T
    if y.shape != yhat.shape:
        raise ValueError("y and yhat must have equal shapes")
    out = np.empty(y.shape[1])
    for c in range(y.shape[1]):
        denom = float(np.linalg.norm(y[:, c] - y[:, c].mean()))
        if denom == 0.0:
            raise DegenerateDataError(f"channel {c} is constant; fit percent undefined")
        out[c] = 100.0 * (1.0 - float(np.linalg.norm(y[:, c] - yhat[:, c])) / denom)
    return out


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average per column; windows shrink at the edges.

    Differentiation amplifies noise, so continuous-mode fits can pre-smooth
    the state sequence with this filter.  window <= 1 is the identity.
    """
    arr = np.asarray(values, dtype=float)
    if window <= 1:
        return arr.copy()
    flat = arr.ndim == 1
    if flat:
        arr = arr[:, None]
    h = window // 2
    csum = np.vstack([np.zeros((1, arr.shape[1])), np.cumsum(arr, axis=0)])
    k = arr.shape[0]
    lo = np.maximum(np.arange(k) - h, 0)
    hi = np.minimum(np.arange(k) + h + 1, k)
    out = (csum[hi] - csum[lo]) / (hi - lo)[:, None]
    return out[:, 0] if flat else out


def fit_model(states: np.ndarray, outputs, basis: TimeBasis | None = None,
              mode: str = "discrete", dt: float = 1.0, t0: float = 0.0,
              smooth_window: int = 0) -> ReducedModel:
    """Least-squares identification of the state and observation equations.

    states: (K, n) sequence on a uniform grid t0 + k*dt.  outputs: (K,) or
    (K, channels) observations aligned with the states.  In discrete mode the
    regression target is the next state; in continuous mode it is the
    central-difference derivative, optionally taken on a moving-average
    smoothed copy of the states (smooth_window > 1).  A rank-deficient
    regressor block raises, naming the cure (fewer basis terms or lower n).

    The fit is taken on the free run from the least-squares x0.  One stacked
    run, propagated in closed form in 64-row blocks of Phi (_state_run),
    gives both x0 (bit-equal to estimate_x0) and, by superposition, that
    free run as forced + sum_i x0_i free_i, so fit lies within rel 1e-12 of
    fit_percent(outputs, simulate(model, x0, K)).  fit is None
    where that run's state norm passes 1e12.  When the stacked run diverges
    or its least squares fails, the fit falls back to simulate from the
    first state, and is None if that diverges too.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError("states must be a (K, n) array")
    if states.shape[0] < 3:
        raise InsufficientDataError(
            f"identification needs at least 3 states, got {states.shape[0]}")
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim == 1:
        outputs = outputs[:, None]
    if outputs.shape[0] != states.shape[0]:
        raise ValueError("outputs must align with states")
    if mode not in ("discrete", "continuous"):
        raise ConfigError(f"unknown mode {mode!r}")
    basis = basis if basis is not None else TimeBasis(())
    k, n = states.shape
    tgrid = t0 + dt * np.arange(k)
    phi = basis.evaluate(tgrid)

    if mode == "discrete":
        src = states
        reg = np.hstack([src[:-1], phi[:-1]])
        target = src[1:]
    else:
        src = moving_average(states, smooth_window) if smooth_window > 1 else states
        deriv = np.empty_like(src)
        deriv[1:-1] = (src[2:] - src[:-2]) / (2.0 * dt)
        deriv[0] = (src[1] - src[0]) / dt
        deriv[-1] = (src[-1] - src[-2]) / dt
        reg = np.hstack([src, phi])
        target = deriv

    sol, _, rank, _ = np.linalg.lstsq(reg, target, rcond=None)
    if rank < reg.shape[1]:
        raise DegenerateDataError(
            "rank-deficient regressor: drop basis terms or reduce the state order")
    dynamics = sol[:n].T
    psi = sol[n:].T

    obs_reg = np.hstack([src, np.ones((k, 1))])
    obs_sol, _, obs_rank, _ = np.linalg.lstsq(obs_reg, outputs, rcond=None)
    if obs_rank < obs_reg.shape[1]:
        raise DegenerateDataError("rank-deficient observation regression")
    c_mat = obs_sol[:n].T
    offset = obs_sol[n]

    resid = target - reg @ sol
    rms = tuple(float(v) for v in np.sqrt(np.mean(resid ** 2, axis=0)))

    model = ReducedModel(mode, dynamics, psi, c_mat, offset, basis, dt, t0,
                         fit=None, residual_rms=rms)
    try:
        forced, free = _responses(model, k, t0)
        x0 = _x0_from_responses(model, outputs, forced, free)
    except (DivergenceError, np.linalg.LinAlgError):
        x0 = None
    try:
        if x0 is None:
            yhat = simulate(model, src[0], k)
        else:
            yhat = _superposed_outputs(model, forced, free, x0)
        fp = tuple(float(v) for v in fit_percent(outputs, yhat))
    except (DivergenceError, DegenerateDataError):
        fp = None
    return ReducedModel(mode, dynamics, psi, c_mat, offset, basis, dt, t0,
                        fit=fp, residual_rms=rms)


def _apply(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mat @ v for every vector v along the first axis of vecs: (n, m) with
    (m, ...) gives (n, ...).

    The m products are added one coordinate at a time, left to right, so each
    vector rounds alike wherever it sits in a stack; a matrix product would
    pick its kernel, and so its rounding, by the stack's shape.
    """
    cols = mat.reshape(mat.shape + (1,) * (vecs.ndim - 1))
    out = np.zeros(mat.shape[:1] + vecs.shape[1:])
    for k in range(vecs.shape[0]):
        out += cols[:, k] * vecs[k]
    return out


def _rk4_step(a: np.ndarray, dt: float, x: np.ndarray, u) -> np.ndarray:
    """One RK4 step of dx/dt = a x + u(t) for every vector along the first
    axis of x; u holds the input at the step's start, middle and end."""
    k1 = _apply(a, x) + u[0]
    k2 = _apply(a, x + 0.5 * dt * k1) + u[1]
    k3 = _apply(a, x + 0.5 * dt * k2) + u[1]
    k4 = _apply(a, x + dt * k3) + u[2]
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _state_run(model: ReducedModel, x0, steps: int, t0: float) -> np.ndarray:
    """Propagate one forced run (n,) or a stack (c, n) of runs side by side.

    Returns (steps, n) or (steps, c, n), row 0 being x0.  A single state gets
    the input; in a stack only run 0 does, and the other runs are the free
    responses to their initial states.

    The model is linear in (x, input), so each step is x_{j+1} = Phi x_j + g_j.
    In discrete mode Phi = B and g_j = P phi(t_j).  In continuous mode Phi is
    the zero-input RK4 step applied to I, that is I + hA + (hA)^2/2 +
    (hA)^3/6 + (hA)^4/24, and g_j is the RK4 step from 0 with the input,
    evaluated for every j at once on the step grid and the RK4 half and end
    points.  The rows come in blocks of 64: Phi^1..Phi^64 are formed once, a
    Hillis-Steele scan (spans 1, 2, ..., 32) gives every block's forced
    partial sums s_r at once, only the block starts are stepped in turn (by
    Phi^64), and every row is filled as Phi^r x_start + s_r.  Whole-horizon
    powers would overflow on an unstable mode and turn bounded runs into nan
    (inf * 0); within a block the largest power is Phi^64, so only a mode
    growing by more than about 6e4 per step does that (a run from (1, 0)
    under B = diag(0.5, 1e6) raises at step 52, where stepping stays finite).

    Rounding differs from stepping row by row; on stable models the states
    stay within 1e-12 of the run's largest |state| (3e-15 on random stable
    models, 3e-13 on the Lorenz model of the benchmark).  Products are
    summed per coordinate (_apply), so every run of a stack is bit-equal to
    its run alone.  DivergenceError names the first step, step 0 (x0)
    included, at which any single run turns non-finite or its state norm
    passes 1e12.
    """
    x = np.asarray(x0, dtype=float)
    n, dt, a = model.n_states, model.dt, model.dynamics
    runs = x.reshape(-1, n).T                    # (n, c): run 0 is forced
    t = t0 + dt * np.arange(steps - 1)
    if model.mode == "discrete":
        step = a
        g = _apply(model.psi_coeffs, model.basis.evaluate(t).T)
    else:
        u = [_apply(model.psi_coeffs, model.basis.evaluate(s).T)
             for s in (t, t + 0.5 * dt, t + dt)]
        step = _rk4_step(a, dt, np.eye(n), (0.0, 0.0, 0.0))
        g = _rk4_step(a, dt, np.zeros_like(u[0]), u)
    blocks = -(-(steps - 1) // _BLOCK)
    # Rows past a diverged one are discarded, so their overflows (and the
    # nan of inf * 0) are not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        powers = step[None]                      # powers[r - 1] = Phi^r
        while len(powers) < _BLOCK:
            powers = np.concatenate([powers, powers[-1] @ powers])
        sums = np.zeros((n, blocks * _BLOCK))
        sums[:, :steps - 1] = g
        sums = sums.reshape(n, blocks, _BLOCK)
        span = 1
        while span < _BLOCK:
            sums[:, :, span:] += _apply(powers[span - 1], sums[:, :, :-span])
            span *= 2
        starts = np.empty((n, blocks) + runs.shape[1:])
        starts[:, :1] = runs[:, None]
        for b in range(1, blocks):
            starts[:, b] = _apply(powers[-1], starts[:, b - 1])
            starts[:, b, 0] += sums[:, b - 1, -1]
        # rows (r, i, block, run): coordinate i of Phi^r x_start, plus s_r
        rows = _apply(powers.reshape(-1, n), starts).reshape(
            _BLOCK, n, blocks, runs.shape[1])
        rows[..., 0] += sums.transpose(2, 0, 1)
        out = np.empty((steps,) + runs.shape[::-1])
        out[0] = runs.T
        out[1:] = rows.transpose(2, 0, 3, 1).reshape(-1, *out.shape[1:])[:steps - 1]
        _check_states(out)
    return out.reshape((steps,) + x.shape)


def _check_states(states: np.ndarray) -> None:
    """Raise DivergenceError naming the first step at which any run's state
    is non-finite or its norm passes 1e12.  states: (steps, n) or
    (steps, c, n), row 0 being step 0."""
    # per run: a nan or inf component makes its norm nan or inf
    norms = np.linalg.norm(states, axis=-1)
    bad = ~(norms <= _STATE_NORM_LIMIT).reshape(len(states), -1).all(axis=1)
    if bad.any():
        raise DivergenceError(
            f"model state diverged at step {int(np.argmax(bad))}")


def _responses(model: ReducedModel, steps: int, t0: float):
    """Forced response from zero (steps, n) and free responses (steps, n, n).

    One stacked run of n + 1 states: the zero state forced, then the unit
    states e_i unforced, so free[:, i] is the free response to e_i.
    """
    n = model.n_states
    runs = _state_run(model, np.vstack([np.zeros(n), np.eye(n)]), steps, t0)
    # contiguous copies, laid out as two separate runs would be, so that the
    # products taken from them round the same
    return np.ascontiguousarray(runs[:, 0]), np.ascontiguousarray(runs[:, 1:])


def _x0_from_responses(model: ReducedModel, outputs: np.ndarray,
                       forced: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Least-squares x0 for (K, channels) outputs, given the responses."""
    y_forced = forced @ model.C.T + model.output_offset
    # row (step, channel), column i: channel output of the run from e_i
    design = (free @ model.C.T).transpose(0, 2, 1).reshape(-1, model.n_states)
    target = (outputs - y_forced).ravel()
    sol, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    return sol


def _superposed_outputs(model: ReducedModel, forced: np.ndarray,
                        free: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Outputs of the forced run from x0, as forced + sum_i x0_i free_i.

    The model is linear, so this equals simulate(model, x0, K) up to
    rounding.  As in simulate, DivergenceError names the first step, x0's
    own included, whose state norm passes 1e12 or turns non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        states = forced + x0 @ free
        _check_states(states)
    return states @ model.C.T + model.output_offset


def estimate_x0(model: ReducedModel, outputs, t0: float | None = None) -> np.ndarray:
    """Least-squares initial state for the free run against observed outputs.

    The model output is affine in the initial state (superposition), so the
    best x0 follows from the forced run started at zero plus the unforced
    runs from the unit initial states e_i (Ljung, System Identification,
    2nd ed., 1999).  This keeps the evaluation from penalising directions
    the data never excited.  All n + 1 runs are propagated together as one
    stack, in closed form in 64-row blocks of the step matrix Phi
    (_state_run); each rounds as it would alone, so x0 is bit-equal to
    taking the runs one by one.  DivergenceError names the first step at
    which any run of the stack diverges.
    """
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim == 1:
        outputs = outputs[:, None]
    k = outputs.shape[0]
    if k < 2:
        raise ValueError("outputs must contain at least 2 rows")
    t0 = model.t0 if t0 is None else t0
    forced, free = _responses(model, k, t0)
    return _x0_from_responses(model, outputs, forced, free)


def simulate(model: ReducedModel, x0, steps: int, t0: float | None = None) -> np.ndarray:
    """Free-run the model; returns (steps, channels) outputs starting at x0.

    The first output row corresponds to x0 itself.  The states are
    propagated in closed form, x_{j+1} = Phi x_j + g_j in 64-row blocks
    (_state_run).  On stable models they lie within 1e-12 of the largest
    |state| of a per-step run, but are not bit-equal to it.  Raises
    DivergenceError naming the step (0 for x0 itself) when the state norm
    passes 1e12 or turns non-finite, and ConfigError before propagating when
    the basis overflows within the horizon.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x0, dtype=float)
    if x.shape != (model.n_states,):
        raise ValueError(f"x0 must have shape ({model.n_states},)")
    t0 = model.t0 if t0 is None else t0
    states = _state_run(model, x, steps, t0)
    return states @ model.C.T + model.output_offset
