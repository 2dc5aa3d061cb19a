"""Largest-exponent estimators and full spectra.

All exponents are per sample in natural-log units; divide by dt (or use
per_time) for rates per time unit.  Three data-driven largest-exponent routes
(pair tracking with replacement, nearest-neighbor divergence, neighborhood
divergence) plus tangent-space QR iteration with exact or locally regressed
Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .dimensions import data_diameter
from .embedding import DelayEmbedding, row_distances, successor_index
from .errors import ConfigError, DegenerateDataError, DivergenceError, InsufficientDataError
from .fitting import fit_scaling_region
from .systems import _NORM_LIMIT, DEFAULT_TRANSIENT, ReferenceSystem, rk4_floats


@dataclass(frozen=True)
class LyapunovSpectrum:
    """Exponents in descending order, per sample (natural log)."""

    exponents: tuple
    method: str
    steps: int
    dt: float = 1.0

    @property
    def per_time(self) -> tuple:
        return tuple(x / self.dt for x in self.exponents)


@dataclass(frozen=True)
class DivergenceCurve:
    """Mean log separation against step offset; its slope estimates lambda1."""

    offsets: np.ndarray
    values: np.ndarray
    n_refs: int
    dt: float
    method: str
    eps0: float | None = None


@dataclass(frozen=True)
class WolfResult:
    lambda1: float          # per sample
    segments: int           # replacement events accumulated
    total_steps: int
    dt: float
    evolve_steps: int


@dataclass(frozen=True)
class RateEstimate:
    value: float            # per sample
    stderr: float
    window: tuple           # (first offset, last offset) used by the fit


@dataclass(frozen=True)
class SpectrumReport:
    sum_exponents: float
    dissipative: bool
    zero_exponent_ok: bool | None   # None for maps (no neutral direction required)
    entropy_rate: float             # sum of positive exponents


def wolf_lambda1(emb: DelayEmbedding, evolve_steps: int = 1,
                 min_len: float = 0.0, max_len: float | None = None,
                 angle_tol: float = 0.9, theiler: int | None = None) -> WolfResult:
    """Track one separation vector, renormalizing by neighbor replacement.

    Each segment evolves the pair evolve_steps rows forward and accumulates
    ln(L_end / L_start).  Replacements prefer the closest admissible point
    whose direction cosine with the evolved separation is at least angle_tol
    and whose distance lies in [min_len, max_len]; when nothing qualifies the
    constraint relaxes to the plain nearest admissible point.

    The replacement rows are fixed in advance (0, e, 2e, ...), so their
    nearest 50 candidates come from one batched query; a row scans every
    admissible row, nearest first, only when none of its 50 qualifies.  An
    evolved separation of length zero has no direction, so its replacement
    only has to satisfy the length bounds.

    The walk runs on Python floats: lengths are math.dist of the rows, and a
    row's 50 candidates are tried one by one until the first fits.  Direction
    cosines add one coordinate product at a time, in the candidate walk and
    in the numpy scan alike, so both pick the same row.  numpy's norm and dot
    fuse multiply-adds, so lambda1 can differ from a numpy walk in the last
    bits (relative 1e-12 at most on the tested inputs); segments do not.
    """
    pts = emb.points
    k_rows = emb.n_points
    if max_len is None:
        max_len = 0.1 * data_diameter(pts)
    if evolve_steps < 1:
        raise ValueError("evolve_steps must be >= 1")
    index = successor_index(emb, evolve_steps)
    rows = pts.tolist()

    def first_fit(cand, dist, here, direction, length):
        """The nearest candidate that fits, walked on Python floats."""
        for i, d in zip(cand, dist):
            if not (d > 0.0 and min_len <= d <= max_len):
                continue
            if direction is None:
                return i
            dot = 0.0
            for a, b, u in zip(rows[i], here, direction):
                dot += (a - b) * u
            if dot / (length * d) >= angle_tol:
                return i
        return None

    def scan(row: int, direction, length):
        """Every admissible row in numpy, for a row none of whose pool fits."""
        cand, dist = index.ranked(pts[row], index.times[row], theiler)
        hit = np.flatnonzero((dist > 0.0) & (dist >= min_len) & (dist <= max_len))
        if direction is not None:
            near, here = cand[hit], rows[row]
            dot = (pts[near, 0] - here[0]) * direction[0]
            for j in range(1, len(direction)):
                dot += (pts[near, j] - here[j]) * direction[j]
            hit = hit[dot / (length * dist[hit]) >= angle_tol]
        if hit.size == 0:
            hit = np.flatnonzero(dist > 0.0)  # relax to the nearest distinct row
        return int(cand[hit[0]]) if hit.size else None

    starts = np.arange(0, index.n, evolve_steps)
    try:
        pools, pool_d = index.knn_many(starts, min(50, index.n - 1), theiler)
    except InsufficientDataError:
        pools = None  # some row lacks 50 admissible rows: every row scans

    def replace(row: int, direction: list | None, length: float):
        if length == 0.0:
            direction = None  # a collapsed separation keeps no direction
        if pools is not None:
            j = row // evolve_steps
            hit = first_fit(pools[j].tolist(), pool_d[j].tolist(), rows[row],
                            direction, length)
            if hit is not None:
                return hit
        return scan(row, direction, length)

    c = 0
    n = replace(c, None, 0.0)
    if n is None:
        raise InsufficientDataError("no admissible starting neighbor")
    log_sum = 0.0
    segments = 0
    total = 0
    while c + evolve_steps <= k_rows - 1:
        l_start = math.dist(rows[n], rows[c])
        c2 = c + evolve_steps
        n2 = n + evolve_steps
        l_end = math.dist(rows[n2], rows[c2])
        if l_start > 0.0 and l_end > 0.0:
            log_sum += math.log(l_end / l_start)
            segments += 1
            total += evolve_steps
        c = c2
        if c + evolve_steps > k_rows - 1 or c >= index.n:
            break
        n = replace(c, [a - b for a, b in zip(rows[n2], rows[c2])], l_end)
        if n is None:
            break
    if segments < 10:
        raise InsufficientDataError(
            f"only {segments} replacement segments; need at least 10")
    return WolfResult(log_sum / total, segments, total, emb.dt, evolve_steps)


def rosenstein_curve(emb: DelayEmbedding, horizon: int,
                     theiler: int | None = None) -> DivergenceCurve:
    """Mean ln distance between each point and its nearest neighbor, per offset.

    Both come from the rows with horizon future rows; the nearest neighbor is
    the admissible row of least (distance, row index).  Rows with no
    admissible row, or whose nearest neighbor coincides with them, are skipped.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    pts = emb.points
    if theiler is None:
        theiler = emb.default_theiler()
    if emb.n_points - horizon < 2:
        raise InsufficientDataError("horizon exceeds the available rows")
    index = successor_index(emb, horizon)
    # A row has an admissible neighbor iff some row lies outside its window.
    times = index.times
    refs = np.flatnonzero((times.max() - times > theiler)
                          | (times - times.min() > theiler))
    if refs.size == 0:
        raise InsufficientDataError("no admissible nearest neighbors; lower theiler")
    nns, d0 = index.knn_many(refs, 1, theiler)
    keep = d0[:, 0] > 0.0
    refs, nns = refs[keep], nns[keep, 0]
    if refs.size == 0:
        raise DegenerateDataError("all nearest-neighbor distances are zero")

    offsets = np.arange(horizon + 1)
    values = np.empty(horizon + 1)
    for i in offsets:
        d = np.sqrt(np.sum((pts[refs + i] - pts[nns + i]) ** 2, axis=1))
        good = d > 0.0
        values[i] = float(np.mean(np.log(d[good])))
    return DivergenceCurve(offsets, values, refs.size, emb.dt, "rosenstein")


# Floats of the largest (references, widest ball, offsets, width) displacement
# block kantz_curve builds at once.
_KANTZ_BLOCK = 1 << 18


def kantz_curve(emb: DelayEmbedding, eps0: float, horizon: int,
                theiler: int | None = None,
                n_refs: int | None = 1000) -> DivergenceCurve:
    """Mean ln of neighborhood-averaged distances, per offset.

    Reference points whose eps0 ball holds no admissible neighbor are skipped;
    if every ball is empty the call fails asking for a larger eps0.  n_refs
    caps the number of (evenly spaced) reference points; None uses all.

    Each reference gets one radius query.  The averages then run in blocks
    of references with balls of similar size, each ball zero-padded to the
    block's widest with copies of its reference (which add exact zeros), so
    every sum keeps the neighbor order of a per-reference loop and the curve
    is bit-equal to one.  The logs are summed in reference order.

    A ball collapsed onto its reference's orbit at some offset (as on coarsely
    quantized data) gives -inf there, a point that no fit window accepts.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    pts = emb.points
    n_eligible = emb.n_points - horizon
    if n_eligible < 2:
        raise InsufficientDataError("horizon exceeds the available rows")
    index = successor_index(emb, horizon)

    if n_refs is None or n_refs >= n_eligible:
        refs = np.arange(n_eligible)
    else:
        refs = np.unique(np.linspace(0, n_eligible - 1, n_refs).astype(int))

    kept, balls = [], []
    for r in refs.tolist():
        nbrs, d = index.radius(r, eps0, theiler)
        nbrs = nbrs[d > 0.0]
        if nbrs.size:
            kept.append(r)
            balls.append(nbrs)
    if not kept:
        raise ConfigError("every eps0 neighborhood is empty; increase eps0")
    used = np.array(kept)
    sizes = np.array([b.size for b in balls])
    offsets = np.arange(horizon + 1)
    log_means = np.empty((used.size, offsets.size))
    by_size = np.argsort(sizes, kind="stable")
    per_nbr = offsets.size * emb.width
    start = 0
    while start < used.size:
        # Grow the block while (references x widest ball) fits the budget.
        block = np.arange(1, used.size - start + 1) * sizes[by_size[start:]] * per_nbr
        stop = start + max(1, int(np.searchsorted(block, _KANTZ_BLOCK, side="right")))
        sel = by_size[start:stop]
        ref = used[sel]
        nbrs = np.repeat(ref[:, None], sizes[sel[-1]], axis=1)
        nbrs[np.arange(nbrs.shape[1]) < sizes[sel][:, None]] = \
            np.concatenate([balls[i] for i in sel])
        here = pts[ref[:, None] + offsets][:, None]     # (refs, 1, offsets, width)
        dist = row_distances(pts, nbrs[:, :, None] + offsets, here)
        with np.errstate(divide="ignore"):  # a collapsed ball logs -inf
            log_means[sel] = np.log(dist.sum(axis=1) / sizes[sel][:, None])
        start = stop
    return DivergenceCurve(offsets, log_means.sum(axis=0) / used.size, used.size,
                           emb.dt, "kantz", eps0=eps0)


def divergence_rate(curve: DivergenceCurve,
                    fit_range: tuple | None = None) -> RateEstimate:
    """Slope of a divergence curve (per sample) over its linear region.

    fitting.fit_scaling_region picks the offsets: the automatic window, or
    with fit_range every offset inside it (at least 2).
    """
    x = curve.offsets.astype(float)
    fit = fit_scaling_region(x, curve.values, fit_range, unit="offsets")
    i, j = fit.window
    return RateEstimate(fit.slope, fit.stderr, (float(x[i]), float(x[j])))


# Tangent frames of at most this many rows are stepped on Python floats, in
# closed form on 3-component tuples (narrower frames padded with zeros, which
# adds only exact zeros): at this size numpy's per-call cost outweighs the
# arithmetic many times over.  Wider frames are stepped on numpy arrays.
_FLOAT_WIDTH = 3


def _pad3(m) -> tuple:
    """A square matrix of at most 3 rows as a 3 x 3 tuple, zero-padded."""
    if len(m) == 3:
        return m
    return tuple(tuple(row) + (0.0,) * (3 - len(m)) for row in m) \
        + ((0.0, 0.0, 0.0),) * (3 - len(m))


def _unit_frame(n_exp: int) -> list:
    return [tuple(float(i == j) for i in range(3)) for j in range(n_exp)]


def _mat_frame(m, frame) -> list:
    """m @ W for a padded 3 x 3 m and a frame W held as its column tuples."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return [(a * p + b * q + c * r, d * p + e * q + f * r, g * p + h * q + i * r)
            for p, q, r in frame]


def _frame_finite(frame) -> bool:
    return all(map(math.isfinite, chain.from_iterable(frame)))


def _qr_step(frame, sigma) -> list:
    """One QR step of a float frame: returns Q's columns, adds log r_jj to sigma[j].

    Gram-Schmidt with one re-orthogonalisation pass ("twice is enough",
    Giraud et al., Numer. Math. 101, 2005) keeps Q orthonormal to working
    precision when the columns nearly align, as they do when several steps
    pass between renormalisations.  Its r_jj are positive, which is the sign
    rule _qr_lapack applies.
    """
    q = []
    for j, (x, y, z) in enumerate(frame):
        for _ in (0, 1) if q else ():
            for a, b, c in q:
                d = a * x + b * y + c * z
                x, y, z = x - d * a, y - d * b, z - d * c
        r = math.hypot(x, y, z)
        if r == 0.0:
            raise DegenerateDataError("tangent frame collapsed (zero QR diagonal)")
        sigma[j] += math.log(r)
        q.append((x / r, y / r, z / r))
    return q


def _array_finite(w: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(w)))


def _qr_lapack(w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """_qr_step for a (width, n_exp) array frame, through LAPACK, with Q's
    column signs flipped so that diag(R) is positive."""
    q, r = np.linalg.qr(w)
    diag = np.diag(r).copy()
    if np.any(diag == 0.0):
        raise DegenerateDataError("tangent frame collapsed (zero QR diagonal)")
    sigma += np.log(np.abs(diag))
    return q * np.sign(diag)


def _tangent_map(system: ReferenceSystem, x: list, w: list,
                 t: float, dt: float) -> tuple[list, list]:
    return system.rhs(x, t), _mat_frame(_pad3(system.rhs_jac(x, t)), w)


def _tangent_rk4(system: ReferenceSystem, x: list, w: list,
                 t: float, dt: float) -> tuple[list, list]:
    # Exact derivative of the RK4 one-step map, propagated alongside the
    # state; the state takes the operations of systems.rk4_floats.
    rhs, jac = system.rhs, system.rhs_jac
    h = 0.5 * dt
    k1 = rhs(x, t)
    x2 = [a + h * b for a, b in zip(x, k1)]
    k2 = rhs(x2, t + h)
    x3 = [a + h * b for a, b in zip(x, k2)]
    k3 = rhs(x3, t + h)
    x4 = [a + dt * b for a, b in zip(x, k3)]
    k4 = rhs(x4, t + dt)
    sixth = dt / 6.0
    x_new = [a + sixth * (p + 2.0 * q + 2.0 * r + s)
             for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
    m1 = _mat_frame(_pad3(jac(x, t)), w)
    m2 = _mat_frame(_pad3(jac(x2, t + h)), [
        (p + h * a, q + h * b, r + h * c) for (p, q, r), (a, b, c) in zip(w, m1)])
    m3 = _mat_frame(_pad3(jac(x3, t + h)), [
        (p + h * a, q + h * b, r + h * c) for (p, q, r), (a, b, c) in zip(w, m2)])
    m4 = _mat_frame(_pad3(jac(x4, t + dt)), [
        (p + dt * a, q + dt * b, r + dt * c) for (p, q, r), (a, b, c) in zip(w, m3)])
    w_new = [(p + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
              q + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
              r + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4))
             for (p, q, r), (a1, b1, c1), (a2, b2, c2), (a3, b3, c3), (a4, b4, c4)
             in zip(w, m1, m2, m3, m4)]
    return x_new, w_new


def _tangent_map_array(system: ReferenceSystem, x: np.ndarray, w: np.ndarray,
                       t: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    return system.f(x, t), system.jac(x, t) @ w


def _tangent_rk4_array(system: ReferenceSystem, x: np.ndarray, w: np.ndarray,
                       t: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    # _tangent_rk4 on a (dim, n_exp) array frame.
    f, jac = system.f, system.jac
    k1 = f(x, t)
    x2 = x + 0.5 * dt * k1
    k2 = f(x2, t + 0.5 * dt)
    x3 = x + 0.5 * dt * k2
    k3 = f(x3, t + 0.5 * dt)
    x4 = x + dt * k3
    k4 = f(x4, t + dt)
    m1 = jac(x, t) @ w
    m2 = jac(x2, t + 0.5 * dt) @ (w + 0.5 * dt * m1)
    m3 = jac(x3, t + 0.5 * dt) @ (w + 0.5 * dt * m2)
    m4 = jac(x4, t + dt) @ (w + dt * m3)
    x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    w_new = w + (dt / 6.0) * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
    return x_new, w_new


def benettin_exact(system: ReferenceSystem, steps: int, x0=None,
                   dt: float | None = None, n_exp: int | None = None,
                   renorm_interval: int = 1,
                   transient: int = DEFAULT_TRANSIENT, t0: float = 0.0) -> LyapunovSpectrum:
    """QR-iterated tangent propagation with the analytic Jacobian.

    Systems of at most 3 dimensions are stepped on Python floats through
    their scalar rhs and rhs_jac, larger ones on numpy arrays.  A state that
    turns non-finite or whose norm passes systems._NORM_LIMIT raises
    DivergenceError naming the step.

    renorm_interval > 1 propagates the frame k steps between QRs, which loses
    about eps * exp((lambda_1 - lambda_2) * k) of relative accuracy in each
    log r_jj: the Henon exponent sum is off by about 5e-10 at k = 10 against
    2e-14 at k = 1.
    """
    x = np.asarray(system.x0_default if x0 is None else x0, dtype=float).tolist()
    dt = system.dt_default if dt is None else dt
    n_exp = system.dim if n_exp is None else n_exp
    if not 1 <= n_exp <= system.dim:
        raise ValueError("n_exp must lie in [1, dim]")
    if steps < 1:
        raise ValueError("steps must be positive")
    if renorm_interval < 1:
        raise ValueError("renorm_interval must be positive")
    flow = system.kind == "flow"
    t = t0
    try:
        for i in range(transient):
            x = rk4_floats(system.rhs, x, t, dt) if flow else system.rhs(x, t)
            t = t0 + (i + 1) * (dt if flow else 1.0)
    except OverflowError:  # numpy would have carried an inf into step 0
        raise DivergenceError(
            f"{system.name}: tangent propagation diverged at step 0") from None
    if system.dim <= _FLOAT_WIDTH:
        w, sigma = _unit_frame(n_exp), [0.0] * n_exp
        advance = _tangent_rk4 if flow else _tangent_map
        finite, renormalise = _frame_finite, _qr_step
    else:
        x, w, sigma = np.array(x), np.eye(system.dim)[:, :n_exp], np.zeros(n_exp)
        advance = _tangent_rk4_array if flow else _tangent_map_array
        finite, renormalise = _array_finite, _qr_lapack
    pending = 0
    for i in range(steps):
        try:
            x, w = advance(system, x, w, t, dt)
            # A state past the norm limit diverged, as in systems.sample; so
            # it is reported before the QR of a frame built on it collapses.
            # hypot is nan or inf for a non-finite state.
            ok = math.hypot(*x) <= _NORM_LIMIT and finite(w)
        except OverflowError:  # a float power overflowed where numpy gives inf
            ok = False
        if not ok:
            raise DivergenceError(f"{system.name}: tangent propagation diverged at step {i}")
        t += dt if flow else 1.0
        pending += 1
        if pending == renorm_interval:
            w = renormalise(w, sigma)
            pending = 0
    if pending:
        w = renormalise(w, sigma)
    lam = np.sort(np.array(sigma) / steps)[::-1]
    sample_dt = dt if flow else 1.0
    return LyapunovSpectrum(tuple(lam), "benettin-exact", steps, sample_dt)


def benettin_data(emb: DelayEmbedding, steps: int | None = None,
                  k_neighbors: int | None = None, renorm_interval: int = 1,
                  theiler: int | None = None, n_exp: int | None = None) -> LyapunovSpectrum:
    """QR iteration with Jacobians regressed from neighborhood displacements.

    At each row the k nearest admissible neighbors (all having successors)
    give a least-squares map from displacements to their one-step images.
    k defaults to 2*width+1.  The neighborhoods come from one batched query
    and every map from one stacked SVD, with lstsq's rank rule (singular
    values at most eps*max(k, width) times the largest count as zero).
    Frames of width at most 3 are stepped on Python floats, wider ones on
    numpy arrays.  renorm_interval > 1 costs accuracy as in benettin_exact:
    about eps * exp((lambda_1 - lambda_2) * k) relative in each log r_jj.
    """
    pts = emb.points
    width = emb.width
    n_exp = width if n_exp is None else n_exp
    if not 1 <= n_exp <= width:
        raise ValueError("n_exp must lie in [1, width]")
    max_steps = emb.n_points - 1
    steps = max_steps if steps is None else steps
    if steps < 1 or steps > max_steps:
        raise InsufficientDataError(f"steps must lie in [1, {max_steps}]")
    if k_neighbors is None:
        k_neighbors = 2 * width + 1
    if k_neighbors < width:
        raise ValueError("k_neighbors must be at least the embedding width")
    if renorm_interval < 1:
        raise ValueError("renorm_interval must be positive")
    index = successor_index(emb, 1)

    rows = np.arange(steps)
    nbrs, _ = index.knn_many(rows, k_neighbors, theiler)
    x = pts[nbrs] - pts[rows][:, None, :]            # (steps, k, width)
    y = pts[nbrs + 1] - pts[rows + 1][:, None, :]
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    cutoff = np.finfo(float).eps * max(k_neighbors, width) * s[:, :1]
    rank = np.sum(s > cutoff, axis=1).tolist()
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    # Transposed least-squares solutions: jac[t] @ x[t, i] ~ y[t, i].
    jac = np.swapaxes(y, 1, 2) @ u @ (inv_s[:, :, None] * vt)

    if width <= _FLOAT_WIDTH:
        padded = np.zeros((steps, 3, 3))
        padded[:, :width, :width] = jac
        jac, w, sigma = padded.tolist(), _unit_frame(n_exp), [0.0] * n_exp
        propagate, finite, renormalise = _mat_frame, _frame_finite, _qr_step
    else:
        w, sigma = np.eye(width)[:, :n_exp], np.zeros(n_exp)
        propagate, finite, renormalise = np.matmul, _array_finite, _qr_lapack
    pending = 0
    for t in range(steps):
        if rank[t] < width:
            raise DegenerateDataError(
                f"singular neighborhood regression at row {t}; increase k_neighbors")
        w = propagate(jac[t], w)
        if not finite(w):
            raise DivergenceError(f"tangent propagation diverged at row {t}")
        pending += 1
        if pending == renorm_interval:
            w = renormalise(w, sigma)
            pending = 0
    if pending:
        w = renormalise(w, sigma)
    lam = np.sort(np.array(sigma) / steps)[::-1]
    return LyapunovSpectrum(tuple(lam), "benettin-data", steps, emb.dt)


def spectrum_checks(spectrum, kind: str = "flow",
                    zero_tol: float = 0.005) -> SpectrumReport:
    """Consistency report: neutral direction (flows), dissipativity, entropy rate."""
    if isinstance(spectrum, LyapunovSpectrum):
        lam = np.asarray(spectrum.exponents)
    else:
        lam = np.asarray(spectrum, dtype=float)
    total = float(lam.sum())
    zero_ok = None
    if kind == "flow":
        zero_ok = bool(np.min(np.abs(lam)) <= zero_tol)
    return SpectrumReport(
        sum_exponents=total,
        dissipative=bool(total < 0.0),
        zero_exponent_ok=zero_ok,
        entropy_rate=float(lam[lam > 0].sum()),
    )
