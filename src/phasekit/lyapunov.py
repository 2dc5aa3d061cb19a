"""Largest-exponent estimators and full spectra.

All exponents are per sample in natural-log units; divide by dt (or use
per_time) for rates per time unit.  Three data-driven largest-exponent routes
(pair tracking with replacement, nearest-neighbor divergence, neighborhood
divergence) plus tangent-space QR iteration with exact or locally regressed
Jacobians.  Both QR routes run one iteration loop; the exact one steps the
frame as the variational system with the state's own integrator
(systems.rk4_floats or rk4_step for flows, one rhs call for maps), so on an
autonomous system its state rows are those of systems.sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dimensions import data_diameter
from .embedding import DelayEmbedding, row_distances, successor_index
from .errors import ConfigError, DegenerateDataError, DivergenceError, InsufficientDataError
from .fitting import fit_scaling_region
from .systems import (_NORM_LIMIT, DEFAULT_TRANSIENT, ReferenceSystem, _compile, _each,
                      rk4_floats, rk4_step, sample)


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
    """Mean log separation against step offset; its slope estimates lambda1.

    n_refs references were used, of the n_tried whose neighbors were queried
    (None on a curve built by hand).
    """

    offsets: np.ndarray
    values: np.ndarray
    n_refs: int
    dt: float
    method: str
    eps0: float | None = None
    n_tried: int | None = None


@dataclass(frozen=True)
class WolfResult:
    lambda1: float          # per sample
    segments: int           # replacement events accumulated
    total_steps: int
    dt: float
    evolve_steps: int
    scanned: int = 0        # replacement searches that scanned every admissible row
    relaxed: int = 0        # replacements where no row fitted length and angle


@dataclass(frozen=True)
class RateEstimate:
    value: float            # per sample
    stderr: float
    window: tuple           # (first offset, last offset) used by the fit


@dataclass(frozen=True)
class SpectrumReport:
    """spectrum_checks' figures, per sample like the exponents they sum.

    sum_exponents is the phase-space volume contraction rate only for an
    exact spectrum (benettin_exact: -41/3 dt for Lorenz).  On data it is
    not: benettin_data resolves the contracting exponents poorly, and on a
    delay embedding of Lorenz (5 000 samples, dt 0.01, m = 3, tau = 17) the
    sum reads about -4 to -5 per time unit against -41/3.
    """

    sum_exponents: float
    dissipative: bool
    zero_exponent_ok: bool | None   # None for maps (no neutral direction required)
    entropy_rate: float             # sum of positive exponents


# Wolf replacements lie at most this fraction of the data diameter away.
_WOLF_MAX_LEN = 0.1
# Nearest candidates of each replacement row tried before a full scan.
_WOLF_POOL = 16


def wolf_lambda1(emb: DelayEmbedding, evolve_steps: int = 1,
                 angle_tol: float = 0.9, theiler: int | None = None) -> WolfResult:
    """Track one separation vector, renormalizing by neighbor replacement.

    Each segment evolves the pair evolve_steps rows forward and accumulates
    ln(L_end / L_start).  Replacements prefer the closest admissible point
    whose direction cosine with the evolved separation is at least angle_tol
    and whose distance lies in (0, _WOLF_MAX_LEN x the data diameter]; when
    nothing qualifies the constraint relaxes to the plain nearest admissible
    point.  Ties in distance go to the lower row.

    The replacement rows are fixed in advance (0, e, 2e, ...), so their
    nearest _WOLF_POOL candidates come from one batched query.  knn_many
    returns them in exact (distance, row) order, so a pool is a prefix of
    that order over every admissible row, and its first fit is the answer
    whenever it has one (on 7 000-sample Henon orbits the first fit lies
    among the nearest 16 in about 99.5% of rows).  A row none of whose pool
    fits scans every admissible row without sorting: one distance per row,
    the same length and angle test, and the fitting row of least (distance,
    row) by argmin; the rows ascend, so argmin's first hit is the least row.
    scanned counts those scans, and relaxed the replacements where nothing
    fitted, the starting neighbor's search included.  An evolved separation
    of length zero has no direction, so its replacement only has to satisfy
    the length bounds.

    The walk runs on Python floats: lengths are math.dist of the rows, and a
    row's pool is tried one candidate at a time until the first fits.
    Direction cosines add one coordinate product at a time, in the candidate
    walk and in the numpy scan alike, so both pick the same row.  numpy's
    norm and dot fuse multiply-adds, so lambda1 can differ from a numpy walk
    in the last bits (relative 1e-12 at most on the tested inputs); segments
    do not.
    """
    pts = emb.points
    k_rows = emb.n_points
    max_len = _WOLF_MAX_LEN * data_diameter(pts)
    if evolve_steps < 1:
        raise ValueError("evolve_steps must be >= 1")
    index = successor_index(emb, evolve_steps, theiler)
    rows = pts.tolist()
    scanned = relaxed = 0

    def first_fit(cand, dist, here, direction, length):
        """The nearest candidate that fits, walked on Python floats."""
        for i, d in zip(cand, dist):
            if not 0.0 < d <= max_len:
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
        """The fitting admissible row of least (distance, row), in numpy."""
        nonlocal scanned, relaxed
        scanned += 1
        cand = np.flatnonzero(np.abs(index.times - index.times[row]) > index.theiler)
        dist = row_distances(index.points, cand, pts[row])
        hit = np.flatnonzero((dist > 0.0) & (dist <= max_len))
        if direction is not None:
            near, here = cand[hit], rows[row]
            dot = (pts[near, 0] - here[0]) * direction[0]
            for j in range(1, len(direction)):
                dot += (pts[near, j] - here[j]) * direction[j]
            hit = hit[dot / (length * dist[hit]) >= angle_tol]
        if hit.size == 0:
            hit = np.flatnonzero(dist > 0.0)  # relax to the nearest distinct row
            if hit.size == 0:
                return None
            relaxed += 1
        return int(cand[hit[np.argmin(dist[hit])]])

    starts = np.arange(0, index.n, evolve_steps)
    try:
        pools, pool_d = index.knn_many(starts, min(_WOLF_POOL, index.n - 1))
    except InsufficientDataError:
        pools = None  # some row lacks _WOLF_POOL admissible rows: every row scans
    else:
        pools, pool_d = pools.tolist(), pool_d.tolist()

    def replace(row: int, direction: list | None, length: float):
        if length == 0.0:
            direction = None  # a collapsed separation keeps no direction
        if pools is not None:
            j = row // evolve_steps
            hit = first_fit(pools[j], pool_d[j], rows[row], direction, length)
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
    return WolfResult(log_sum / total, segments, total, emb.dt, evolve_steps,
                      scanned, relaxed)


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
    if emb.n_points - horizon < 2:
        raise InsufficientDataError("horizon exceeds the available rows")
    index = successor_index(emb, horizon, theiler)
    # A row has an admissible neighbor iff some row lies outside its window.
    times = index.times
    refs = np.flatnonzero((times.max() - times > index.theiler)
                          | (times - times.min() > index.theiler))
    if refs.size == 0:
        raise InsufficientDataError("no admissible nearest neighbors; lower theiler")
    n_tried = refs.size
    nns, d0 = index.knn_many(refs, 1)
    keep = d0[:, 0] > 0.0
    refs, nns = refs[keep], nns[keep, 0]
    if refs.size == 0:
        raise DegenerateDataError("all nearest-neighbor distances are zero")

    offsets = np.arange(horizon + 1)
    values = np.empty(horizon + 1)
    for i in offsets:
        d = row_distances(pts, refs + i, pts[nns + i])
        values[i] = float(np.mean(np.log(d[d > 0.0])))
    return DivergenceCurve(offsets, values, refs.size, emb.dt, "rosenstein",
                           n_tried=n_tried)


# Floats of the largest (references, widest ball, offsets, width) displacement
# block kantz_curve builds at once; its ball queries run in chunks of as many
# references as the block holds at one neighbor each.
_KANTZ_BLOCK = 1 << 18


def kantz_curve(emb: DelayEmbedding, eps0: float | None = None, horizon: int = 50,
                theiler: int | None = None,
                n_refs: int | None = 1000) -> DivergenceCurve:
    """Mean ln of neighborhood-averaged distances, per offset.

    eps0 None takes 1% of the data diameter, which must not be 0; a given
    eps0 that is not finite and positive is a ValueError.  Reference
    points whose eps0 ball holds no admissible neighbor are skipped; if every
    ball is empty the call fails asking for a larger eps0.  n_refs (at least
    1) caps the number of (evenly spaced) reference points; None uses all.

    The balls of all references come from one batched ball query
    (NeighborIndex.radius_many), in reference chunks bounded by
    _KANTZ_BLOCK, each ball in (distance, row index) order as radius_point
    returns it; the rows at distance 0 are dropped.  The averages then run in
    blocks of references with balls of similar size, each ball zero-padded to
    the block's widest with copies of its reference (which add exact zeros),
    so every sum keeps the neighbor order of a per-reference loop and the
    curve is bit-equal to one.  The logs are summed in reference order.

    A ball collapsed onto its reference's orbit at some offset (as on coarsely
    quantized data) gives -inf there, a point that no fit window accepts.
    """
    pts = emb.points
    if eps0 is None:
        diameter = data_diameter(pts)
        if diameter == 0.0:
            raise DegenerateDataError(
                "all embedded points coincide; the default eps0 "
                "(1% of the diameter) would be 0")
        eps0 = 0.01 * diameter
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0.0 < eps0 < math.inf:
        raise ValueError(f"eps0 must be positive and finite, got {eps0}")
    if n_refs is not None and n_refs < 1:
        raise ValueError(f"n_refs must be >= 1, got {n_refs}")
    n_eligible = emb.n_points - horizon
    if n_eligible < 2:
        raise InsufficientDataError("horizon exceeds the available rows")
    index = successor_index(emb, horizon, theiler)

    if n_refs is None or n_refs >= n_eligible:
        refs = np.arange(n_eligible)
    else:
        refs = np.unique(np.linspace(0, n_eligible - 1, n_refs).astype(int))

    offsets = np.arange(horizon + 1)
    per_nbr = offsets.size * emb.width
    chunk = max(1, _KANTZ_BLOCK // per_nbr)
    nbr_parts, size_parts = [], []
    for lo in range(0, refs.size, chunk):
        nbrs, d, starts = index.radius_many(refs[lo:lo + chunk], eps0)
        keep = d > 0.0      # rows at distance 0 duplicate the reference
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        nbr_parts.append(nbrs[keep])
        size_parts.append(np.diff(kept_before[starts]))
    flat = np.concatenate(nbr_parts)
    sizes = np.concatenate(size_parts)
    used = refs[sizes > 0]
    if used.size == 0:
        raise ConfigError("every eps0 neighborhood is empty; increase eps0")
    sizes = sizes[sizes > 0]
    first = np.cumsum(sizes) - sizes    # where each used ball starts in flat
    log_means = np.empty((used.size, offsets.size))
    by_size = np.argsort(sizes, kind="stable")
    start = 0
    while start < used.size:
        # Grow the block while (references x widest ball) fits the budget.
        block = np.arange(1, used.size - start + 1) * sizes[by_size[start:]] * per_nbr
        stop = start + max(1, int(np.searchsorted(block, _KANTZ_BLOCK, side="right")))
        sel = by_size[start:stop]
        ref = used[sel]
        cols = np.arange(sizes[sel[-1]])
        inside = cols < sizes[sel][:, None]
        nbrs = np.repeat(ref[:, None], cols.size, axis=1)
        nbrs[inside] = flat[(first[sel][:, None] + cols)[inside]]
        here = pts[ref[:, None] + offsets][:, None]     # (refs, 1, offsets, width)
        dist = row_distances(pts, nbrs[:, :, None] + offsets, here)
        with np.errstate(divide="ignore"):  # a collapsed ball logs -inf
            log_means[sel] = np.log(dist.sum(axis=1) / sizes[sel][:, None])
        start = stop
    return DivergenceCurve(offsets, log_means.sum(axis=0) / used.size, used.size,
                           emb.dt, "kantz", eps0=eps0, n_tried=refs.size)


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
# closed form on 3-component columns (narrower frames padded with zeros, which
# adds only exact zeros): at this size numpy's per-call cost outweighs the
# arithmetic many times over.  Wider frames are stepped on numpy arrays.
_FLOAT_WIDTH = 3


def _pad3(m) -> tuple:
    """A square matrix of at most 3 rows as a 3 x 3 tuple, zero-padded."""
    n = len(m)
    if n == 3:
        return m
    pad = (0.0,) * (3 - n)
    return tuple([tuple(row) + pad for row in m]) + ((0.0, 0.0, 0.0),) * (3 - n)


_FRAME_PRODUCTS: dict[int, Callable] = {}  # n_cols -> _mat_frame(n_cols)


def _mat_frame(n_cols: int) -> Callable:
    """product(m, W) = m @ W for a padded 3 x 3 m and a float frame W of
    n_cols 3-component columns, flat by columns, returned as a list.

    Written out for n_cols from one template, compiled on first use and
    cached like systems.rk4_floats; the operations are those of a loop over
    the columns.
    """
    product = _FRAME_PRODUCTS.get(n_cols)
    if product is None:
        name = f"mat_frame_{n_cols}"
        product = _FRAME_PRODUCTS[n_cols] = _compile(name, f"""\
def {name}(m, frame):
    (a, b, c), (d, e, f), (g, h, i) = m
    {_each("u@, v@, w@", n_cols)}= frame
    return [{_each("a * u@ + b * v@ + c * w@, d * u@ + e * v@ + f * w@, "
                   "g * u@ + h * v@ + i * w@", n_cols)}]
""")
    return product


_QR_STEPS: dict[int, Callable] = {}  # n_cols -> _qr_step(n_cols)


def _qr_step(n_cols: int) -> Callable:
    """qr(frame, sigma): one QR step of a float frame of n_cols 3-component
    columns, flat by columns; returns Q's columns flat and adds log r_jj to
    sigma[j].

    Gram-Schmidt with one re-orthogonalisation pass ("twice is enough",
    Giraud et al., Numer. Math. 101, 2005) keeps Q orthonormal to working
    precision when the columns nearly align, as they do when several steps
    pass between renormalisations.  Its r_jj are positive, which is the sign
    rule _qr_lapack applies.  Written out for n_cols like _mat_frame: column
    j is projected off Q's columns 0..j-1 in order, twice, then normalised.
    """
    qr = _QR_STEPS.get(n_cols)
    if qr is None:
        lines = [f"{_each('x@, y@, z@', n_cols)}= frame"]
        for j in range(n_cols):
            for k in [*range(j)] * 2:
                lines += [f"d = a{k} * x{j} + b{k} * y{j} + c{k} * z{j}",
                          f"x{j}, y{j}, z{j} = x{j} - d * a{k}, y{j} - d * b{k}, z{j} - d * c{k}"]
            lines += [f"r = hypot(x{j}, y{j}, z{j})",
                      "if r == 0.0:",
                      "    raise DegenerateDataError('tangent frame collapsed (zero QR diagonal)')",
                      f"sigma[{j}] += log(r)",
                      f"a{j}, b{j}, c{j} = x{j} / r, y{j} / r, z{j} / r"]
        lines.append(f"return [{_each('a@, b@, c@', n_cols)}]")
        name = f"qr_step_{n_cols}"
        qr = _QR_STEPS[n_cols] = _compile(
            name, f"def {name}(frame, sigma):\n" + "".join(f"    {line}\n" for line in lines),
            hypot=math.hypot, log=math.log, DegenerateDataError=DegenerateDataError)
    return qr


def _qr_lapack(w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """_qr_step for a (width, n_exp) array frame, through LAPACK, with Q's
    column signs flipped so that diag(R) is positive."""
    q, r = np.linalg.qr(w)
    diag = np.diag(r).copy()
    if np.any(diag == 0.0):
        raise DegenerateDataError("tangent frame collapsed (zero QR diagonal)")
    sigma += np.log(np.abs(diag))
    return q * np.sign(diag)


def _qr_iteration(advance, state, width: int, n_exp: int, steps: int,
                  renorm_interval: int, floats: bool) -> tuple:
    """The QR iteration of both Benettin routes; returns the exponents, descending.

    The iterate z is the state (possibly empty) followed by the frame W,
    which starts as the first n_exp columns of the width x width identity.
    z = advance(i, z) takes step i into a new iterate, raising if it
    diverged.  W is re-orthonormalised in place every renorm_interval steps
    and after the last; each exponent is the sum of its log r_jj over steps.
    On floats z is a list whose W is n_exp zero-padded 3-component columns,
    renormalised by _qr_step; otherwise z is an array whose W is a C-order
    (width, n_exp) block, renormalised by _qr_lapack.
    """
    lead = len(state)
    if floats:
        z = list(state) + [float(i == j) for j in range(n_exp) for i in range(3)]
        sigma = [0.0] * n_exp
        qr = _qr_step(n_exp)

        def renormalise(z):
            z[lead:] = qr(z[lead:], sigma)
    else:
        z = np.concatenate((state, np.eye(width)[:, :n_exp].ravel()))
        sigma = np.zeros(n_exp)

        def renormalise(z):
            z[lead:] = _qr_lapack(z[lead:].reshape(width, n_exp), sigma).ravel()
    pending = 0
    for i in range(steps):
        z = advance(i, z)
        pending += 1
        if pending == renorm_interval:
            renormalise(z)
            pending = 0
    if pending:
        renormalise(z)
    return tuple(np.sort(np.array(sigma) / steps)[::-1])


def benettin_exact(system: ReferenceSystem, steps: int, x0=None,
                   dt: float | None = None, n_exp: int | None = None,
                   renorm_interval: int = 1,
                   transient: int = DEFAULT_TRANSIENT) -> LyapunovSpectrum:
    """QR-iterated tangent propagation with the analytic Jacobian.

    The state x and frame W are stepped together as the variational system
    z = (x, W), dz = (rhs(x), J(x) W): by systems.rk4_floats for a flow and
    one application for a map, as in systems.sample, whose run gives the
    transient.  Step j of the run starts at sample's time j * dt (j for a
    map), so the state rows are sample's bit for bit, forced systems included.
    Systems of at most 3 dimensions are stepped on Python floats through
    their scalar rhs and rhs_jac, larger ones on numpy arrays by
    systems.rk4_step through f and jac.  A state that turns non-finite or
    whose norm passes systems._NORM_LIMIT raises DivergenceError naming the
    step (step 0 for the transient).

    renorm_interval > 1 propagates the frame k steps between QRs, which loses
    about eps * exp((lambda_1 - lambda_2) * k) of relative accuracy in each
    log r_jj: the Henon exponent sum is off by about 5e-10 at k = 10 against
    2e-14 at k = 1.
    """
    dt = system.dt_default if dt is None else dt
    dim = system.dim
    n_exp = dim if n_exp is None else n_exp
    if not 1 <= n_exp <= dim:
        raise ValueError("n_exp must lie in [1, dim]")
    if steps < 1:
        raise ValueError("steps must be positive")
    if renorm_interval < 1:
        raise ValueError("renorm_interval must be positive")
    try:
        x = sample(system, 1, x0, dt, transient)[0].tolist()
    except DivergenceError:
        raise DivergenceError(
            f"{system.name}: tangent propagation diverged at step 0") from None
    flow = system.kind == "flow"
    tick = dt if flow else 1.0
    floats = dim <= _FLOAT_WIDTH
    if floats:
        product = _mat_frame(n_exp)

        def variational(z, t):
            x = z[:dim]
            return [*system.rhs(x, t), *product(_pad3(system.rhs_jac(x, t)), z[dim:])]
        integrate = rk4_floats(dim + 3 * n_exp)
    else:
        def variational(z, t):
            x = z[:dim]
            return np.concatenate((system.f(x, t), (
                system.jac(x, t) @ z[dim:].reshape(dim, n_exp)).ravel()))
        integrate = rk4_step

    def advance(i, z):
        j = transient + i
        t = j * tick if j else 0.0  # as systems.integrate and iterate time step j
        try:
            z = integrate(variational, z, t, dt) if flow else variational(z, t)
            # A state past the norm limit diverged, as in systems.sample; so
            # it is reported before the QR of a frame built on it collapses.
            # hypot is nan or inf for a non-finite state.
            ok = math.hypot(*z[:dim]) <= _NORM_LIMIT and all(map(math.isfinite, z))
        except OverflowError:  # a float power overflowed where numpy gives inf
            ok = False
        if not ok:
            raise DivergenceError(f"{system.name}: tangent propagation diverged at step {i}")
        return z

    lam = _qr_iteration(advance, x, dim, n_exp, steps, renorm_interval, floats)
    return LyapunovSpectrum(lam, "benettin-exact", steps, tick)


def benettin_data(emb: DelayEmbedding, steps: int | None = None,
                  k_neighbors: int | None = None, renorm_interval: int = 1,
                  theiler: int | None = None, n_exp: int | None = None) -> LyapunovSpectrum:
    """QR iteration with Jacobians regressed from neighborhood displacements.

    At each row the k nearest admissible neighbors (all having successors)
    give a least-squares map from displacements to their one-step images.
    k defaults to 2*width+1.  The neighborhoods come from one batched query
    and every map from one stacked SVD, with lstsq's rank rule (singular
    values at most eps*max(k, width) times the largest count as zero).
    The frame alone is stepped, by the QR iteration of benettin_exact:
    frames of width at most 3 on Python floats, wider ones on numpy arrays.
    renorm_interval > 1 costs accuracy as in benettin_exact: about
    eps * exp((lambda_1 - lambda_2) * k) relative in each log r_jj.
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
    index = successor_index(emb, 1, theiler)

    rows = np.arange(steps)
    nbrs, _ = index.knn_many(rows, k_neighbors)
    x = pts[nbrs] - pts[rows][:, None, :]            # (steps, k, width)
    y = pts[nbrs + 1] - pts[rows + 1][:, None, :]
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    cutoff = np.finfo(float).eps * max(k_neighbors, width) * s[:, :1]
    rank = np.sum(s > cutoff, axis=1).tolist()
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    # Transposed least-squares solutions: jac[t] @ x[t, i] ~ y[t, i].
    jac = np.swapaxes(y, 1, 2) @ u @ (inv_s[:, :, None] * vt)

    floats = width <= _FLOAT_WIDTH
    if floats:
        padded = np.zeros((steps, 3, 3))
        padded[:, :width, :width] = jac
        jac, propagate = padded.tolist(), _mat_frame(n_exp)
    else:
        def propagate(m, w):
            return (m @ w.reshape(width, n_exp)).ravel()

    def advance(t, w):
        if rank[t] < width:
            raise DegenerateDataError(
                f"singular neighborhood regression at row {t}; increase k_neighbors")
        w = propagate(jac[t], w)
        if not all(map(math.isfinite, w)):
            raise DivergenceError(f"tangent propagation diverged at row {t}")
        return w

    lam = _qr_iteration(advance, [], width, n_exp, steps, renorm_interval, floats)
    return LyapunovSpectrum(lam, "benettin-data", steps, emb.dt)


# A flow's spectrum passes the neutral-direction check when its exponent of
# least magnitude is at most this far from 0 (per sample).
_ZERO_TOL = 0.005


def spectrum_checks(spectrum, kind: str = "flow") -> SpectrumReport:
    """Consistency report: neutral direction (flows), dissipativity, entropy rate.

    The exponent sum reads the volume contraction rate only when the
    spectrum is exact; see SpectrumReport for how far a data spectrum's sum
    lies from it.
    """
    if isinstance(spectrum, LyapunovSpectrum):
        lam = np.asarray(spectrum.exponents)
    else:
        lam = np.asarray(spectrum, dtype=float)
    total = float(lam.sum())
    zero_ok = None
    if kind == "flow":
        zero_ok = bool(np.min(np.abs(lam)) <= _ZERO_TOL)
    return SpectrumReport(
        sum_exponents=total,
        dissipative=bool(total < 0.0),
        zero_exponent_ok=zero_ok,
        entropy_rate=float(lam[lam > 0].sum()),
    )
