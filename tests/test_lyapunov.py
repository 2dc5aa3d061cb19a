import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import phasekit as pk
from phasekit import lyapunov

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
    with pytest.raises(ValueError, match="transient must be >= 0, got -3"):
        pk.benettin_exact(sys, 100, transient=-3)


@pytest.mark.parametrize("transient", [0, 3])
def test_benettin_exact_overflow_is_divergence(transient):
    # x1**2 overflows in the first step, of the transient or of the QR run
    with pytest.raises(pk.DivergenceError,
                       match="test42: tangent propagation diverged at step 0$"):
        pk.benettin_exact(pk.catalog("test42"), 10, x0=(0.0, 1e160, 0.0),
                          transient=transient)


@pytest.mark.parametrize("transient, step", [(0, 6), (1000, 0)])
def test_benettin_exact_runaway_state_is_divergence(transient, step):
    # From (10, 10) the Henon state passes the 1e100 norm limit at step 6 and
    # overflows only at step 8.  Without the limit the QR at step 7 finds the
    # frame collapsed (DegenerateDataError): at such norms the tangent
    # columns are parallel in floating point.
    with pytest.raises(pk.DivergenceError,
                       match=f"henon: tangent propagation diverged at step {step}$"):
        pk.benettin_exact(pk.catalog("henon"), 50, x0=(10.0, 10.0),
                          transient=transient)


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


def _wolf_reference(emb, angle_tol, evolve_steps=1):
    """wolf_lambda1 with every replacement chosen by a plain scan of all rows.

    Candidates go nearest first in (distance, row) order; the first one of
    nonzero length within max_len whose direction cosine reaches angle_tol
    wins, else the nearest of nonzero length.  A zero evolved separation
    constrains no direction.
    """
    pts = emb.points
    theiler = emb.default_theiler()
    max_len = 0.1 * pk.data_diameter(pts)
    times = emb.times[:emb.n_points - evolve_steps]

    def replace(row, direction):
        adm = np.flatnonzero(np.abs(times - times[row]) > theiler)
        d = np.sqrt(np.sum((pts[adm] - pts[row]) ** 2, axis=1))
        order = np.lexsort((adm, d))
        fallback = None
        for i, dist in zip(adm[order], d[order]):
            if dist <= 0.0:
                continue
            if fallback is None:
                fallback = int(i)
            if dist > max_len:
                continue
            length = 0.0 if direction is None else np.linalg.norm(direction)
            if length > 0.0 and (np.dot(pts[i] - pts[row], direction)
                                 / (length * dist)) < angle_tol:
                continue
            return int(i)
        return fallback

    c, n = 0, replace(0, None)
    log_sum, total = 0.0, 0
    while c + evolve_steps <= emb.n_points - 1:
        l_start = np.linalg.norm(pts[n] - pts[c])
        c += evolve_steps
        n += evolve_steps
        l_end = np.linalg.norm(pts[n] - pts[c])
        if l_start > 0.0 and l_end > 0.0:
            log_sum += np.log(l_end / l_start)
            total += evolve_steps
        if c + evolve_steps > emb.n_points - 1 or c >= times.size:
            break
        n = replace(c, pts[n] - pts[c])
    return log_sum / total, total // evolve_steps


@pytest.mark.parametrize("decimals", [None, 1])
def test_wolf_replacement_scan_matches_brute_force(decimals):
    # i.i.d. noise in 3-D: a cosine of 0.999 needs a direction within 2.6
    # degrees, which for most rows none of the pooled nearest candidates
    # has, so most replacements come from the full scan.  Rounding repeats
    # points.
    y = np.random.default_rng(5).uniform(size=400)
    if decimals is not None:
        y = np.round(y, decimals)
    emb = pk.embed(pk.TimeSeries(y), 3, 1)
    res = pk.wolf_lambda1(emb, angle_tol=0.999)
    assert res.scanned > res.segments // 2
    want, segments = _wolf_reference(emb, 0.999)
    assert res.segments == segments
    assert res.lambda1 == pytest.approx(want, rel=1e-12)


_WOLF_SERIES = {
    "henon": lambda: pk.sample(pk.catalog("henon"), 2000)[:, 0],
    "henon-rounded": lambda: np.round(pk.sample(pk.catalog("henon"), 2000)[:, 0], 2),
    "lorenz": lambda: pk.sample(pk.catalog("lorenz"), 2000, dt=0.01)[:, 0],
    "noise": lambda: np.random.default_rng(5).uniform(size=400),
}


@pytest.mark.parametrize("series, m, tau, evolve_steps, angle_tol", [
    ("henon", 2, 1, 1, 0.9),
    ("henon-rounded", 2, 1, 1, 0.9),
    ("lorenz", 3, 17, 1, 0.9),
    ("lorenz", 3, 17, 10, 0.9),
    ("noise", 3, 1, 1, 0.999),
], ids=["henon", "henon-rounded", "lorenz-evolve1", "lorenz-evolve10", "noise-relaxed"])
def test_wolf_pool_walk_equals_the_full_scan(monkeypatch, series, m, tau, evolve_steps,
                                             angle_tol):
    # The pool is a prefix of the exact (distance, row) order and both paths
    # form each cosine alike, so every replacement, and hence lambda1, is
    # bit-identical when every row scans.
    emb = pk.embed(pk.TimeSeries(_WOLF_SERIES[series]()), m, tau)
    pooled = pk.wolf_lambda1(emb, evolve_steps=evolve_steps, angle_tol=angle_tol)

    def no_pool(self, rows, k):
        raise pk.InsufficientDataError("pool disabled")

    monkeypatch.setattr(pk.NeighborIndex, "knn_many", no_pool)
    scanned = pk.wolf_lambda1(emb, evolve_steps=evolve_steps, angle_tol=angle_tol)
    assert scanned.lambda1 == pooled.lambda1
    assert scanned.segments == pooled.segments
    assert scanned.relaxed == pooled.relaxed
    assert scanned.scanned >= scanned.segments > pooled.scanned
    if series == "noise":
        assert pooled.relaxed > 0


def test_wolf_on_repeated_points_warns_nothing():
    # Rounded to 2 decimals, many evolved separations and candidate distances
    # are exactly zero.
    values = pk.sample(pk.catalog("henon"), 2000)
    emb = pk.embed(pk.TimeSeries(np.round(values[:, 0], 2)), 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = pk.wolf_lambda1(emb)
    want, segments = _wolf_reference(emb, 0.9)
    assert res.segments == segments
    assert res.lambda1 == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m, evolve_steps", [(2, 1), (3, 1), (5, 1), (2, 3), (5, 3)])
def test_wolf_float_walk_matches_brute_force(m, evolve_steps):
    values = pk.sample(pk.catalog("henon"), 1500)
    emb = pk.embed(pk.TimeSeries(values[:, 0]), m, 1)
    res = pk.wolf_lambda1(emb, evolve_steps=evolve_steps)
    want, segments = _wolf_reference(emb, 0.9, evolve_steps)
    assert res.segments == segments
    assert res.lambda1 == pytest.approx(want, rel=1e-12)


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


def test_kantz_default_radius_is_one_percent_of_diameter(henon_emb):
    eps0 = 0.01 * pk.data_diameter(henon_emb.points)
    curve = pk.kantz_curve(henon_emb, horizon=15)
    assert curve.eps0 == eps0
    assert curve.values.tobytes() == pk.kantz_curve(henon_emb, eps0, 15).values.tobytes()
    flat = pk.embed(pk.TimeSeries(np.ones(50)), 2, 1)
    with pytest.raises(pk.DegenerateDataError, match="default eps0"):
        pk.kantz_curve(flat, horizon=5)


def _kantz_reference(emb, eps0, horizon, n_refs):
    """kantz_curve as a per-reference loop: one ball, one mean, one log."""
    pts = emb.points
    index = pk.successor_index(emb, horizon)
    n_eligible = emb.n_points - horizon
    refs = (np.arange(n_eligible) if n_refs is None
            else np.unique(np.linspace(0, n_eligible - 1, n_refs).astype(int)))
    offsets = np.arange(horizon + 1)
    sums, used = np.zeros(horizon + 1), 0
    for r in refs:
        nbrs, d = index.radius_point(pts[r], index.times[r], eps0)
        nbrs = nbrs[d > 0.0]
        if nbrs.size:
            diff = pts[nbrs[:, None] + offsets] - pts[r + offsets][None, :, :]
            sums += np.log(np.sqrt(np.sum(diff ** 2, axis=2)).mean(axis=0))
            used += 1
    return sums / used, used


@pytest.mark.parametrize("m, decimals, eps_frac, horizon, n_refs", [
    (2, None, 0.01, 12, 300),
    (2, None, 0.01, 1, None),
    (2, 2, 0.01, 12, None),         # repeated values: zero-distance neighbors dropped
    (2, None, 0.0005, 12, None),    # about two thirds of the balls are empty
    (3, None, 0.01, 8, 500),
    (8, None, 0.05, 6, 300),        # pairwise sums over 8 coordinates
])
@pytest.mark.parametrize("block", [1, None, 1 << 40],
                         ids=["block-per-ball", "default-block", "one-block"])
def test_kantz_batched_means_equal_a_per_reference_loop(monkeypatch, m, decimals,
                                                        eps_frac, horizon, n_refs, block):
    if block is not None:
        monkeypatch.setattr(lyapunov, "_KANTZ_BLOCK", block)
    values = pk.sample(pk.catalog("henon"), 2000)[:, 0]
    if decimals is not None:
        values = np.round(values, decimals)
    emb = pk.embed(pk.TimeSeries(values), m, 1)
    eps0 = eps_frac * pk.data_diameter(emb.points)
    with np.errstate(divide="ignore"):  # a rounded ball can collapse to mean 0
        curve = pk.kantz_curve(emb, eps0, horizon, n_refs=n_refs)
        want, used = _kantz_reference(emb, eps0, horizon, n_refs)
    assert curve.n_refs == used
    assert curve.values.tobytes() == want.tobytes()


def test_divergence_curves_count_the_references_tried():
    values = pk.sample(pk.catalog("henon"), 2000)[:, 0]
    emb = pk.embed(pk.TimeSeries(values), 2, 1)
    # About two thirds of the balls are empty: those references are tried
    # but not used.
    curve = pk.kantz_curve(emb, 0.0005 * pk.data_diameter(emb.points), 12, n_refs=None)
    assert 0 < curve.n_refs < curve.n_tried == emb.n_points - 12
    curve = pk.kantz_curve(emb, 0.01 * pk.data_diameter(emb.points), 12, n_refs=300)
    assert curve.n_tried == 300
    # Rosenstein tries every row with an admissible neighbor.
    curve = pk.rosenstein_curve(emb, 12)
    assert curve.n_refs == curve.n_tried == emb.n_points - 12


def test_kantz_every_ball_empty_is_config_error():
    values = np.round(pk.sample(pk.catalog("henon"), 2000)[:, 0], 2)
    emb = pk.embed(pk.TimeSeries(values), 2, 1)
    with pytest.raises(pk.ConfigError, match="increase eps0"):
        pk.kantz_curve(emb, 0.005, 10)  # below the 0.01 grid step


def test_kantz_rejects_nonpositive_radius(henon_emb):
    with pytest.raises(ValueError):
        pk.kantz_curve(henon_emb, eps0=0.0, horizon=5)


@pytest.mark.parametrize("eps0", [math.nan, math.inf])
def test_kantz_rejects_non_finite_radius(henon_emb, eps0):
    # NaN would fail every ball and blame the radius as too small
    with pytest.raises(ValueError, match=f"eps0 must be positive and finite, got {eps0}"):
        pk.kantz_curve(henon_emb, eps0=eps0, horizon=5)


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


@st.composite
def _frames(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    w = draw(arrays(float, (n, k), elements=st.floats(-1.0, 1.0)))
    s = np.linalg.svd(w, compute_uv=False)
    assume(s[-1] > 0.01 * s[0])  # condition number below 100
    return w


@given(_frames())
def test_qr_step_matches_lapack(w):
    n, k = w.shape
    sigma = [0.0] * k
    frame = [v for col in w.T.tolist() for v in tuple(col) + (0.0,) * (3 - n)]
    q = np.array(lyapunov._qr_step(k)(frame, sigma)).reshape(k, 3).T
    q_ref, r_ref = np.linalg.qr(w)
    diag = np.diag(r_ref)
    np.testing.assert_allclose(np.exp(sigma), np.abs(diag), rtol=1e-12)
    np.testing.assert_allclose(q[:n], q_ref * np.sign(diag), rtol=0, atol=1e-12)
    assert not q[n:].any()  # the zero padding stays zero


@pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
def test_qr_step_keeps_aligned_columns_orthonormal(gap):
    # columns at angles of about gap, as between renormalisations of a
    # chaotic frame; one Gram-Schmidt pass would leave Q off by eps/gap
    frame = [1.0, 0.5, -0.25, 1.0, 0.5 + gap, -0.25, 1.0, 0.5, -0.25 + gap]
    q = np.array(lyapunov._qr_step(3)(frame, [0.0] * 3)).reshape(3, 3)
    np.testing.assert_allclose(q @ q.T, np.eye(3), rtol=0, atol=1e-15)


@pytest.mark.parametrize("frame", [[0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0, 0.0, 0.0]])
def test_qr_step_zero_column_is_degenerate(frame):
    n_cols = len(frame) // 3
    with pytest.raises(pk.DegenerateDataError, match="zero QR diagonal"):
        lyapunov._qr_step(n_cols)(frame, [0.0] * n_cols)


def _benettin_data_lapack(emb, steps, renorm_interval):
    """Reference loop: per-row least-squares Jacobians, LAPACK QR.

    Also returns the sum of |w_j| / r_jj over the renormalisations: the
    factor by which the alignment of the frame's columns magnifies rounding
    in log r_jj, for any QR.
    """
    pts, width = emb.points, emb.width
    rows = np.arange(steps)
    nbrs, _ = pk.successor_index(emb, 1).knn_many(rows, 2 * width + 1)
    w, sigma, alignment, pending = np.eye(width), np.zeros(width), 0.0, 0
    for t in rows:
        sol, _, _, _ = np.linalg.lstsq(pts[nbrs[t]] - pts[t],
                                       pts[nbrs[t] + 1] - pts[t + 1], rcond=None)
        w = sol.T @ w
        pending += 1
        if pending == renorm_interval or t == steps - 1:
            q, r = np.linalg.qr(w)
            diag = np.diag(r)
            sigma += np.log(np.abs(diag))
            alignment += float(np.sum(np.linalg.norm(w, axis=0) / np.abs(diag)))
            w, pending = q * np.sign(diag), 0
    return np.sort(sigma / steps)[::-1], alignment


@pytest.mark.parametrize("renorm_interval", [1, 7])
def test_benettin_data_matches_lapack_reference(henon_emb, renorm_interval):
    steps = 5000
    ref, alignment = _benettin_data_lapack(henon_emb, steps, renorm_interval)
    spec = pk.benettin_data(henon_emb, steps=steps, renorm_interval=renorm_interval)
    # 1e-12 when the columns stay apart (alignment/steps is about 8 at
    # interval 1); at interval 7 they align to about 1 part in 6e5, and both
    # QRs sit ~1e-10 from exact arithmetic per renormalisation.
    tol = 1e-12 + 4.0 * np.finfo(float).eps * alignment / steps
    np.testing.assert_allclose(spec.exponents, ref, rtol=0, atol=tol)


def test_float_and_array_frames_agree(henon_emb, monkeypatch):
    # Frames wider than _FLOAT_WIDTH step on numpy arrays; forcing every
    # width onto that path must give the same exponents.
    def run():
        return (pk.benettin_data(henon_emb, steps=3000).exponents
                + pk.benettin_data(henon_emb, steps=3000, renorm_interval=3).exponents
                + pk.benettin_exact(pk.catalog("lorenz"), 1000).exponents
                + pk.benettin_exact(pk.catalog("henon"), 1000, n_exp=1).exponents)

    floats = run()
    monkeypatch.setattr(lyapunov, "_FLOAT_WIDTH", 0)
    np.testing.assert_allclose(floats, run(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("float_width", [3, 0])
@pytest.mark.parametrize("name", ["lorenz", "henon", "example2"])
def test_benettin_exact_states_are_sample_rows(monkeypatch, name, float_width):
    # The variational step takes sample's integrator, on floats and on arrays;
    # the first rhs call of each step sees the state it starts from.  The
    # forced example2 reads t, so its rows match only at sample's step times.
    monkeypatch.setattr(lyapunov, "_FLOAT_WIDTH", float_width)
    system = pk.catalog(name)
    seen = []

    def rhs(x, t):
        seen.append(list(x))
        return system.rhs(x, t)

    pk.benettin_exact(dataclasses.replace(system, rhs=rhs), 300, transient=50)
    calls = 4 if system.kind == "flow" else 1
    np.testing.assert_array_equal(seen[50 * calls::calls],
                                  pk.sample(system, 300, transient=50))


def _rk4_comprehensions(rhs, x, t, dt):
    """The float RK4 step built stage by stage with comprehensions."""
    h = 0.5 * dt
    k1 = rhs(x, t)
    k2 = rhs([a + h * b for a, b in zip(x, k1)], t + h)
    k3 = rhs([a + h * b for a, b in zip(x, k2)], t + h)
    k4 = rhs([a + dt * b for a, b in zip(x, k3)], t + dt)
    c = dt / 6.0
    return [a + c * (p + 2.0 * q + 2.0 * r + s)
            for a, p, q, r, s in zip(x, k1, k2, k3, k4)]


def _mat_frame_columns(m, frame):
    """m @ W by a loop over W's 3-component columns."""
    (a, b, c), (d, e, f), (g, h, i) = m
    col = iter(frame)
    out = []
    for p, q, r in zip(col, col, col):
        out += (a * p + b * q + c * r, d * p + e * q + f * r, g * p + h * q + i * r)
    return out


def _qr_step_columns(frame, sigma):
    """Twice-projected Gram-Schmidt by loops over W's 3-component columns."""
    col = iter(frame)
    q = []
    for j, (x, y, z) in enumerate(zip(col, col, col)):
        for _ in (0, 1) if q else ():
            for a, b, c in q:
                d = a * x + b * y + c * z
                x, y, z = x - d * a, y - d * b, z - d * c
        r = math.hypot(x, y, z)
        sigma[j] += math.log(r)
        q.append((x / r, y / r, z / r))
    return [v for column in q for v in column]


@pytest.mark.parametrize("name, n_exp, renorm_interval", [
    ("lorenz", 3, 1), ("lorenz", 2, 1), ("lorenz", 3, 3),
    ("henon", 1, 1), ("henon", 2, 1), ("henon", 2, 3), ("example2", 2, 1)])
def test_written_out_kernels_give_the_loops_exponents(monkeypatch, name, n_exp,
                                                      renorm_interval):
    # The width-specialised RK4 step, frame product and QR step run the
    # loops' operations in the loops' order, so the exponents are equal, not
    # close.
    system = pk.catalog(name)

    def run():
        return pk.benettin_exact(system, 2000, n_exp=n_exp,
                                 renorm_interval=renorm_interval).exponents

    written_out = run()
    monkeypatch.setattr(lyapunov, "rk4_floats", lambda width: _rk4_comprehensions)
    monkeypatch.setattr(lyapunov, "_mat_frame", lambda n_cols: _mat_frame_columns)
    monkeypatch.setattr(lyapunov, "_qr_step", lambda n_cols: _qr_step_columns)
    assert written_out == run()


@pytest.mark.parametrize("n_exp", [1, 2])
def test_written_out_frame_kernels_give_the_loops_data_exponents(
        henon_emb, monkeypatch, n_exp):
    def run():
        return pk.benettin_data(henon_emb, steps=3000, n_exp=n_exp,
                                renorm_interval=2).exponents

    written_out = run()
    monkeypatch.setattr(lyapunov, "_mat_frame", lambda n_cols: _mat_frame_columns)
    monkeypatch.setattr(lyapunov, "_qr_step", lambda n_cols: _qr_step_columns)
    assert written_out == run()


def _diagonal_linear(kind, coeffs):
    """dx/dt = diag(coeffs) x (flow) or x -> diag(coeffs) x (map)."""
    n = len(coeffs)

    def rhs(x, t):
        return tuple(c * v for c, v in zip(coeffs, x))

    def rhs_jac(x, t):
        return tuple(tuple(c if j == i else 0.0 for j in range(n))
                     for i, c in enumerate(coeffs))

    return pk.ReferenceSystem(f"diagonal-{kind}", kind, n, rhs, rhs_jac,
                              x0_default=(1.0, -0.5, 2.0, 0.25), dt_default=0.05)


@pytest.mark.parametrize("renorm_interval", [1, 7])
def test_benettin_exact_wide_linear_flow(renorm_interval):
    # Wider than _FLOAT_WIDTH, so the frame steps on numpy arrays.  An RK4
    # step multiplies coordinate i by R(h a_i), R(z) = 1 + z + z^2/2 + z^3/6
    # + z^4/24, RK4's stability polynomial.
    a, h = (0.5, -0.2, -1.0, -3.0), 0.05
    system = _diagonal_linear("flow", a)
    assert system.dim > lyapunov._FLOAT_WIDTH
    spec = pk.benettin_exact(system, 400, renorm_interval=renorm_interval,
                             transient=10)
    want = sorted((math.log(abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24))
                   for z in (h * c for c in a)), reverse=True)
    np.testing.assert_allclose(spec.exponents, want, rtol=0, atol=1e-13)
    assert spec.dt == h


@pytest.mark.parametrize("renorm_interval", [1, 7])
def test_benettin_exact_wide_linear_map(renorm_interval):
    b = (1.5, 0.9, -0.5, 0.1)
    system = _diagonal_linear("map", b)
    assert system.dim > lyapunov._FLOAT_WIDTH
    spec = pk.benettin_exact(system, 150, renorm_interval=renorm_interval,
                             transient=0)
    want = sorted((math.log(abs(c)) for c in b), reverse=True)
    np.testing.assert_allclose(spec.exponents, want, rtol=0, atol=1e-13)


def test_benettin_exact_lorenz_sum_at_fine_step():
    # The RK4 map contracts volume by exp(-41/3 dt) only up to its truncation
    # error, which shifts the sum by 1.0e-6 at dt = 0.01 and 3e-8 at 0.005.
    dt = 0.005
    spec = pk.benettin_exact(pk.catalog("lorenz"), 5000, dt=dt)
    assert sum(spec.exponents) == pytest.approx(-41.0 / 3.0 * dt, abs=1e-6)


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
