import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import phasekit as pk
from phasekit.contours import (descriptors, dft, load_contour, load_spectrum,
                               normalize, plane_rotation, save_contour,
                               save_spectrum)


def random_contour(rng, m, n):
    return rng.normal(size=(m, n))


def angular_gap(a, b):
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def similarity(rng, points):
    """Translation, positive scaling and a rotation in the last plane."""
    m, n = points.shape
    shift = rng.normal(size=n)
    scale = rng.uniform(0.1, 10.0)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    moved = scale * points @ plane_rotation(n, n - 1, theta) + shift
    return moved, shift, scale, theta


def test_dft_round_trip_square():
    square = np.array([[0.0, 1.0], [2.0, 1.0], [2.0, 3.0], [0.0, 3.0]])
    spec = dft(square)
    np.testing.assert_allclose(spec[0], [4.0, 8.0], atol=1e-12)  # vertex sum
    np.testing.assert_allclose(np.fft.ifft(spec, axis=0).real, square, atol=1e-12)


@given(st.integers(0, 10 ** 6), st.integers(3, 40), st.integers(2, 5))
def test_dft_identities(seed, m, n):
    rng = np.random.default_rng(seed)
    pts = random_contour(rng, m, n)
    spec = dft(pts)
    np.testing.assert_allclose(spec[0].real, m * pts.mean(axis=0), atol=1e-9)
    # energy balance between vertex and frequency domains
    assert np.sum(pts ** 2) == pytest.approx(np.sum(np.abs(spec) ** 2) / m,
                                             rel=1e-9)
    np.testing.assert_allclose(np.fft.ifft(spec, axis=0).real, pts, atol=1e-9)
    two = dft(2.0 * pts)
    np.testing.assert_allclose(two, 2.0 * spec, atol=1e-9)


def test_circle_first_harmonic_scale():
    m = 16
    ang = 2.0 * np.pi * np.arange(m) / m
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    desc = descriptors(dft(circle))
    assert desc.scale == pytest.approx(m / math.sqrt(2.0))


def test_plane_rotation_example_and_bounds():
    vec = np.array([1.0, 0.0])
    np.testing.assert_allclose(vec @ plane_rotation(2, 1, math.pi / 2),
                               [0.0, -1.0], atol=1e-12)
    rot = plane_rotation(4, 2, 0.3)
    np.testing.assert_allclose(rot @ rot.T, np.eye(4), atol=1e-12)
    assert rot[0, 0] == 1.0 and rot[3, 3] == 1.0  # untouched axes
    for bad in (0, 4):
        with pytest.raises(pk.ConfigError):
            plane_rotation(4, bad, 0.3)


def test_normalize_postconditions():
    rng = np.random.default_rng(7)
    pts = random_contour(rng, 12, 3)
    norm, desc = normalize(dft(pts))
    redone, desc2 = normalize(norm)
    np.testing.assert_allclose(norm[0], 0.0, atol=1e-9)
    assert desc2.scale == pytest.approx(1.0)
    for a in desc2.angles:
        assert angular_gap(a, 0.0) < 1e-9
    np.testing.assert_allclose(redone, norm, atol=1e-9)


def test_normalize_rejects_degenerate_first_harmonic():
    constant = np.tile([1.0, 2.0], (8, 1))
    with pytest.raises(pk.DegenerateDataError):
        normalize(dft(constant))


@given(st.integers(0, 10 ** 6), st.integers(8, 32), st.integers(2, 4))
def test_normalized_shape_is_similarity_invariant(seed, m, n):
    rng = np.random.default_rng(seed)
    pts = random_contour(rng, m, n)
    moved, _, _, _ = similarity(rng, pts)
    norm_a, _ = normalize(dft(pts))
    norm_b, _ = normalize(dft(moved))
    ref = np.max(np.abs(norm_a))
    assert np.max(np.abs(norm_a - norm_b)) <= 1e-9 * ref
    ca = pk.closeness(norm_a, norm_a)
    cb = pk.closeness(norm_a, norm_b)
    assert abs(ca - cb) <= 1e-6 * abs(ca)


def test_closeness_orders_candidates():
    rng = np.random.default_rng(11)
    pts = random_contour(rng, 16, 2)
    other = random_contour(rng, 16, 2)
    norm, _ = normalize(dft(pts))
    norm_other, _ = normalize(dft(other))
    self_score = pk.closeness(norm, norm)
    assert self_score > pk.closeness(norm, norm_other)
    with pytest.raises(pk.ConfigError):
        pk.closeness(norm, norm[:8])


def test_symmetry_between_identical():
    rng = np.random.default_rng(3)
    pts = random_contour(rng, 10, 2)
    rep = pk.symmetry_between(pts, pts)
    np.testing.assert_allclose(rep.translation, 0.0, atol=1e-9)
    assert rep.scale_ratio == pytest.approx(1.0)
    for a in rep.rotation:
        assert angular_gap(a, 0.0) < 1e-9
    assert rep.closeness == pytest.approx(rep.matched_closeness)


def test_symmetry_between_reports_the_transform():
    rng = np.random.default_rng(4)
    pts = random_contour(rng, 12, 2)
    m = pts.shape[0]
    shift = np.array([0.5, -2.0])
    rep = pk.symmetry_between(pts, pts + shift)
    # row-0 descriptor moves by m times the centroid shift
    np.testing.assert_allclose(rep.translation, m * shift, atol=1e-9)
    rep2 = pk.symmetry_between(pts, 3.0 * pts)
    assert rep2.scale_ratio == pytest.approx(3.0)
    theta = 1.1
    rep3 = pk.symmetry_between(pts, pts @ plane_rotation(2, 1, theta))
    assert min(angular_gap(rep3.rotation[0], theta),
               angular_gap(rep3.rotation[0], 2.0 * math.pi - theta)) < 1e-9
    with pytest.raises(pk.ConfigError):
        pk.symmetry_between(pts, random_contour(rng, 14, 2))


def test_symmetry_closeness_tracks_distortion():
    rng = np.random.default_rng(5)
    pts = random_contour(rng, 16, 2)
    mild = pts + 0.01 * rng.normal(size=pts.shape)
    wild = pts + 1.0 * rng.normal(size=pts.shape)
    rep_mild = pk.symmetry_between(pts, mild)
    rep_wild = pk.symmetry_between(pts, wild)
    gap_mild = abs(rep_mild.matched_closeness - rep_mild.closeness)
    gap_wild = abs(rep_wild.matched_closeness - rep_wild.closeness)
    assert gap_mild < gap_wild


def test_contour_and_spectrum_files_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    pts = random_contour(rng, 9, 3)
    cpath = tmp_path / "contour.csv"
    save_contour(cpath, pts)
    np.testing.assert_array_equal(load_contour(cpath), pts)
    spec = dft(pts)
    spath = tmp_path / "spec.csv"
    save_spectrum(spath, spec)
    np.testing.assert_allclose(load_spectrum(spath), spec, atol=0.0)


def test_load_contour_needs_two_columns(tmp_path):
    path = tmp_path / "thin.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    with pytest.raises(pk.FormatError):
        load_contour(path)
