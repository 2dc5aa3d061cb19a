"""Fourier descriptors of closed contours and symmetry comparison.

A contour is an (m, n) array of vertices traversed in order.  Its spectrum is
the per-coordinate unnormalized forward DFT of the vertex sequence (the 1/m
factor lives in the inverse), so row 0 is the vertex sum, m times the
centroid.  Position, size and orientation live in rows 0 and 1; normalization
removes them, and two shapes are compared by a harmonic-weighted correlation
of their normalized spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, FormatError
from .series import read_numeric_table, write_numeric_table

# Pairs whose magnitude falls below this fraction of the first-harmonic
# magnitude carry no usable direction; their alignment angle snaps to 0.
SNAP_FRACTION = 1e-12


def dft(points: np.ndarray) -> np.ndarray:
    """Spectrum of a vertex sequence: unnormalized column-wise forward DFT."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ConfigError("a contour must be a 2-d vertex array")
    if pts.shape[0] < 3:
        raise ConfigError("a contour needs at least 3 vertices")
    if not np.all(np.isfinite(pts)):
        raise ConfigError("contour vertices must be finite")
    return np.fft.fft(pts, axis=0)


def plane_rotation(n: int, k: int, angle: float) -> np.ndarray:
    """Rotation of n-space in coordinate plane k, for row vectors.

    Planes are numbered 1..n-1; plane k spans axes k and k+1 (1-based), so
    (1, 0) @ plane_rotation(2, 1, pi/2) = (0, -1).
    """
    if not 1 <= k <= n - 1:
        raise ConfigError(f"plane index {k} out of range for dimension {n}")
    c, s = math.cos(angle), math.sin(angle)
    rot = np.eye(n)
    i = k - 1
    rot[i, i] = c
    rot[i, i + 1] = -s
    rot[i + 1, i] = s
    rot[i + 1, i + 1] = c
    return rot


def _alignment_angles(first_row_real: np.ndarray) -> tuple:
    """Per-plane angles that carry Re(row 1) onto +e1.

    Entry i is the angle of plane i+1 (axes i, i+1 zero-based).  The planes
    are swept last-to-first so each step zeroes one trailing component, but
    the tuple is stored in ascending plane order.  Angles are reduced mod
    2*pi; near-zero component pairs snap to angle 0.
    """
    v = np.array(first_row_real, dtype=float)
    snap = SNAP_FRACTION * float(np.linalg.norm(v))
    angles = [0.0] * (v.size - 1)
    for i in range(v.size - 2, -1, -1):
        if math.hypot(v[i], v[i + 1]) < snap or (v[i] == 0.0 and v[i + 1] == 0.0):
            a = 0.0
        else:
            a = math.atan2(v[i + 1], v[i]) % (2.0 * math.pi)
        c, s = math.cos(a), math.sin(a)
        v[i], v[i + 1] = v[i] * c + v[i + 1] * s, -v[i] * s + v[i + 1] * c
        angles[i] = a
    return tuple(angles)


@dataclass(frozen=True)
class ContourDescriptors:
    """Position, size and orientation read off a contour spectrum.

    translate: real part of row 0, the vertex sum (m times the centroid).
    scale: the first-harmonic magnitude (complex norm of row 1).
    angles: angle per plane 1..n-1 aligning Re(row 1) with +e1.
    """

    translate: np.ndarray
    scale: float
    angles: tuple


def descriptors(spectrum: np.ndarray) -> ContourDescriptors:
    spec = np.asarray(spectrum, dtype=complex)
    if spec.ndim != 2 or spec.shape[0] < 2:
        raise ConfigError("a spectrum needs at least 2 harmonic rows")
    translate = spec[0].real.copy()
    scale = float(np.linalg.norm(spec[1]))
    return ContourDescriptors(translate, scale, _alignment_angles(spec[1].real))


def normalize(spectrum: np.ndarray):
    """Remove position, size and orientation from a spectrum.

    Returns (normalized spectrum, removed descriptors).  Row 0 is zeroed, the
    spectrum is divided by the first-harmonic magnitude, and plane rotations
    align the real part of row 1 with the +e1 axis; that alignment is checked
    before returning.  A vanishing first harmonic admits no normalization.
    """
    spec = np.asarray(spectrum, dtype=complex).copy()
    if spec.ndim != 2 or spec.shape[0] < 2:
        raise ConfigError("a spectrum needs at least 2 harmonic rows")
    if spec.shape[1] < 2:
        raise ConfigError("normalization needs at least 2 coordinates")
    desc = descriptors(spec)
    if desc.scale == 0.0:
        raise DegenerateDataError("first harmonic vanishes: no scale reference")
    spec[0] = 0.0
    spec /= desc.scale
    n = spec.shape[1]
    for k in range(n - 1, 0, -1):
        spec = spec @ plane_rotation(n, k, desc.angles[k - 1])
    aligned = spec[1].real
    if np.linalg.norm(aligned[1:]) > 1e-9 or aligned[0] < -1e-9:
        raise DegenerateDataError("first-harmonic alignment failed")
    return spec, desc


def closeness(spec_a: np.ndarray, spec_b: np.ndarray) -> float:
    """Harmonic-weighted agreement of two equally shaped spectra.

    Sum over harmonics h = 0 .. floor(m/2) of Re<row_a, row_b> / (h + 1).
    Identical unit-scale shapes score the highest value achievable for their
    harmonic content.
    """
    a = np.asarray(spec_a, dtype=complex)
    b = np.asarray(spec_b, dtype=complex)
    if a.shape != b.shape:
        raise ConfigError(f"spectra shapes differ: {a.shape} vs {b.shape}")
    m = a.shape[0]
    total = 0.0
    for h in range(m // 2 + 1):
        total += float(np.vdot(a[h], b[h]).real) / (h + 1)
    return total


@dataclass(frozen=True)
class SymmetryReport:
    """Similarity transform taking contour A onto contour B, plus residue.

    translation: row-0 descriptor shift (m times the centroid shift),
    scale_ratio: size factor, rotation: change of each alignment plane angle
    (mod 2*pi).  closeness scores how well the normalized shapes agree;
    matched_closeness is that score for a shape against itself, so ratio =
    closeness / matched_closeness is 1 for an exact similarity pair.
    """

    translation: np.ndarray
    scale_ratio: float
    rotation: tuple
    closeness: float
    matched_closeness: float

    @property
    def ratio(self) -> float:
        return self.closeness / self.matched_closeness


def symmetry_between(points_a: np.ndarray, points_b: np.ndarray) -> SymmetryReport:
    """Compare two contours modulo translation, scaling and rotation."""
    return compare_normalized(normalize(dft(points_a)), normalize(dft(points_b)))


def compare_normalized(a: tuple, b: tuple) -> SymmetryReport:
    """symmetry_between for two (spectrum, descriptors) pairs from normalize."""
    (norm_a, desc_a), (norm_b, desc_b) = a, b
    if norm_a.shape != norm_b.shape:
        raise ConfigError(
            f"contours differ in shape: {norm_a.shape} vs {norm_b.shape}")
    rotation = tuple((b - a) % (2.0 * math.pi)
                     for a, b in zip(desc_a.angles, desc_b.angles))
    value = closeness(norm_a, norm_b)
    matched = closeness(norm_a, norm_a)
    return SymmetryReport(desc_b.translate - desc_a.translate,
                          desc_b.scale / desc_a.scale,
                          rotation, value, matched)


def load_contour(path) -> np.ndarray:
    """Read contour vertices from a CSV (optional header line)."""
    data, _ = read_numeric_table(path, min_rows=3)
    if data.shape[1] < 2:
        raise FormatError(f"{path}: a contour needs at least 2 coordinates")
    return data


def save_contour(path, points: np.ndarray) -> None:
    """Write vertices with full-precision reprs for bit-exact round-trips."""
    pts = np.asarray(points, dtype=float)
    write_numeric_table(path, [f"x{j}" for j in range(pts.shape[1])], pts)


def save_spectrum(path, spectrum: np.ndarray) -> None:
    """Write a spectrum as CSV with interleaved re/im columns per coordinate."""
    spec = np.ascontiguousarray(spectrum, dtype=complex)
    names = [f"{part}{j}" for j in range(spec.shape[1]) for part in ("re", "im")]
    write_numeric_table(path, names, spec.view(float))


def load_spectrum(path) -> np.ndarray:
    """Read a spectrum written by save_spectrum."""
    data, _ = read_numeric_table(path, min_rows=1)
    if data.shape[1] % 2 != 0:
        raise FormatError(f"{path}: expected interleaved re/im column pairs")
    return data[:, 0::2] + 1j * data[:, 1::2]
