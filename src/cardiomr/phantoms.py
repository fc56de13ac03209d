"""Synthetic cardiac phantoms for tests, demos and calibration.

Everything here is deterministic given the seed so downstream checks can
freeze expected values.
"""

from __future__ import annotations

import numpy as np

from .volume import ACDC_SCHEMA, LabelVolume, ScalarVolume


def _offsets(shape, center):
    """x offsets as an (nx, 1) column and y offsets as a (1, ny) row from ``center``."""
    return np.arange(shape[0])[:, None] - center[0], np.arange(shape[1])[None, :] - center[1]


def _distance(shape, center) -> np.ndarray:
    """Distance (px) of every pixel of an (nx, ny) grid from ``center``."""
    return np.hypot(*_offsets(shape, center))


def disk_mask(shape, center, radius) -> np.ndarray:
    """Boolean disk of given radius (px) on an (nx, ny) grid."""
    return _distance(shape, center) <= radius


def annulus_mask(shape, center, r_inner, r_outer) -> np.ndarray:
    """Boolean annulus r_inner < d <= r_outer."""
    d = _distance(shape, center)
    return (d > r_inner) & (d <= r_outer)


def pulsating_disk_cine(
    shape=(128, 128),
    center=(64, 64),
    radius_range=(10.0, 14.0),
    n_frames=30,
    seed=0,
    background_texture=0.2,
) -> ScalarVolume:
    """Cine of a bright disk whose radius oscillates once per sequence.

    The background is a static random texture, so only the pulsating rim
    carries temporal signal at the fundamental frequency.
    """
    nx, ny = shape
    rng = np.random.default_rng(seed)
    background = background_texture * rng.random((nx, ny))
    d = _distance(shape, center)
    r_mid = 0.5 * (radius_range[0] + radius_range[1])
    r_amp = 0.5 * (radius_range[1] - radius_range[0])
    frames = np.empty((nx, ny, 1, n_frames), dtype=np.float32)
    for t in range(n_frames):
        r = r_mid + r_amp * np.cos(2 * np.pi * t / n_frames)
        frames[:, :, 0, t] = np.where(d <= r, 1.0, background)
    return ScalarVolume(data=frames, spacing=(1.0, 1.0, 1.0, 1.0))


def heart_slice(shape, lv_center, lv_radius, wall_px, rv_center=None, rv_radius=0.0) -> np.ndarray:
    """One short-axis label slice: LV cavity, MYO ring and optional RV disk.

    ``wall_px`` is one wall width or an (nx, ny) array of widths, read at
    each pixel.
    """
    lbl = np.zeros(shape, dtype=np.uint8)
    if rv_center is not None and rv_radius > 0:
        lbl[disk_mask(shape, rv_center, rv_radius)] = ACDC_SCHEMA.id_of("RV")
    d = _distance(shape, lv_center)
    lbl[(d > lv_radius) & (d <= lv_radius + wall_px)] = ACDC_SCHEMA.id_of("MYO")
    lbl[d <= lv_radius] = ACDC_SCHEMA.id_of("LV")
    return lbl


def heart_label_volume(
    shape=(96, 96),
    n_slices=8,
    lv_center=(48, 48),
    lv_radius=12.0,
    wall_px=4.0,
    rv_offset=(-26, 0),
    rv_radius=9.0,
    spacing=(1.5, 1.5, 8.0),
) -> LabelVolume:
    """Stack of identical heart slices as a 3D label volume."""
    rv_center = (lv_center[0] + rv_offset[0], lv_center[1] + rv_offset[1])
    sl = heart_slice(shape, lv_center, lv_radius, wall_px, rv_center=rv_center, rv_radius=rv_radius)
    data = np.repeat(sl[:, :, np.newaxis], n_slices, axis=2)
    return LabelVolume(data=data, spacing=spacing)


def _base_wall_for_area(r: float, area: float, thin_frac: float, thin_w: float) -> float:
    """Base wall width so the annulus (with a thinned sector) hits ``area``.

    Solves (1-f)*w*(2r+w) + f*thin_w*(2r+thin_w) = area for w.
    """
    frac_b = 1.0 - thin_frac
    rhs = area - thin_frac * thin_w * (2 * r + thin_w)
    rhs = max(rhs, 0.2 * area)
    return -r + np.sqrt(r * r + rhs / frac_b)


def _uniform_wall_for_area(r: float, area: float) -> float:
    """Wall width of a uniform annulus of the given cross-section area."""
    return -r + np.sqrt(r * r + area)


def disease_cohort_case(seed: int, kind: str, shape=(96, 96)):
    """One synthetic MINF-like or DCM-like patient: (ed, es) label volumes.

    Both kinds draw cavity size, contraction, slice count, spacing and
    myocardial cross-section area from the same distributions, so the
    volumetric features overlap by construction. They differ only in wall
    structure: DCM walls are uniform, MINF walls carry a thin sector that
    stays thin at end-systole.
    """
    rng = np.random.default_rng(seed)
    n_slices = int(rng.integers(6, 11))
    sxy = float(rng.uniform(1.2, 1.8))
    sz = float(rng.uniform(5.0, 10.0))
    center = (shape[0] // 2 + rng.uniform(-3, 3), shape[1] // 2 + rng.uniform(-3, 3))
    rv_center = (center[0] - 27, center[1])

    r_ed = float(rng.uniform(12.0, 17.0))
    shrink = float(rng.uniform(0.84, 0.94))
    rv_r_ed = float(rng.uniform(8.0, 12.0))
    w_eq = float(rng.uniform(2.4, 3.4))            # equivalent uniform wall (px)
    area = w_eq * (2 * r_ed + w_eq)                # myocardial cross-section (px^2)
    theta = float(rng.uniform(np.pi / 3, 2 * np.pi / 3))   # thin sector width
    phi = float(rng.uniform(-np.pi, np.pi))                # thin sector direction
    thin_w = float(rng.uniform(1.6, 2.2))
    taper = rng.uniform(0.9, 1.0, size=n_slices)   # mild apex-to-base variation

    if kind == "MINF":
        dx, dy = _offsets(shape, center)
        thin = np.abs(np.angle(np.exp(1j * (np.arctan2(dy, dx) - phi)))) < theta / 2

    def wall(r):
        if kind == "DCM":
            return _uniform_wall_for_area(r, area)
        return np.where(thin, thin_w, _base_wall_for_area(r, area, theta / (2 * np.pi), thin_w))

    def build(phase: str) -> LabelVolume:
        es = phase == "es"
        data = np.zeros(shape + (n_slices,), dtype=np.uint8)
        for z in range(n_slices):
            r = (r_ed * shrink if es else r_ed) * taper[z]
            rv_r = (rv_r_ed * shrink if es else rv_r_ed) * taper[z]
            data[:, :, z] = heart_slice(shape, center, r, wall(r), rv_center=rv_center, rv_radius=rv_r)
        return LabelVolume(data=data, spacing=(sxy, sxy, sz))

    return build("ed"), build("es")


def disease_cohort(n_cases: int, seed: int = 0):
    """Balanced MINF/DCM cohort; yields (ed, es, label) per case."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_cases):
        kind = "MINF" if i % 2 == 0 else "DCM"
        out.append((*disease_cohort_case(int(rng.integers(0, 2**31)), kind), kind))
    return out
