"""Synthetic cardiac phantoms for tests, demos and calibration.

Everything here is deterministic given the seed so downstream checks can
freeze expected values. A cine fills all its frames in one ``np.where``.
``heart_slice`` paints a stack of slices from per-slice radius vectors and
one pair of distance grids; a DCM phase is one such call. A MINF wall
varies by pixel and by slice, so a MINF phase is painted a slice at a time
rather than from a float64 volume of widths, each slice from the case's one
pair of grids. Arrays are C-ordered, and each is handed to its volume with
``_owned=True``, so it is not copied again.
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
    background = (background_texture * rng.random((nx, ny))).astype(np.float32)
    r_mid = 0.5 * (radius_range[0] + radius_range[1])
    r_amp = 0.5 * (radius_range[1] - radius_range[0])
    radii = [r_mid + r_amp * np.cos(2 * np.pi * t / n_frames) for t in range(n_frames)]
    d = _distance(shape, center)[:, :, np.newaxis]
    frames = np.where(d <= np.array(radii), np.float32(1.0), background[:, :, np.newaxis])
    return ScalarVolume(data=frames.reshape(nx, ny, 1, n_frames),
                        spacing=(1.0, 1.0, 1.0, 1.0), _owned=True)


def heart_slice(shape, lv_center, lv_radius, wall_px, rv_center=None, rv_radius=0.0, *,
                _grids=None) -> np.ndarray:
    """Short-axis label slices: LV cavity, MYO ring and optional RV disk.

    With scalar radii this is one (nx, ny) slice. ``lv_radius`` and
    ``rv_radius`` may instead be vectors of one radius per slice; the slices
    then stack along a trailing axis, (nx, ny, n), and share one pair of
    distance grids. ``wall_px`` is one wall width or an array of widths, read
    at each pixel, that broadcasts against the result: (nx, ny) for one
    slice; (n,), (nx, ny, 1) or (nx, ny, n) for a stack.

    ``_grids`` is ``(d, d_rv)``, the distance grids of ``lv_center`` and
    ``rv_center`` (None without an RV), for a caller that paints many slices
    around the same centres; they are computed here when omitted.
    """
    radii = np.reshape(lv_radius, -1)  # a scalar is a stack of one
    lbl = np.zeros(shape + np.shape(lv_radius), dtype=np.uint8)
    stack = lbl.reshape(shape + radii.shape)
    walls = np.broadcast_to(wall_px, lbl.shape).reshape(stack.shape)
    rv_radii = np.broadcast_to(rv_radius, radii.shape)
    if _grids is None:
        _grids = (_distance(shape, lv_center),
                  None if rv_center is None else _distance(shape, rv_center))
    d, d_rv = _grids
    for z, r in enumerate(radii):
        sl = stack[:, :, z]
        if d_rv is not None and rv_radii[z] > 0:
            sl[d_rv <= rv_radii[z]] = ACDC_SCHEMA.id_of("RV")
        sl[(d > r) & (d <= r + walls[:, :, z])] = ACDC_SCHEMA.id_of("MYO")
        sl[d <= r] = ACDC_SCHEMA.id_of("LV")
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
    return LabelVolume(data=data, spacing=spacing, _owned=True)


def _base_wall_for_area(r, area: float, thin_frac: float, thin_w: float):
    """Base wall width so the annulus (with a thinned sector) hits ``area``.

    Solves (1-f)*w*(2r+w) + f*thin_w*(2r+thin_w) = area for w, elementwise
    over a vector of radii ``r``.
    """
    frac_b = 1.0 - thin_frac
    rhs = area - thin_frac * thin_w * (2 * r + thin_w)
    rhs = np.maximum(rhs, 0.2 * area)
    return -r + np.sqrt(r * r + rhs / frac_b)


def _uniform_wall_for_area(r, area: float):
    """Wall width of a uniform annulus of the given cross-section area, per
    radius of ``r``."""
    return -r + np.sqrt(r * r + area)


def disease_cohort_case(seed: int, kind: str, shape=(96, 96)):
    """One synthetic MINF-like or DCM-like patient: (ed, es) label volumes.

    Both kinds draw cavity size, contraction, slice count, spacing and
    myocardial cross-section area from the same distributions, so the
    volumetric features overlap by construction. They differ only in wall
    structure: DCM walls are uniform, MINF walls carry a thin sector that
    stays thin at end-systole.
    """
    if kind not in ("MINF", "DCM"):
        raise ValueError(f"kind must be 'MINF' or 'DCM', got {kind!r}")
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

    grids = _distance(shape, center), _distance(shape, rv_center)  # for every slice of both phases

    def build(scale) -> LabelVolume:
        r, rv_r = r_ed * scale * taper, rv_r_ed * scale * taper
        if kind == "DCM":
            data = heart_slice(shape, center, r, _uniform_wall_for_area(r, area),
                               rv_center=rv_center, rv_radius=rv_r, _grids=grids)
        else:  # a slice at a time, with no float64 volume of widths
            base = _base_wall_for_area(r, area, theta / (2 * np.pi), thin_w)
            data = np.stack([heart_slice(shape, center, r[z], np.where(thin, thin_w, base[z]),
                                         rv_center=rv_center, rv_radius=rv_r[z], _grids=grids)
                             for z in range(n_slices)], axis=2)
        return LabelVolume(data=data, spacing=(sxy, sxy, sz), _owned=True)

    return build(1.0), build(shrink)


def disease_cohort(n_cases: int, seed: int = 0):
    """Balanced MINF/DCM cohort; yields (ed, es, label) per case."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_cases):
        kind = "MINF" if i % 2 == 0 else "DCM"
        out.append((*disease_cohort_case(int(rng.integers(0, 2**31)), kind), kind))
    return out
