"""Deterministic geometric and intensity augmentation for 2D slices.

Transforms are fully described by :class:`AugmentParams`; randomness
lives in :func:`sample_params`, so an augmentation is reproducible from
its parameter record alone. Rotation, translation, zoom and the elastic
field compose into a single backward coordinate map, so the image is
resampled exactly once (bilinear; labels nearest-neighbor).

Everything here is numpy: the resamplers give the same bits as
``scipy.ndimage.map_coordinates`` at orders 1 and 0, and the elastic
field is the closed form of its order-3 spline on the 2x2 control grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import LabelVolume, ScalarVolume, check_spacing


_ZERO_GRID = (((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)))


@dataclass(frozen=True)
class AugmentParams:
    angle_deg: float = 0.0
    shift_mm: tuple = (0.0, 0.0)
    zoom: float = 1.0
    noise_sigma: float = 0.0
    # displacement (mm) of a 2x2 control-point grid spanning the image,
    # nested tuples indexed [i][j][dx, dy] so params stay comparable and
    # JSON-serializable
    elastic_grid: tuple = _ZERO_GRID
    noise_seed: int = 0

    def __post_init__(self):
        if self.zoom <= 0:
            raise ValueError("zoom must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        grid = np.asarray(self.elastic_grid, dtype=np.float64)
        if grid.shape != (2, 2, 2):
            raise ValueError("elastic_grid must have shape (2, 2, 2)")
        object.__setattr__(
            self,
            "elastic_grid",
            tuple(tuple(tuple(float(v) for v in pt) for pt in row) for row in grid),
        )

    @property
    def elastic_array(self) -> np.ndarray:
        return np.asarray(self.elastic_grid, dtype=np.float64)

    @property
    def is_identity_geometry(self) -> bool:
        return (
            self.angle_deg == 0.0
            and tuple(self.shift_mm) == (0.0, 0.0)
            and self.zoom == 1.0
            and not np.any(self.elastic_array)
        )

    def as_dict(self) -> dict:
        return {
            "angle_deg": self.angle_deg,
            "shift_mm": list(self.shift_mm),
            "zoom": self.zoom,
            "noise_sigma": self.noise_sigma,
            "elastic_grid": [[list(pt) for pt in row] for row in self.elastic_grid],
            "noise_seed": self.noise_seed,
        }


def sample_params(seed: int) -> AugmentParams:
    """Draw one augmentation parameter set; identical seeds give identical params.

    Ranges: rotation in [-5, 5] degrees, shifts in [-5, 5] mm per axis,
    zoom in [0.8, 1.2], additive Gaussian noise sigma 0.01, elastic
    control-point displacements in [-3, 3] mm per axis.
    """
    rng = np.random.default_rng(seed)
    return AugmentParams(
        angle_deg=float(rng.uniform(-5.0, 5.0)),
        shift_mm=(float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0))),
        zoom=float(rng.uniform(0.8, 1.2)),
        noise_sigma=0.01,
        elastic_grid=tuple(
            tuple(tuple(rng.uniform(-3.0, 3.0, 2)) for _ in range(2)) for _ in range(2)
        ),
        noise_seed=int(rng.integers(0, 2**32)),
    )


def _spline_weights(n: int) -> np.ndarray:
    """Weights (2, n) of the two control points at n pixels spanning [0, 1].

    This is the cubic spline of a 2-point signal under ``mode="nearest"``
    in closed form: ``w0(f) = 1/2 - (3+sqrt(3))/4 u + (sqrt(3)-1) u^3`` with
    ``u = f - 1/2``, written as linear interpolation plus a cubic that
    vanishes at f = 0, 1/2 and 1, so each end pixel carries exactly its
    control point's value. ``w1 = 1 - w0``.
    """
    f = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    w0 = (1.0 - f) - (np.sqrt(3.0) - 1.0) * f * (1.0 - f) * (f - 0.5)
    return np.stack([w0, 1.0 - w0])


def _elastic_field_px(grid_mm: np.ndarray, shape, spacing) -> np.ndarray:
    """Dense per-pixel displacement (px) from the 2x2 control grid.

    Control points sit at the image corners; the field is the separable
    cubic spline through them, ``wx.T @ G[:, :, axis] @ wy`` per axis.
    """
    wx, wy = _spline_weights(shape[0]), _spline_weights(shape[1])
    return np.stack([wx.T @ grid_mm[:, :, axis] @ wy / spacing[axis] for axis in range(2)])


def _backward_map(p: AugmentParams, shape, spacing):
    """Source coordinates ``(x, y)``, each (nx, ny), of every output pixel,
    or None for identity geometry.

    Rotate by -angle and unzoom about the center, then unshift; the
    elastic displacement is added in source space.
    """
    spacing = check_spacing(spacing[:2], 2)
    if p.is_identity_geometry:
        return None
    nx, ny = shape
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    theta = np.deg2rad(p.angle_deg)
    ux = (np.arange(nx, dtype=np.float64)[:, None] - cx) / p.zoom
    uy = (np.arange(ny, dtype=np.float64)[None, :] - cy) / p.zoom
    src_x = np.cos(theta) * ux + np.sin(theta) * uy
    src_y = -np.sin(theta) * ux + np.cos(theta) * uy
    src_x += cx
    src_x -= p.shift_mm[0] / spacing[0]
    src_y += cy
    src_y -= p.shift_mm[1] / spacing[1]
    if np.any(p.elastic_array):
        field = _elastic_field_px(p.elastic_array, shape, spacing)
        src_x += field[0]
        src_y += field[1]
    return src_x, src_y


def _inside(coords, shape):
    x, y = coords
    return (x >= 0) & (x <= shape[0] - 1) & (y >= 0) & (y <= shape[1] - 1)


def _bilinear(img, coords) -> np.ndarray:
    """Bilinear samples of ``img`` (nx, ny, *stack) at ``coords`` (2, *out).

    Returns float64 of shape (*out, *stack). A point outside
    ``[0, n-1]`` on either axis reads 0. The corner terms are the same
    floats, summed in the same order, as ``scipy.ndimage.map_coordinates``
    at ``order=1, mode="constant"``.
    """
    img = np.asarray(img)
    nx, ny = img.shape[:2]
    inside = _inside(coords, img.shape)
    x = np.where(inside, coords[0], 0.0)
    y = np.where(inside, coords[1], 0.0)
    x0, y0 = np.floor(x), np.floor(y)
    i = x0.astype(np.intp)
    i *= ny + 1
    i += y0.astype(np.intp)
    # scipy's weights: 1 - frac for the low corner, 1 minus that for the high
    tail = (1,) * (img.ndim - 2)
    wx0 = np.subtract(1.0, x - x0, out=x0).reshape(x.shape + tail)
    wy0 = np.subtract(1.0, y - y0, out=y0).reshape(y.shape + tail)
    wx1, wy1 = 1.0 - wx0, 1.0 - wy0
    # one zero row and column take the far neighbour of the last pixel
    padded = np.zeros((nx + 1, ny + 1) + img.shape[2:])
    padded[:nx, :ny] = img
    flat = padded.reshape((-1,) + img.shape[2:])
    out = np.zeros(i.shape + img.shape[2:])
    term = np.empty_like(out)
    for shift, wx, wy in ((0, wx0, wy0), (1, wx0, wy1), (ny + 1, wx1, wy0), (ny + 2, wx1, wy1)):
        np.take(flat[shift:], i, axis=0, out=term, mode="clip")  # every index is in range
        term *= wx
        term *= wy
        out += term
    out[~inside] = 0.0
    return out


def _nearest(lbl, coords) -> np.ndarray:
    """Nearest-neighbour samples of ``lbl`` (nx, ny, *stack) at ``coords``
    (2, *out), in ``lbl``'s dtype: the pixel at ``floor(x + 0.5)``, or 0
    outside ``[0, n-1]``, as ``map_coordinates`` at ``order=0``."""
    lbl = np.asarray(lbl)
    inside = _inside(coords, lbl.shape)
    x = np.floor(np.where(inside, coords[0], 0.0) + 0.5).astype(np.intp)
    y = np.floor(np.where(inside, coords[1], 0.0) + 0.5).astype(np.intp)
    out = np.take(lbl.reshape((-1,) + lbl.shape[2:]), x * lbl.shape[1] + y, axis=0)
    out[~inside] = 0
    return out


def apply_augment(img, lbl, p: AugmentParams, spacing=(1.0, 1.0)):
    """Apply one augmentation to an image slice and optional label slice.

    The composed rotate/translate/zoom/elastic map is evaluated in one
    resampling pass (bilinear image, nearest labels, zero fill outside).
    Gaussian noise (seeded by ``p.noise_seed``) goes on the image only.
    Identity parameters return the inputs bit-for-bit.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("apply_augment expects a 2D image")
    if lbl is not None:
        lbl = np.asarray(lbl)
        if lbl.shape != img.shape:
            raise ValueError("image and label shapes differ")
    return _resample(img, lbl, p, _backward_map(p, img.shape, spacing))


def _resample(img, lbl, p: AugmentParams, coords):
    """Resample a float64 image (nx, ny, *stack) and optional labels along
    ``coords`` (None: identity), then add ``p``'s noise, the same field on
    every stacked slice."""
    out_img, out_lbl = img, lbl
    if coords is not None:
        out_img = _bilinear(img, coords)
        if lbl is not None:
            out_lbl = _nearest(lbl, coords)

    if p.noise_sigma > 0:
        rng = np.random.default_rng(p.noise_seed)
        noise = rng.normal(0.0, p.noise_sigma, size=img.shape[:2])
        out_img = out_img + noise.reshape(noise.shape + (1,) * (img.ndim - 2))
    elif out_img is img:
        out_img = img.copy()
    if out_lbl is lbl and lbl is not None:
        out_lbl = lbl.copy()
    return out_img, out_lbl


def flip_pair(img, lbl, horizontal: bool, vertical: bool):
    """Optional axis flips used by dataset-specific augmentation schemes."""
    img = np.asarray(img)
    if horizontal:
        img = img[::-1, :]
        lbl = lbl[::-1, :] if lbl is not None else None
    if vertical:
        img = img[:, ::-1]
        lbl = lbl[:, ::-1] if lbl is not None else None
    return img.copy(), (lbl.copy() if lbl is not None else None)


def augment_volume(vol: ScalarVolume, lbl: LabelVolume | None, p: AugmentParams,
                   flips=(False, False)):
    """Apply one augmentation and flip pair to every (z, t) slice of a volume.

    ``lbl`` is optional; a 3D label volume is shared by every frame, a 4D
    one is augmented frame by frame. Returns ``(ScalarVolume, LabelVolume
    or None)`` on the input grids. Raises ValueError when the labels' grid
    or frame count is not the image's.
    """
    if lbl is not None and (lbl.dims[:3] != vol.dims[:3]
                            or lbl.data.ndim == 4 and lbl.dims[3] != vol.dims[3]):
        raise ValueError(f"labels of shape {lbl.dims} do not match the image's {vol.dims}")
    coords = _backward_map(p, vol.dims[:2], vol.spacing[:2])
    img_out = np.empty(vol.dims, dtype=np.float64)
    lbl_out = None if lbl is None else np.empty(lbl.dims, dtype=np.uint8)
    # one z-slice at a time, all its frames stacked on the last axis
    for z in range(vol.dims[2]):
        img2, lbl2 = _resample(vol.data[:, :, z].astype(np.float64),
                               None if lbl is None else lbl.data[:, :, z], p, coords)
        img_out[:, :, z], lbl2 = flip_pair(img2, lbl2, *flips)
        if lbl_out is not None:
            lbl_out[:, :, z] = lbl2
    img = ScalarVolume(data=img_out, spacing=vol.spacing)
    if lbl is None:
        return img, None
    return img, LabelVolume(data=lbl_out, spacing=lbl.spacing)
