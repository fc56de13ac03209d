"""Deterministic geometric and intensity augmentation for 2D slices.

Transforms are fully described by :class:`AugmentParams`; randomness
lives in :func:`sample_params`, so an augmentation is reproducible from
its parameter record alone. Rotation, translation, zoom and the elastic
field compose into a single backward coordinate map, so the image is
resampled exactly once (bilinear; labels nearest-neighbor).

Resampling is ``scipy.ndimage.map_coordinates``: this module and the
Hausdorff KD-tree fallback in :mod:`cardiomr.metrics` are the only users
of scipy, so the CLI imports this module only inside ``cardiomr augment``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .volume import LabelVolume, ScalarVolume


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


def _elastic_field_px(grid_mm: np.ndarray, shape, spacing) -> np.ndarray:
    """Dense per-pixel displacement (px) from the 2x2 control grid.

    Control points sit at the image corners; the dense field comes from
    cubic spline interpolation of the control values on the pixel lattice.
    """
    nx, ny = shape
    # fractional positions of each pixel inside the unit control cell
    fx = np.linspace(0.0, 1.0, nx) if nx > 1 else np.zeros(1)
    fy = np.linspace(0.0, 1.0, ny) if ny > 1 else np.zeros(1)
    coords = np.stack(np.meshgrid(fx, fy, indexing="ij"))  # (2, nx, ny)
    field_px = np.empty((2, nx, ny))
    for axis in range(2):
        field_px[axis] = ndimage.map_coordinates(
            grid_mm[:, :, axis], coords, order=3, mode="nearest"
        ) / spacing[axis]
    return field_px


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
    if any(not 0 < s < np.inf for s in spacing[:2]):
        raise ValueError(f"spacing must be positive and finite, got {tuple(spacing)}")
    if lbl is not None:
        lbl = np.asarray(lbl)
        if lbl.shape != img.shape:
            raise ValueError("image and label shapes differ")

    out_img, out_lbl = img, lbl
    if not p.is_identity_geometry:
        nx, ny = img.shape
        cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
        xs, ys = np.meshgrid(
            np.arange(nx, dtype=np.float64), np.arange(ny, dtype=np.float64),
            indexing="ij",
        )
        # backward map: rotate by -angle and unzoom about the center,
        # then unshift; elastic displacement is added in source space
        theta = np.deg2rad(p.angle_deg)
        ux = (xs - cx) / p.zoom
        uy = (ys - cy) / p.zoom
        src_x = np.cos(theta) * ux + np.sin(theta) * uy + cx - p.shift_mm[0] / spacing[0]
        src_y = -np.sin(theta) * ux + np.cos(theta) * uy + cy - p.shift_mm[1] / spacing[1]
        if np.any(p.elastic_array):
            field = _elastic_field_px(p.elastic_array, img.shape, spacing)
            src_x = src_x + field[0]
            src_y = src_y + field[1]
        coords = np.stack([src_x, src_y])
        out_img = ndimage.map_coordinates(img, coords, order=1, mode="constant", cval=0.0)
        if lbl is not None:
            out_lbl = ndimage.map_coordinates(lbl, coords, order=0, mode="constant", cval=0)

    if p.noise_sigma > 0:
        rng = np.random.default_rng(p.noise_seed)
        out_img = out_img + rng.normal(0.0, p.noise_sigma, size=out_img.shape)
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
    img_out = np.empty(vol.dims, dtype=np.float64)
    lbl_out = None if lbl is None else np.empty(lbl.dims, dtype=np.uint8)
    per_frame = lbl is not None and lbl.data.ndim == 4
    for z in range(vol.dims[2]):
        for t in range(vol.dims[3]):
            at = np.s_[:, :, z, t] if per_frame else np.s_[:, :, z]
            img2, lbl2 = apply_augment(
                vol.data[:, :, z, t], None if lbl is None else lbl.data[at], p, vol.spacing[:2]
            )
            img_out[:, :, z, t], lbl2 = flip_pair(img2, lbl2, *flips)
            if lbl_out is not None:
                lbl_out[at] = lbl2
    img = ScalarVolume(data=img_out, spacing=vol.spacing)
    if lbl is None:
        return img, None
    return img, LabelVolume(data=lbl_out, spacing=lbl.spacing)
