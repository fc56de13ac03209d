"""LV region-of-interest localization from cine sequences.

The locator composes four stages: per-voxel magnitude of the first
temporal DFT harmonic (tissue moving at the heart rate), a global noise
threshold, per-slice Canny edge detection, and a circular Hough transform
whose retained circles cast Gaussian-smeared center votes into a shared
likelihood surface. The surface argmax is the ROI center.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from . import kernels
from .volume import ScalarVolume


class RoiLocateError(RuntimeError):
    """No circle evidence found; callers should fall back to the image center."""


@dataclass(frozen=True)
class RoiConfig:
    radius_min: int = 10
    radius_max: int = 40
    top_p: int = 5
    vote_sigma: float = 8.0
    h1_noise_frac: float = 0.01
    canny_sigma: float = 1.0
    canny_low: float = 0.1
    canny_high: float = 0.2
    patch_size: tuple = (128, 128)

    def __post_init__(self):
        if not (0 < self.radius_min < self.radius_max):
            raise ValueError("need 0 < radius_min < radius_max")
        if self.top_p < 1:
            raise ValueError("top_p must be >= 1")
        if not (0 <= self.h1_noise_frac < 1):
            raise ValueError("h1_noise_frac must be in [0, 1)")
        if not self.canny_sigma > 0:
            raise ValueError("canny_sigma must be positive")
        if not (0 <= self.canny_low <= self.canny_high <= 1):
            raise ValueError("need 0 <= canny_low <= canny_high <= 1")
        if not self.vote_sigma > 0:
            raise ValueError("vote_sigma must be positive")


@dataclass(frozen=True)
class H1Volume:
    """Per-voxel magnitude of the first temporal DFT harmonic."""

    magnitudes: np.ndarray  # (nx, ny, nz), >= 0
    spacing: tuple = (1.0, 1.0, 1.0)
    residue: float = 0.0  # bounds a static voxel's rounding residue; 0 if unknown

    def __post_init__(self):
        m = np.asarray(self.magnitudes, dtype=np.float64)
        if m.ndim != 3:
            raise ValueError("H1 magnitudes must be 3D (nx, ny, nz)")
        if np.any(m < 0):
            raise ValueError("H1 magnitudes must be non-negative")
        object.__setattr__(self, "magnitudes", m)


@dataclass(frozen=True)
class Circle:
    center: tuple  # (x, y) integer voxel coordinates
    radius: int
    score: float


@dataclass
class HoughResult:
    circles_per_slice: List[List[Circle]]
    surface: np.ndarray  # (nx, ny) accumulated likelihood
    roi_center: tuple  # (x, y)


# Complex elements per block of temporal_h1, under the 4096 from which
# OpenBLAS splits a zgemv over threads: the thousands of small products then
# pay no thread hand-off, which on a busy host can wait a scheduler slice
# each (with both cores busy, 4096-row blocks made a fresh temporal_h1
# about 6x slower than these; with idle cores, no faster).
_H1_BLOCK = 4095


def temporal_h1(v: ScalarVolume) -> H1Volume:
    """Magnitude of DFT bin 1 along the time axis, per voxel (phase discarded).

    Bin 1 is computed in float64, one z-slice at a time and within it one
    block of voxels at a time, so the extra memory is one reused complex
    block of ``_H1_BLOCK`` elements, never a float64 or complex copy of a
    slice or of the cine. Each voxel's sum runs over the same frames in the
    same order as a whole-volume product, so the values are bitwise equal
    to it. A temporally constant voxel leaves ~1e-16 relative DFT residue,
    so ``residue`` is ``1e-12 * frames * peak |value|`` of the cine, the
    peak taken on the way, as each slice is read.
    """
    nx, ny, nz, nt = v.dims
    if nt < 2:
        raise ValueError(f"temporal analysis needs at least 2 frames, got {nt}")
    t = np.arange(nt)
    phase = np.exp(-2j * np.pi * t / nt)
    magnitudes = np.empty((nx, ny, nz))
    n = nx * ny
    # numpy takes a one-row product to a dot, whose sums differ in the last
    # bit; so a block has two rows or more, unless the slice has one voxel
    block = np.zeros((min(max(_H1_BLOCK // nt, 2), n), nt), dtype=np.complex128)
    bin1 = np.empty(n)
    peak = 0.0
    for z in range(nz):
        frames = v.data[:, :, z, :]
        peak = max(peak, float(frames.max(initial=-np.inf)), -float(frames.min(initial=np.inf)))
        # (voxel, t) rows in x-fastest voxel order, a view of an x-fastest
        # cine; each row is summed on its own, so the blocking is invisible
        rows = frames.reshape(n, nt, order="F")
        for start in range(0, n, max(len(block), 1)):
            start = min(start, n - len(block))  # the last block overlaps the one before
            block.real = rows[start:start + len(block)]
            np.abs(block @ phase, out=bin1[start:start + len(block)])
        magnitudes[:, :, z] = bin1.reshape(ny, nx).T
    return H1Volume(magnitudes=magnitudes, spacing=v.spacing[:3], residue=1e-12 * nt * peak)


def denoise_h1(h: H1Volume, frac: float) -> H1Volume:
    """Zero out values strictly below frac * max over the whole volume, and
    values up to ``h.residue``, so a static input reads as signal-free
    instead of as faint circles."""
    if not (0 <= frac < 1):
        raise ValueError(f"frac must be in [0, 1), got {frac}")
    m = h.magnitudes
    threshold = frac * m.max() if m.size else 0.0
    out = np.where((m < threshold) | (m <= h.residue), 0.0, m)
    return H1Volume(magnitudes=out, spacing=h.spacing, residue=h.residue)


# Quantized gradient axes for non-maximum suppression: offset of the
# "forward" neighbor, indexed by angle octant of (gx, gy).
_NMS_OFFSETS = np.array(
    [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
)


def canny_reach(sigma: float) -> int:
    """How far outside an image's non-zero support ``canny_edges`` can see it.

    ``int(4 * sigma + 0.5)`` is the radius of the Gaussian (truncate=4);
    Sobel reads one pixel further and non-maximum suppression one more.
    ``canny_edges`` runs on a window with this margin around the support,
    where it gives the same bits as on the whole image: the window's
    ``mode="nearest"`` borders see the zeros the whole image has there.
    """
    return int(4 * sigma + 0.5) + 2


def nonzero_window(mask: np.ndarray, margin: int) -> tuple:
    """``(x, y)`` slices of the non-zero bounding box of a 2D or 3D array.

    A 3D array's box covers its support over every slice. The box grows by
    ``margin`` on each side and is clipped to the array; it is empty (two
    zero-length slices) when the array has no non-zero value.
    """
    plane = np.asarray(mask)
    if plane.ndim == 3:
        plane = plane.any(axis=2)
    elif plane.ndim != 2:
        raise ValueError("nonzero_window expects a 2D or 3D array")
    xs = np.flatnonzero(plane.any(axis=1))
    if xs.size == 0:
        return slice(0, 0), slice(0, 0)
    ys = np.flatnonzero(plane[xs[0]:xs[-1] + 1].any(axis=0))  # all non-zeros lie in these rows
    nx, ny = plane.shape
    return (
        slice(max(int(xs[0]) - margin, 0), min(int(xs[-1]) + margin + 1, nx)),
        slice(max(int(ys[0]) - margin, 0), min(int(ys[-1]) + margin + 1, ny)),
    )


def canny_edges(image: np.ndarray, sigma: float, low: float, high: float) -> np.ndarray:
    """Canny edge detection; thresholds are fractions of the gradient maximum.

    ``image`` is a 2D slice or an ``(nx, ny, nz)`` stack, whose slices are
    detected each on its own, against its own gradient maximum.
    Non-maximum suppression keeps the pixel on the brighter side of a
    symmetric edge (strict comparison toward the gradient direction,
    non-strict against it), so edges of binary masks land inside the mask.
    Only a pixel above the low threshold can be an edge, so suppression
    runs on those pixels alone. Hysteresis keeps the 8-connected groups of
    surviving pixels that hold one above the high threshold.

    The detector runs on the image's non-zero box (over all slices of a
    stack) grown by the reach of its filters: every edge lies inside it, and
    there it gives the whole image's bits. The result has the input's shape.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise ValueError("canny_edges expects a 2D image or a stack of them")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not (0 <= low <= high <= 1):
        raise ValueError("need 0 <= low <= high <= 1")
    out = np.zeros(img.shape, dtype=bool)
    win = nonzero_window(img, canny_reach(sigma))
    img = img[win]
    if img.size == 0:
        return out

    smooth = kernels.gaussian(img, sigma)
    gx = kernels.sobel(smooth, 0).ravel()
    gy = kernels.sobel(smooth, 1).ravel()
    gmag = np.hypot(gx, gy).reshape(img.shape[:2] + (-1,))
    nx, ny, nz = gmag.shape
    gmax = gmag.max(axis=(0, 1), initial=0.0)
    at = np.flatnonzero(gmag > low * gmax)  # the pixels that can be edges
    z = at % nz
    g = gmag.ravel()[at]

    octant = np.round(np.arctan2(gy[at], gx[at]) / (np.pi / 4)).astype(int) % 8
    # from here ``at`` indexes the magnitudes zero-padded in plane, and
    # ``steps`` are the flat offsets of the eight neighbours there
    padded = np.zeros((nx + 2, ny + 2, nz))
    padded[1:-1, 1:-1] = gmag
    padded = padded.ravel()
    at = at + (2 * (at // (ny * nz)) + ny + 3) * nz
    steps = (_NMS_OFFSETS * [(ny + 2) * nz, nz]).sum(axis=1)
    # Symmetric edges produce magnitude ties on both sides of the true
    # boundary; the tolerance makes the tie-break deterministic (exactly
    # one pixel of a tied plateau survives) instead of float-noise driven.
    tol = 1e-9 * gmax[z]
    step = steps[octant]
    ridge = (g >= padded[at + step] - tol) & (g > padded[at - step] + tol)

    # hysteresis: grow the strong pixels inside the weak ones to a fixpoint
    state = np.zeros(padded.shape, dtype=np.int8)  # 1 weak, 2 kept
    state[at[ridge]] = 1
    front = at[ridge & (g > high * gmax[z])]
    while front.size:
        state[front] = 2
        around = (front[:, None] + steps).ravel()
        front = np.sort(around[state[around] == 1])
        front = front[np.diff(front, prepend=-1) != 0]  # np.unique, without numpy.ma
    kept = state.reshape(nx + 2, ny + 2, nz)[1:-1, 1:-1] == 2
    out[win] = kept.reshape(img.shape)
    return out


def _ring_kernel(radius: int) -> np.ndarray:
    n = 2 * radius + 1
    xs, ys = np.meshgrid(np.arange(n) - radius, np.arange(n) - radius, indexing="ij")
    dist = np.hypot(xs, ys)
    return (np.round(dist) == radius).astype(np.float64)


@lru_cache(maxsize=4)
def _ring_spectra(shape: tuple, radius_min: int, radius_max: int) -> np.ndarray:
    """Real 2D spectra of the ring kernels for every radius, on a `shape` grid.

    Each kernel is centred at index 0 and wraps around (overlapping wraps
    add up), so on a grid sized as ``hough_circles`` sizes it the product
    with an edge-map spectrum crops (at ``[:nx, :ny]``) to the
    ``mode="same"`` convolution.
    """
    spectra = []
    for radius in range(radius_min, radius_max + 1):
        kernel = np.zeros(shape)
        offsets = np.arange(-radius, radius + 1)
        wrapped = np.ix_(offsets % shape[0], offsets % shape[1])
        np.add.at(kernel, wrapped, _ring_kernel(radius))
        spectra.append(np.fft.rfft2(kernel))
    out = np.stack(spectra)
    out.setflags(write=False)
    return out


def _select_peaks(votes: np.ndarray, top_p: int, min_dist: int) -> list:
    """Greedy non-maximum suppression on one vote plane, ``min_dist >= 1``.

    Up to ``top_p`` times, the highest vote (ties: the last in C order) is
    kept if it is positive, and every vote closer than ``min_dist`` to it is
    zeroed. So a visit by score descending, ties by flat index descending,
    drops exactly the candidates closer than ``min_dist`` to a kept peak.
    The plane is copied into a zero margin as wide as the zeroed disk's
    reach, which keeps its C order and outscores no positive vote.
    Returns ``(x, y, score)`` tuples in the order kept.
    """
    r = min_dist - 1
    disk = np.hypot(*np.ogrid[-r:r + 1, -r:r + 1]) < min_dist
    live = np.zeros((votes.shape[0] + 2 * r, votes.shape[1] + 2 * r), votes.dtype)
    live[r:r + votes.shape[0], r:r + votes.shape[1]] = votes
    backwards = live.ravel()[::-1]  # its argmax is the last of the tied maxima
    kept = []
    for _ in range(top_p):
        x, y = divmod(live.size - 1 - int(np.argmax(backwards)), live.shape[1])
        if live[x, y] <= 0:
            break
        kept.append((x - r, y - r, float(live[x, y])))
        live[x - r:x + r + 1, y - r:y + r + 1][disk] = 0
    return kept


def hough_circles(edges: np.ndarray, cfg: RoiConfig) -> List[Circle]:
    """Classical circular Hough transform over the configured radius range.

    The edge map is transformed once; each radius plane is its product with
    a cached ring-kernel spectrum, inverted and rounded to integral votes.
    On an axis of size n with edges in [lo, hi] the FFT grid N is
    ``next_fast_len(max(n - lo, hi + 1) + radius_max)``: an edge at j's ring
    wraps onto an output i < n only if i - j or j - i reaches N - radius_max,
    so any edge map gets exactly the ``mode="same"`` convolution.
    Within each plane, peaks are picked greedily by score descending, ties
    by flat (C-order) index descending, dropping any candidate closer than
    radius_min to an already kept peak of that plane; concentric circles
    of different radii can therefore both be returned. All planes' peaks
    are then ordered by (score desc, y, x, radius) and the first top_p
    returned. Planes are visited by maximum descending, and the search ends
    at one whose maximum is not positive or is below the top_p-th kept
    score, since no peak outscores its plane's maximum (a tie is visited).
    """
    edges = np.asarray(edges)
    if edges.ndim != 2:
        raise ValueError("hough_circles expects a 2D edge map")
    if not edges.any():
        return []
    nx, ny = edges.shape
    shape = tuple(
        kernels.next_fast_len(max(n - box.start, box.stop) + cfg.radius_max)
        for n, box in zip(edges.shape, nonzero_window(edges, 0))
    )
    spectrum = np.fft.rfft2(edges.astype(np.float64), s=shape)
    spectra = _ring_spectra(shape, cfg.radius_min, cfg.radius_max)
    votes = np.empty((len(spectra), min(nx, shape[0]), min(ny, shape[1])), dtype=np.int32)
    for plane, ring in zip(votes, spectra):
        # votes are integral counts; FFT noise rounds away
        plane[...] = np.round(np.fft.irfft2(spectrum * ring, s=shape)[:nx, :ny])

    peaks = votes.max(axis=(1, 2))
    kept: List[Circle] = []
    for i in np.argsort(-peaks, kind="stable"):
        if peaks[i] <= 0 or (len(kept) == cfg.top_p and peaks[i] < kept[-1].score):
            break
        for x, y, score in _select_peaks(votes[i], cfg.top_p, cfg.radius_min):
            kept.append(Circle(center=(x, y), radius=cfg.radius_min + int(i), score=score))
        kept.sort(key=lambda c: (-c.score, c.center[1], c.center[0], c.radius))
        del kept[cfg.top_p:]
    return kept


def _cast_vote(surface: np.ndarray, center, sigma: float, weight: float) -> None:
    """Add a truncated (3 sigma) normalized Gaussian bump in place."""
    nx, ny = surface.shape
    cx, cy = center
    reach = int(np.ceil(3 * sigma))
    x0, x1 = max(cx - reach, 0), min(cx + reach + 1, nx)
    y0, y1 = max(cy - reach, 0), min(cy + reach + 1, ny)
    if x0 >= x1 or y0 >= y1:
        return
    xs = np.arange(x0, x1) - cx
    ys = np.arange(y0, y1) - cy
    d2 = xs[:, None] ** 2 + ys[None, :] ** 2
    bump = np.exp(-d2 / (2 * sigma**2)) / (2 * np.pi * sigma**2)
    bump[d2 > (3 * sigma) ** 2] = 0.0
    surface[x0:x1, y0:y1] += weight * bump


def locate_roi(v: ScalarVolume, cfg: RoiConfig | None = None) -> HoughResult:
    """Locate the LV center of a cine volume.

    All slices share one global center: every retained Hough circle from
    every slice casts a Gaussian vote (sigma = cfg.vote_sigma, weight =
    its accumulator score) into one likelihood surface whose argmax is
    the ROI center. Ties resolve to the lowest (y, then x) index.
    The H1 magnitudes are ``denoise_h1(temporal_h1(v), cfg.h1_noise_frac)``,
    so a static cine has no edges and raises ``RoiLocateError``.
    Canny runs once per slice, on whole H1 slices (it crops each to its
    own window). Hough runs on one window, all slices' edges grown by
    radius_max, so every slice usually shares one FFT grid: outside it every
    vote is zero, as on the whole slices.
    """
    cfg = cfg or RoiConfig()
    h1 = denoise_h1(temporal_h1(v), cfg.h1_noise_frac)
    nx, ny, nz = h1.magnitudes.shape
    edges = np.zeros((nx, ny, nz), dtype=bool)
    for z in range(nz):
        edges[:, :, z] = canny_edges(
            h1.magnitudes[:, :, z], cfg.canny_sigma, cfg.canny_low, cfg.canny_high
        )
    # translation keeps the flat-index tie order, hence the circles
    wx, wy = nonzero_window(edges, cfg.radius_max)

    surface = np.zeros((nx, ny), dtype=np.float64)
    per_slice: List[List[Circle]] = []
    total = 0
    for z in range(nz):
        circles = [
            Circle(center=(c.center[0] + wx.start, c.center[1] + wy.start),
                   radius=c.radius, score=c.score)
            for c in hough_circles(edges[wx, wy, z], cfg)
        ]
        per_slice.append(circles)
        total += len(circles)
        for c in circles:
            _cast_vote(surface, c.center, cfg.vote_sigma, c.score)

    if total == 0:
        raise RoiLocateError(
            "no Hough circles found on any slice; fall back to the image center"
        )

    flat = int(np.argmax(surface.T))  # transpose scans y-major: lowest y, then x
    cy, cx = np.unravel_index(flat, (ny, nx))
    return HoughResult(
        circles_per_slice=per_slice, surface=surface, roi_center=(int(cx), int(cy))
    )

