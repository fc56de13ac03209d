"""Image kernels in numpy alone: Canny's filters, binary morphology, a
connected-component labeller and the FFT length rule.

They replace the scipy.ndimage and scipy.fft calls of the pipeline path, so
a ``cardiomr pipeline`` process never imports scipy. Each returns the values
the scipy call named in its docstring returns (a zero may differ in sign).

The in-plane kernels take a 2D ``(nx, ny)`` slice or an ``(nx, ny, nz)``
stack of them, the layout of the label volumes, and treat each slice on its
own: a stack costs one pass of numpy calls instead of one per slice.
"""

from __future__ import annotations

import numpy as np


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n: ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 1 << max(n - 1, 0).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            best = min(best, f35 << ((n - 1) // f35).bit_length())  # first f35 * 2**k >= n
            f35 *= 3
        f5 *= 5
    return best


def _correlate_symmetric(image: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """``ndimage.correlate1d(image, weights, axis, mode="nearest")`` for a
    symmetric odd-length kernel, summed in scipy's order: the centre tap,
    then each pair of taps from the outermost in."""
    x = image.swapaxes(0, axis)
    r, n = weights.size // 2, x.shape[0]
    padded = np.empty((n + 2 * r,) + x.shape[1:])
    padded[r:r + n] = x
    padded[:r] = x[0]  # mode="nearest": the edge rows repeat
    padded[r + n:] = x[-1]
    out = padded[r:r + n] * weights[r]
    pair = np.empty_like(out)
    for k in range(r, 0, -1):
        np.add(padded[r - k:r - k + n], padded[r + k:r + k + n], out=pair)
        pair *= weights[r - k]
        out += pair
    return out.swapaxes(0, axis)


def gaussian(image: np.ndarray, sigma: float) -> np.ndarray:
    """``ndimage.gaussian_filter(slice, sigma, mode="nearest")`` of every slice."""
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = weights / weights.sum()
    smooth = _correlate_symmetric(np.asarray(image, dtype=np.float64), weights, 0)
    return _correlate_symmetric(smooth, weights, 1)


_SOBEL_SMOOTH = np.array([1.0, 2.0, 1.0])


def sobel(image: np.ndarray, axis: int) -> np.ndarray:
    """``ndimage.sobel(slice, axis, mode="nearest")`` of every slice, ``axis`` 0 or 1."""
    x = np.asarray(image, dtype=np.float64).swapaxes(0, axis)
    # the [-1, 0, 1] derivative with the edge rows repeated ...
    derivative = np.empty_like(x)
    np.subtract(x[2:], x[:-2], out=derivative[1:-1])
    derivative[0] = x[min(1, len(x) - 1)] - x[0]
    derivative[-1] = x[-1] - x[max(len(x) - 2, 0)]
    # ... then the [1, 2, 1] smoothing across it
    return _correlate_symmetric(derivative.swapaxes(0, axis), _SOBEL_SMOOTH, 1 - axis)


def erode(mask: np.ndarray, square: bool, axes=(0, 1)) -> np.ndarray:
    """Binary erosion over ``axes`` by the full 3x3(x3) box (``square``) or the
    face cross, with scipy's ``border_value=0``: a voxel on the array border of
    one of ``axes`` is eroded.

    ``ndimage.binary_erosion(mask, generate_binary_structure(k, k or 1))``
    for ``axes`` all k axes of the mask; the default erodes each slice of a
    stack. The box is separable, so it erodes along one axis at a time.
    Each axis is one shift of the flat array each way: a voxel whose shifted
    neighbour wraps into the next row is on that axis's border, and eroded.
    """
    out = np.array(mask, dtype=bool, order="C")  # ``flat`` below is a view of it
    if out.size == 0:
        return out
    flat = out.reshape(-1)
    src = flat.copy()
    for axis in axes:
        step = int(np.prod(out.shape[axis + 1:]))
        np.logical_and(flat[:-step], src[step:], out=flat[:-step])
        np.logical_and(flat[step:], src[:-step], out=flat[step:])
        border = out.swapaxes(0, axis)
        border[0] = border[-1] = False
        if square:
            src = flat.copy()
    return out


def dilate_cross(mask: np.ndarray, iterations: int = 1) -> np.ndarray:
    """``ndimage.binary_dilation(slice, generate_binary_structure(2, 1),
    iterations)`` of every slice (``iterations >= 1``)."""
    out = np.array(mask, dtype=bool)
    for _ in range(iterations):
        src = out.copy()
        np.logical_or(out[1:], src[:-1], out=out[1:])
        np.logical_or(out[:-1], src[1:], out=out[:-1])
        np.logical_or(out[:, 1:], src[:, :-1], out=out[:, 1:])
        np.logical_or(out[:, :-1], src[:, 1:], out=out[:, :-1])
    return out


# Row offsets a run is joined to by each connectivity, over the two leading
# axes of the array labelled (runs lie along its last axis), and how far a
# run reaches past its ends along that axis to touch another.
_NEIGHBOURS = {
    4: (((0, -1),), 0),
    8: (((0, -1),), 1),
    6: (((-1, 0), (0, -1)), 0),
    26: (((-1, -1), (-1, 0), (-1, 1), (0, -1)), 1),
}


def label(mask: np.ndarray, connectivity: int) -> tuple:
    """Connected components of a boolean mask: ``(labels, n)``, like
    ``ndimage.label`` with the matching structure.

    Connectivity 4 or 8 labels a 2D mask, or each ``(x, y)`` slice of a 3D
    stack on its own (ids then run over the whole stack, slice by slice); 6
    or 26 labels a 3D mask as a volume. Components of a 2D or 3D mask are
    numbered from 1 in the C order of their first voxel.

    The mask is cut into runs along its last axis, runs that touch in
    neighbouring rows are paired through two sorted searches, and the pairs
    are merged by hooking each root onto the smallest root it meets, until
    every pair shares a root. The root of a component is then its first run.
    """
    mask = np.asarray(mask, dtype=bool)
    in_plane = connectivity in (4, 8)
    if connectivity not in _NEIGHBOURS or mask.ndim not in ((2, 3) if in_plane else (3,)):
        raise ValueError(f"connectivity {connectivity} is not valid for {mask.ndim}D masks")
    # in plane, label (slice, x, y): rows are (slice, x), joined within a slice
    runs_of = mask
    if in_plane:
        runs_of = mask[np.newaxis] if mask.ndim == 2 else mask.transpose(2, 0, 1)
    runs_of = np.ascontiguousarray(runs_of)
    n_a, n_b, width = runs_of.shape
    span = width + 1

    # row r of the padded mask holds False, row r, False; its transitions
    # lie at key r * span + column and alternate start, end
    padded = np.zeros((n_a * n_b, width + 2), dtype=bool)
    padded[:, 1:-1] = runs_of.reshape(n_a * n_b, width)
    edges = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    starts, ends = edges[0::2], edges[1::2]
    n_runs = starts.size
    row = starts // span
    a, b = np.divmod(row, max(n_b, 1))
    first, last = starts - row * span, ends - row * span

    offsets, reach = _NEIGHBOURS[connectivity]
    pair_i, pair_j = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for da, db in offsets:
        other = (row + da * n_b + db) * span
        # runs of the other row with end > first - reach and start < last + reach
        lo = np.searchsorted(ends, other + first - reach, side="right")
        hi = np.searchsorted(starts, other + last + reach, side="left")
        valid = (a + da >= 0) & (b + db >= 0) & (b + db < n_b)
        count = np.where(valid, hi - lo, 0)
        pair_i.append(np.repeat(np.arange(n_runs), count))
        pair_j.append(np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count))
    pi, pj = np.concatenate(pair_i), np.concatenate(pair_j)
    parent = np.arange(n_runs)
    while True:
        ri, rj = parent[pi], parent[pj]
        apart = ri != rj
        if not apart.any():
            break
        pi, pj, ri, rj = pi[apart], pj[apart], ri[apart], rj[apart]
        np.minimum.at(parent, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:  # point every run at its root
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    # every root is its component's smallest run, so ids follow the runs' order
    is_root = parent == np.arange(n_runs)
    ids = np.cumsum(is_root, dtype=np.int32)
    labels = np.zeros(runs_of.shape, dtype=np.int32)
    labels.ravel()[np.flatnonzero(runs_of)] = np.repeat(ids[parent], ends - starts)
    if in_plane:
        labels = labels[0] if mask.ndim == 2 else labels.transpose(1, 2, 0)
    return labels, int(is_root.sum())
