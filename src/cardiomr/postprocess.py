"""Label cleanup: connected components, largest-component filtering and
hole filling.

The multi-class entry point runs, per foreground class, a 3D largest
component pass (26-connectivity), a slice-wise 2D largest component pass
(8-connectivity), and finally class-aware hole filling so cavities enclosed
by the myocardium come back as blood pool rather than background.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import ndimage

from .roi import nonzero_window
from .volume import LabelVolume

_STRUCTURES = {
    (2, 4): ndimage.generate_binary_structure(2, 1),
    (2, 8): ndimage.generate_binary_structure(2, 2),
    (3, 6): ndimage.generate_binary_structure(3, 1),
    (3, 26): ndimage.generate_binary_structure(3, 3),
}


@dataclass
class ComponentLabeling:
    labels: np.ndarray              # int32, 0 = background
    sizes: List[Tuple[int, int]]    # (component id, voxel count), id order

    @property
    def n_components(self) -> int:
        return len(self.sizes)


def _structure(ndim: int, connectivity: int) -> np.ndarray:
    try:
        return _STRUCTURES[(ndim, connectivity)]
    except KeyError:
        raise ValueError(
            f"connectivity {connectivity} is not valid for {ndim}D masks"
        ) from None


def connected_components(mask: np.ndarray, connectivity: int) -> ComponentLabeling:
    """Label connected components; ids follow raster order of first voxel.

    Valid connectivities: 4/8 for 2D masks, 6/26 for 3D.
    """
    mask = np.asarray(mask).astype(bool)
    raw, n = ndimage.label(mask, structure=_structure(mask.ndim, connectivity))
    if n == 0:
        return ComponentLabeling(labels=raw.astype(np.int32), sizes=[])
    # Renumber so component ids are ordered by first raster occurrence,
    # independent of how the labeling engine assigned them.
    flat = raw.ravel()
    first = np.full(n + 1, flat.size, dtype=np.int64)
    nz = np.flatnonzero(flat)
    # reversed so earlier indices overwrite later ones
    first[flat[nz[::-1]]] = nz[::-1]
    order = np.argsort(first[1:], kind="stable")
    remap = np.zeros(n + 1, dtype=np.int32)
    remap[order + 1] = np.arange(1, n + 1)
    labels = remap[raw]
    counts = np.bincount(labels.ravel(), minlength=n + 1)
    sizes = [(i, int(counts[i])) for i in range(1, n + 1)]
    return ComponentLabeling(labels=labels, sizes=sizes)


def keep_largest(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Keep only the largest component; ties keep the earliest raster one.

    Components are counted as labeled, without renumbering; only a tie for
    largest looks for the id whose first voxel comes first in C order.
    """
    mask = np.asarray(mask).astype(bool)
    structure = _structure(mask.ndim, connectivity)
    out = np.zeros(mask.shape, dtype=bool)
    # every component lies in the bounding box, and translation keeps the
    # C order of first voxels
    win = nonzero_window(mask, 0)
    raw, n = ndimage.label(mask[win], structure=structure)
    if n == 0:
        return out
    sizes = np.bincount(raw.ravel(order="K"), minlength=n + 1)[1:]
    tied = np.flatnonzero(sizes == sizes.max()) + 1
    best_id = tied[0]
    if tied.size > 1:
        flat = raw.ravel()
        best_id = flat[np.argmax(np.isin(flat, tied))]
    out[win] = raw == best_id
    return out


def _holes(background: np.ndarray) -> tuple:
    """4-connected components of a 2D background mask and which are holes.

    Returns ``(labels, enclosed)``: ``enclosed[i]`` is True when component
    ``i`` does not touch the slice border (``enclosed[0]``, the foreground,
    is False).
    """
    labels, n = ndimage.label(background, structure=_STRUCTURES[(2, 4)])
    enclosed = np.arange(n + 1) > 0
    if n:
        for edge in (labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]):
            enclosed[edge] = False
    return labels, enclosed


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill 2D background regions not 4-connected to the slice border."""
    mask = np.asarray(mask).astype(bool)
    if mask.ndim != 2:
        raise ValueError("fill_holes expects a 2D mask")
    labels, enclosed = _holes(~mask)
    return mask | enclosed[labels]


def _fill_holes_class_aware(lbl: np.ndarray, priority) -> np.ndarray:
    """Assign enclosed background regions the highest-priority adjacent class.

    Holes are filled one by one; the order cannot matter, because a ring
    voxel of one hole lying in another would make the two 4-adjacent.

    The work runs on the non-zero box grown by one pixel. Each border row
    or column of that window is either the slice border or all background
    and joined to the slice border outside the box, so a background region
    is enclosed in the window exactly when it is enclosed in the slice, and
    every hole's ring lies inside the window.
    """
    out = lbl.copy()
    if not out.any():
        return out
    win = out[nonzero_window(out, 1)]  # a view: filling it fills ``out``
    labels, enclosed = _holes(win == 0)
    for hole_id in np.flatnonzero(enclosed):
        hole = labels == hole_id
        ring = ndimage.binary_dilation(hole, structure=_STRUCTURES[(2, 4)]) & ~hole
        adjacent = set(int(v) for v in np.unique(win[ring]) if v > 0)
        for cls in priority:
            if cls in adjacent:
                win[hole] = cls
                break
    return out


def postprocess_labels(
    lbl,
    *,
    skip_3d: bool = False,
    skip_2d: bool = False,
    skip_fill: bool = False,
):
    """Clean a multi-class label volume.

    Accepts a LabelVolume or a plain 2D/3D integer array and returns the
    same kind. The foreground classes present are processed in descending
    id order, which for ACDC ids is LV, then MYO, then RV; hole filling
    assigns each enclosed background region the highest-priority adjacent
    class, so a cavity enclosed by MYO that touches LV becomes LV.
    """
    is_volume = isinstance(lbl, LabelVolume)
    data = np.array(lbl.data if is_volume else lbl)

    squeeze_2d = data.ndim == 2
    if squeeze_2d:
        data = data[:, :, np.newaxis]
    if data.ndim != 3:
        raise ValueError("postprocess_labels expects 2D or 3D labels")

    ordered = [int(v) for v in np.unique(data) if v > 0][::-1]

    # The slice-wise pass can disconnect the surviving 3D component, so the
    # two passes repeat until stable; removals are monotone, so this
    # terminates and makes the whole operation idempotent. One pass alone
    # is stable after one round, and so are both once the 2D pass drops
    # nothing: every class is then the single component the 3D pass left.
    repeat = not (skip_3d and skip_2d)
    while repeat:
        repeat = False
        if not skip_3d:
            for cls in ordered:
                mask = data == cls
                if not mask.any():
                    continue
                drop = mask & ~keep_largest(mask, 26)
                if drop.any():
                    data[drop] = 0
        if not skip_2d:
            for z in range(data.shape[2]):
                for cls in ordered:
                    mask = data[:, :, z] == cls
                    if not mask.any():
                        continue
                    drop = mask & ~keep_largest(mask, 8)
                    if drop.any():
                        data[:, :, z][drop] = 0
                        repeat = not skip_3d

    if not skip_fill:
        for z in range(data.shape[2]):
            data[:, :, z] = _fill_holes_class_aware(data[:, :, z], ordered)

    if squeeze_2d:
        data = data[:, :, 0]
    if is_volume:
        return LabelVolume(data=data, spacing=lbl.spacing)
    return data
