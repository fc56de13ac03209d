"""Label cleanup: connected components, largest-component filtering and
hole filling.

The multi-class entry point runs, per foreground class, a 3D largest
component pass (26-connectivity) over the volume, a slice-wise 2D largest
component pass (8-connectivity) over the whole stack at once, and finally
class-aware hole filling so cavities enclosed by the myocardium come back
as blood pool rather than background.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .kernels import label, nonzero_window
from .volume import LabelVolume, present_ids


@dataclass
class ComponentLabeling:
    labels: np.ndarray              # int32, 0 = background
    sizes: List[Tuple[int, int]]    # (component id, voxel count), id order

    @property
    def n_components(self) -> int:
        return len(self.sizes)


def connected_components(mask: np.ndarray, connectivity: int) -> ComponentLabeling:
    """Label connected components; ids follow raster order of first voxel.

    Valid connectivities: 4/8 for a 2D mask or each slice of an
    ``(nx, ny, nz)`` stack (ids then run slice by slice), 6/26 for a 3D mask.
    """
    mask = np.asarray(mask).astype(bool)
    labels, n = label(mask, connectivity)
    counts = np.bincount(labels.ravel(), minlength=n + 1)
    return ComponentLabeling(labels=labels, sizes=[(i, int(counts[i])) for i in range(1, n + 1)])


def keep_largest(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Keep only the largest component; ties keep the earliest raster one.

    At 6/26 that is the largest of a 3D mask; at 4/8 the largest of a 2D
    mask, or of each slice of an ``(nx, ny, nz)`` stack. Components are
    numbered in the C order of their first voxel, slice by slice in a
    stack, so the first id of the largest size in a slice is the earliest.
    """
    mask = np.asarray(mask).astype(bool)
    out = np.zeros(mask.shape, dtype=bool)
    # every component lies in the bounding box, and translation keeps the
    # C order of first voxels
    win = nonzero_window(mask, 0)
    labels, n = label(mask[win], connectivity)
    if n == 0:
        return out
    ids = np.arange(1, n + 1)
    sizes = np.bincount(labels.ravel(), minlength=n + 1)[1:]
    group = np.zeros(n, dtype=np.intp)  # the slice of each component, in a stack
    if mask.ndim == 3 and connectivity in (4, 8):
        group = np.searchsorted(np.maximum.accumulate(labels.max(axis=(0, 1))), ids)
    # by slice, then size descending, then id: each slice keeps its first
    order = np.lexsort((ids, -sizes, group))
    first = order[np.diff(group[order], prepend=-1) != 0]
    keep = np.zeros(n + 1, dtype=bool)
    keep[ids[first]] = True
    out[win] = keep[labels]
    return out


def _holes(background: np.ndarray) -> tuple:
    """4-connected components of the background of each slice and which are holes.

    ``background`` is a 2D slice or an ``(nx, ny, nz)`` stack. Returns
    ``(labels, enclosed)``: ``enclosed[i]`` is True when component ``i``
    does not touch its slice's border (``enclosed[0]``, the foreground, is
    False).
    """
    labels, n = label(background, 4)
    enclosed = np.arange(n + 1) > 0
    if n:
        for edge in (labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]):
            enclosed[edge] = False
    return labels, enclosed


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill background regions not 4-connected to the slice border, in a 2D
    mask or in each slice of an ``(nx, ny, nz)`` stack."""
    mask = np.asarray(mask).astype(bool)
    if mask.ndim not in (2, 3):
        raise ValueError("fill_holes expects a 2D mask or a stack of them")
    labels, enclosed = _holes(~mask)
    return mask | enclosed[labels]


def _fill_holes_class_aware(lbl: np.ndarray, priority) -> np.ndarray:
    """Assign enclosed background regions the highest-priority adjacent class.

    ``lbl`` is a 2D slice or an ``(nx, ny, nz)`` stack filled slice by slice.
    A hole's ring (its 4-neighbours outside it) holds no background, since
    a background neighbour would belong to the same region; so each hole
    takes the first class of ``priority`` among the labels 4-adjacent to it,
    all holes at once. Holes cannot interact: a ring voxel of one hole lying
    in another would make the two 4-adjacent.

    The work runs on the non-zero box of all slices grown by one pixel. Each
    border row or column of that window is either the slice border or all
    background and joined to the slice border outside the box, so a
    background region is enclosed in the window exactly when it is enclosed
    in the slice, and every hole's ring lies inside the window.
    """
    out = lbl.copy(order="K")  # in the caller's layout, as a volume's file order
    if not out.any():
        return out
    win = out[nonzero_window(out, 1)]  # a view: filling it fills ``out``
    holes, enclosed = _holes(win == 0)
    if not enclosed.any():
        return out
    hole_ids, neighbours = [], []
    # each voxel against its 4-neighbour above, below, left and right
    for ids, beside in ((holes[1:], win[:-1]), (holes[:-1], win[1:]),
                        (holes[:, 1:], win[:, :-1]), (holes[:, :-1], win[:, 1:])):
        in_hole = enclosed[ids]
        hole_ids.append(ids[in_hole])
        neighbours.append(beside[in_hole])
    hole_ids, neighbours = np.concatenate(hole_ids), np.concatenate(neighbours)
    fill = np.zeros(enclosed.size, dtype=out.dtype)
    for cls in reversed(list(priority)):  # the first class of priority writes last
        fill[hole_ids[neighbours == cls]] = cls
    filled = fill[holes]
    win[filled > 0] = filled[filled > 0]
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

    ordered = [int(v) for v in present_ids(data) if v > 0][::-1]

    # The slice-wise pass can disconnect the surviving 3D component, so the
    # two passes repeat until stable; removals are monotone, so this
    # terminates and makes the whole operation idempotent. One pass alone
    # is stable after one round, and so are both once the 2D pass drops
    # nothing: every class is then the single component the 3D pass left.
    passes = [c for c, skip in ((26, skip_3d), (8, skip_2d)) if not skip]
    repeat = bool(passes)
    while repeat:
        repeat = False
        for connectivity in passes:
            for cls in ordered:
                mask = data == cls
                drop = mask & ~keep_largest(mask, connectivity)
                if drop.any():
                    data[drop] = 0
                    repeat |= connectivity == 8 and not skip_3d

    if not skip_fill:
        data = _fill_holes_class_aware(data, ordered)

    if squeeze_2d:
        data = data[:, :, 0]
    if is_volume:
        return LabelVolume(data=data, spacing=lbl.spacing)
    return data
