"""Segmentation evaluation measures.

Overlap scores (Dice, Jaccard), confusion-derived rates, and the exact
symmetric Hausdorff distance in physical millimeters.

The default Hausdorff evaluation visits only the points that can set each
directed distance A -> B: the voxels of A \\ B (a voxel of A ∩ B is at
distance 0), measured against the boundary of B (voxels of B with a face
neighbour outside B or outside the array). A nearest voxel of B can always
be taken on that boundary, in floating point too: from an interior b, one
step toward a along an axis where they differ stays in B, and since
``index * spacing``, subtraction, squaring, summation and ``sqrt`` are all
monotone, the step never raises the computed distance. Both sets are cut
to the union's ``(x, y)`` box, every slice and frame kept, and coordinates
are formed from the full array's integer indices, so every distance is the
float the full-mask evaluation computes. Pairs are compared by chunked
numpy brute force; when a directed distance needs more than
``BRUTE_MAX_PAIRS`` of them (a badly wrong segmentation), a KD-tree over
the boundary answers it instead; only then is ``scipy.spatial`` imported.
``method="brute"`` evaluates all voxels of both masks, the reference the
default is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .kernels import coords_mm, erode, nearest_distances, nonzero_window
from .volume import ACDC_SCHEMA, LabelVolume, check_spacing

# Above this many (A \ B, boundary of B) pairs a directed distance comes
# from a KD-tree over the boundary. At 25e6 pairs brute force (3.8-7.5 ns
# a pair, 0.09-0.19 s) costs about what importing scipy.spatial and building
# and querying the tree do in a fresh process: 0.10-0.15 s, 2-core host.
BRUTE_MAX_PAIRS = 25_000_000


class UndefinedDistanceError(ValueError):
    """Hausdorff distance is undefined when either mask is empty."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def dice(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 1.0 if denom == 0 else 2 * self.tp / denom

    @property
    def jaccard(self) -> float:
        denom = self.tp + self.fp + self.fn
        return 1.0 if denom == 0 else self.tp / denom


@dataclass(frozen=True)
class Rates:
    """Confusion-derived ratios; None marks a 0/0 (undefined) rate."""

    tpr: Optional[float]
    spc: Optional[float]
    ppv: Optional[float]
    npv: Optional[float]


def _as_bool(a) -> np.ndarray:
    return np.asarray(a).astype(bool)


def confusion(pred, gt) -> ConfusionCounts:
    """Voxel-wise confusion counts of two same-shaped binary masks."""
    p, g = _as_bool(pred), _as_bool(gt)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = p.size - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def dice(pred, gt) -> float:
    """Dice overlap 2TP / (2TP + FP + FN); two empty masks score 1.0.

    The both-empty convention is a vacuous match; batch aggregation flags
    and excludes such comparisons (see evaluate_case).
    """
    return confusion(pred, gt).dice


def jaccard(pred, gt) -> float:
    """Intersection over union; two empty masks score 1.0."""
    return confusion(pred, gt).jaccard


def rates(c: ConfusionCounts) -> Rates:
    """TPR, SPC, PPV, NPV; a zero denominator yields None."""

    def ratio(num, den):
        return num / den if den > 0 else None

    return Rates(
        tpr=ratio(c.tp, c.tp + c.fn),
        spc=ratio(c.tn, c.tn + c.fp),
        ppv=ratio(c.tp, c.tp + c.fp),
        npv=ratio(c.tn, c.tn + c.fn),
    )


def _directed_max_min(a: np.ndarray, b: np.ndarray) -> float:
    """max over a of min over b of the Euclidean distance, by brute force."""
    return float(nearest_distances(a, b).max(initial=0.0))


def _directed_to_boundary(a_only, b, spacing, offset) -> float:
    """Directed distance from the voxels of A \\ B to B, over B's boundary."""
    if not a_only.any():
        return 0.0
    # the array border counts as outside: erosion's border_value is 0
    inner = erode(b, square=False, axes=range(b.ndim))
    pa = coords_mm(a_only, spacing, offset)
    pb = coords_mm(b & ~inner, spacing, offset)
    if pa.shape[0] * pb.shape[0] > BRUTE_MAX_PAIRS:
        from scipy.spatial import cKDTree  # only here, so the usual case never imports it

        return float(cKDTree(pb).query(pa)[0].max())
    return _directed_max_min(pa, pb)


def hausdorff_mm(pred, gt, spacing, method: str = "kdtree") -> float:
    """Symmetric Hausdorff distance between two binary masks of rank >= 2, in mm.

    Coordinates are voxel indices scaled by the per-axis spacing, which
    :func:`~cardiomr.volume.check_spacing` checks. Over whole masks the
    directed distances are attained at boundary voxels, so this equals the
    contour-based value without needing a contour-extraction convention.

    The default method (``"kdtree"``, named for its fallback) measures
    A \\ B against the face boundary of B in both directions, by brute force
    up to ``BRUTE_MAX_PAIRS`` point pairs and with a KD-tree above; see the
    module docstring for why that returns the same floats as ``"brute"``,
    which compares every voxel of one mask with every voxel of the other.
    """
    p, g = _as_bool(pred), _as_bool(gt)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    scale = np.asarray(check_spacing(spacing, p.ndim))
    if not p.any() or not g.any():
        raise UndefinedDistanceError("Hausdorff distance needs two non-empty masks")
    if method not in ("kdtree", "brute"):
        raise ValueError(f"unknown method {method!r}")

    if method == "brute":
        pa, ga = coords_mm(p, scale), coords_mm(g, scale)
        return max(_directed_max_min(pa, ga), _directed_max_min(ga, pa))
    wx, wy = nonzero_window(p | g, 0)
    offset = np.array([wx.start, wy.start] + [0] * (p.ndim - 2))
    p, g = p[wx, wy], g[wx, wy]
    return max(_directed_to_boundary(p & ~g, g, scale, offset),
               _directed_to_boundary(g & ~p, p, scale, offset))


@dataclass
class ClassMetrics:
    dice: float
    jaccard: float
    tpr: Optional[float]
    spc: Optional[float]
    ppv: Optional[float]
    npv: Optional[float]
    hd_mm: Optional[float]   # None when either mask is empty
    vacuous: bool            # both masks empty: overlap scores are 1.0 by convention

    def as_dict(self) -> dict:
        return {
            "dice": self.dice, "jaccard": self.jaccard, "tpr": self.tpr,
            "spc": self.spc, "ppv": self.ppv, "npv": self.npv,
            "hd_mm": self.hd_mm, "vacuous": self.vacuous,
        }


def evaluate_case(pred: LabelVolume, gt: LabelVolume) -> Dict[str, ClassMetrics]:
    """Per-class metric table of one prediction against its ground truth.

    An empty class on either side leaves the Hausdorff entry as None
    (a missing marker) rather than failing the whole case.
    """
    if pred.dims != gt.dims:
        raise ValueError(f"dimension mismatch: {pred.dims} vs {gt.dims}")
    if pred.spacing != gt.spacing:
        raise ValueError(f"spacing mismatch: {pred.spacing} vs {gt.spacing}")
    out: Dict[str, ClassMetrics] = {}
    for cls in ACDC_SCHEMA.foreground_ids:
        p = pred.class_mask(cls)
        g = gt.class_mask(cls)
        c = confusion(p, g)
        r = rates(c)
        try:
            hd = hausdorff_mm(p, g, pred.spacing[: p.ndim])
        except UndefinedDistanceError:
            hd = None
        out[ACDC_SCHEMA.name_of(cls)] = ClassMetrics(
            dice=c.dice, jaccard=c.jaccard,
            tpr=r.tpr, spc=r.spc, ppv=r.ppv, npv=r.npv,
            hd_mm=hd, vacuous=c.tp + c.fp + c.fn == 0,
        )
    return out


def aggregate_cases(cases) -> Dict[str, Dict[str, dict]]:
    """Mean and population std per class over a batch of evaluate_case maps.

    None entries and vacuous overlap scores are excluded from aggregation.
    """
    per_class: Dict[str, Dict[str, list]] = {}
    for case in cases:
        for cls_name, m in case.items():
            store = per_class.setdefault(cls_name, {})
            for key, value in m.as_dict().items():
                if key == "vacuous":
                    continue
                if value is None:
                    continue
                if m.vacuous and key in ("dice", "jaccard"):
                    continue
                store.setdefault(key, []).append(value)
    summary: Dict[str, Dict[str, dict]] = {}
    for cls_name, metrics in per_class.items():
        summary[cls_name] = {
            key: {"mean": float(np.mean(vals)), "std": float(np.std(vals)), "n": len(vals)}
            for key, vals in metrics.items()
        }
    return summary
