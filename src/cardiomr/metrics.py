"""Segmentation evaluation measures.

Overlap scores (Dice, Jaccard), confusion-derived rates, and the exact
symmetric Hausdorff distance in physical millimeters. The Hausdorff
default is a KD-tree query; ``method="brute"`` forces the plain
max-of-min-distances evaluation the tree variant is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .volume import LabelVolume


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


def _coords_mm(mask: np.ndarray, spacing) -> np.ndarray:
    pts = np.argwhere(mask).astype(np.float64)
    return pts * np.asarray(spacing, dtype=np.float64)


def _directed_max_min(a: np.ndarray, b: np.ndarray) -> float:
    """max over a of min over b of the Euclidean distance, by brute force."""
    worst = 0.0
    # chunked so the pairwise matrix stays small
    step = max(1, int(4e6) // max(1, b.shape[0]))
    for i in range(0, a.shape[0], step):
        chunk = a[i:i + step]
        d2 = ((chunk[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
    return worst


def hausdorff_mm(pred, gt, spacing, method: str = "kdtree") -> float:
    """Symmetric Hausdorff distance between two binary masks, in mm.

    Coordinates are voxel indices scaled by the per-axis spacing. The
    computation runs over full masks; for binary masks the directed
    distances are attained at boundary voxels, so this equals the
    contour-based value without needing a contour-extraction convention.
    """
    p, g = _as_bool(pred), _as_bool(gt)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    if len(spacing) != p.ndim:
        raise ValueError(f"spacing needs {p.ndim} components, got {len(spacing)}")
    if not p.any() or not g.any():
        raise UndefinedDistanceError("Hausdorff distance needs two non-empty masks")
    if method not in ("kdtree", "brute"):
        raise ValueError(f"unknown method {method!r}")

    pa, ga = _coords_mm(p, spacing), _coords_mm(g, spacing)
    if method == "brute":
        return max(_directed_max_min(pa, ga), _directed_max_min(ga, pa))
    from scipy.spatial import cKDTree  # here, so importing the CLI skips scipy.spatial

    d_pg = cKDTree(ga).query(pa)[0].max()
    d_gp = cKDTree(pa).query(ga)[0].max()
    return float(max(d_pg, d_gp))


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
    if pred.schema.entries != gt.schema.entries:
        raise ValueError("prediction and ground truth schemas differ")
    if pred.dims != gt.dims:
        raise ValueError(f"dimension mismatch: {pred.dims} vs {gt.dims}")
    if pred.spacing != gt.spacing:
        raise ValueError(f"spacing mismatch: {pred.spacing} vs {gt.spacing}")
    out: Dict[str, ClassMetrics] = {}
    for cls in pred.schema.foreground_ids:
        p = pred.class_mask(cls)
        g = gt.class_mask(cls)
        c = confusion(p, g)
        r = rates(c)
        try:
            hd = hausdorff_mm(p, g, pred.spacing[: p.ndim])
        except UndefinedDistanceError:
            hd = None
        out[pred.schema.name_of(cls)] = ClassMetrics(
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
