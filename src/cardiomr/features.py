"""Cardiac feature extraction from ED/ES label volumes.

Twenty features per patient: chamber volumes, myocardial mass, ejection
fractions, volume/mass ratios, and eight myocardial wall thickness (MWT)
profile statistics. Wall thickness per short-axis slice is the set of
shortest physical distances from the interior (endocardial) contour to
the exterior (epicardial) contour, each the rim of its region: wall
thickness runs from rim to rim.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional

import numpy as np

from .kernels import coords_mm, erode, nearest_distances, nonzero_window
from .postprocess import fill_holes
from .volume import ACDC_SCHEMA, LabelVolume

MYOCARDIUM_DENSITY_G_PER_ML = 1.05  # standard clinical constant


@dataclass(frozen=True)
class PhaseLabels:
    """End-diastole and end-systole segmentations of one patient."""

    ed: LabelVolume
    es: LabelVolume

    def __post_init__(self):
        if self.ed.dims != self.es.dims:
            raise ValueError(f"ED dims {self.ed.dims} != ES dims {self.es.dims}")
        if self.ed.spacing != self.es.spacing:
            raise ValueError("ED and ES spacing differ")


@dataclass
class MwtSlice:
    z: int
    thickness_mm: np.ndarray  # one value per interior-contour pixel

    @property
    def mean(self) -> float:
        return float(self.thickness_mm.mean())

    @property
    def std(self) -> float:
        return float(self.thickness_mm.std())


@dataclass
class MWTResult:
    slices: List[MwtSlice]
    excluded: List[tuple]  # (z, reason)

    @property
    def slice_means(self) -> np.ndarray:
        return np.array([s.mean for s in self.slices])

    @property
    def slice_stds(self) -> np.ndarray:
        return np.array([s.std for s in self.slices])


@dataclass(frozen=True)
class FeatureRecord:
    lv_volume_ed_ml: Optional[float] = None
    lv_volume_es_ml: Optional[float] = None
    rv_volume_ed_ml: Optional[float] = None
    rv_volume_es_ml: Optional[float] = None
    myo_mass_ed_g: Optional[float] = None
    myo_volume_es_ml: Optional[float] = None
    lv_ejection_fraction: Optional[float] = None
    rv_ejection_fraction: Optional[float] = None
    lv_rv_volume_ratio_ed: Optional[float] = None
    lv_rv_volume_ratio_es: Optional[float] = None
    myo_lv_volume_ratio_es: Optional[float] = None
    myo_mass_lv_volume_ratio_ed: Optional[float] = None
    mwt_max_of_means_ed_mm: Optional[float] = None
    mwt_std_of_means_ed_mm: Optional[float] = None
    mwt_mean_of_stds_ed_mm: Optional[float] = None
    mwt_std_of_stds_ed_mm: Optional[float] = None
    mwt_max_of_means_es_mm: Optional[float] = None
    mwt_std_of_means_es_mm: Optional[float] = None
    mwt_mean_of_stds_es_mm: Optional[float] = None
    mwt_std_of_stds_es_mm: Optional[float] = None

    def to_vector(self) -> np.ndarray:
        """Feature values in fixed order; missing entries become NaN."""
        return np.array(
            [np.nan if v is None else float(v) for v in
             (getattr(self, name) for name in FEATURE_NAMES)],
            dtype=np.float64,
        )

    @classmethod
    def from_vector(cls, vec) -> "FeatureRecord":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (len(FEATURE_NAMES),):
            raise ValueError(f"expected {len(FEATURE_NAMES)} features, got {vec.shape}")
        return cls(**{
            name: (None if np.isnan(v) else float(v))
            for name, v in zip(FEATURE_NAMES, vec)
        })


# The 20 features in fixed record and CSV order: the fields above.
FEATURE_NAMES = tuple(f.name for f in fields(FeatureRecord))

# The ES wall-thickness statistics drive the MINF/DCM expert classifier.
ES_MWT_FEATURES = FEATURE_NAMES[16:20]


def class_volume_ml(lbl: LabelVolume, class_id: int) -> float:
    """Class volume in mL: voxel count times voxel volume (mm^3) / 1000."""
    sx, sy, sz = lbl.spacing[:3]
    count = int(np.count_nonzero(lbl.data == class_id))
    return count * (sx * sy * sz) / 1000.0


def myo_mass_g(lbl_ed: LabelVolume, density: float = MYOCARDIUM_DENSITY_G_PER_ML) -> float:
    """Myocardial mass in grams from the ED segmentation."""
    if not 0 < density < np.inf:
        raise ValueError(f"density must be positive and finite, got {density!r}")
    return class_volume_ml(lbl_ed, ACDC_SCHEMA.id_of("MYO")) * density


def ejection_fraction(edv: float, esv: float) -> Optional[float]:
    """(EDV - ESV) / EDV; None when the ED volume is zero."""
    if edv <= 0:
        return None
    return (edv - esv) / edv


def region_contour(mask: np.ndarray) -> np.ndarray:
    """One-pixel-wide contour of a filled binary region: its rim.

    ``mask`` is a 2D slice or an ``(nx, ny, nz)`` stack of them. The rim is
    the region minus its 3x3 erosion: every pixel with a background (or
    off-slice) pixel among its eight in-plane neighbours. It has no gaps,
    and a non-empty region has one: its first pixel in C order has no
    region pixel just before it. Wall thickness runs from rim to rim.
    """
    mask = np.asarray(mask).astype(bool)
    return mask & ~erode(mask, square=True)


def mwt_per_slice(lbl_slice: np.ndarray, spacing):
    """Wall thickness set of one short-axis slice, or None without a cavity.

    Epicardial region = hole-filled MYO mask; cavity = filled minus MYO;
    thickness of each cavity-rim pixel is its shortest physical distance
    to the epicardial region's rim. An ``(nx, ny, nz)`` stack gives the
    list of every slice's result, with each ``MwtSlice.z`` set; the holes
    and rims of all slices are found in one pass.
    """
    lbl = np.asarray(lbl_slice)
    stack = lbl if lbl.ndim == 3 else lbl[:, :, np.newaxis]
    results: List[Optional[MwtSlice]] = [None] * stack.shape[2]
    myo = stack == ACDC_SCHEMA.id_of("MYO")
    # every region lies in MYO's box over all slices; grown by one pixel,
    # each window border row or column is the slice border or background
    # joined to it outside the box, so every rim and hole is as on the slice
    wx, wy = nonzero_window(myo, 1)
    myo = myo[wx, wy]
    epi_region = fill_holes(myo)
    cavity = epi_region & ~myo
    exterior = region_contour(epi_region)
    interior = region_contour(cavity)
    # whole-slice indices before scaling: the same integers times the same
    # spacing as without the crop
    offset = np.array([wx.start, wy.start])
    scale = np.asarray(spacing[:2], dtype=np.float64)
    for z in np.flatnonzero(cavity.any(axis=(0, 1))):
        results[z] = MwtSlice(z=int(z) if lbl.ndim == 3 else -1, thickness_mm=nearest_distances(
            coords_mm(interior[:, :, z], scale, offset),
            coords_mm(exterior[:, :, z], scale, offset)))
    return results if lbl.ndim == 3 else results[0]


def mwt_result(lbl: LabelVolume) -> MWTResult:
    """Per-slice wall thickness over a 3D label volume."""
    if lbl.data.ndim != 3:
        raise ValueError("mwt_result expects a 3D label volume")
    has_myo = (lbl.data == ACDC_SCHEMA.id_of("MYO")).any(axis=(0, 1))
    slices: List[MwtSlice] = []
    excluded: List[tuple] = []
    for z, entry in enumerate(mwt_per_slice(lbl.data, lbl.spacing[:2])):
        if entry is not None:
            slices.append(entry)
        else:
            excluded.append((z, "no cavity" if has_myo[z] else "no myocardium"))
    return MWTResult(slices=slices, excluded=excluded)


def mwt_profile_features(result: MWTResult):
    """(max of slice means, std of slice means, mean of slice stds,
    std of slice stds); population std, zero for a single slice;
    all None when no slice is valid."""
    if not result.slices:
        return (None, None, None, None)
    means = result.slice_means
    stds = result.slice_stds
    return (
        float(means.max()),
        float(means.std()),
        float(stds.mean()),
        float(stds.std()),
    )


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den > 0 else None


def extract_features(phases: PhaseLabels, density: float = MYOCARDIUM_DENSITY_G_PER_ML) -> FeatureRecord:
    """Compute the full 20-feature record of one patient.

    Ratios with zero denominators and wall statistics without valid
    slices stay None (missing markers); everything else is computed.
    """
    ed, es = phases.ed, phases.es
    lv, rv = ACDC_SCHEMA.id_of("LV"), ACDC_SCHEMA.id_of("RV")

    lv_ed = class_volume_ml(ed, lv)
    lv_es = class_volume_ml(es, lv)
    rv_ed = class_volume_ml(ed, rv)
    rv_es = class_volume_ml(es, rv)
    myo_es = class_volume_ml(es, ACDC_SCHEMA.id_of("MYO"))
    mass_ed = myo_mass_g(ed, density)

    ed_mwt = mwt_profile_features(mwt_result(ed))
    es_mwt = mwt_profile_features(mwt_result(es))

    return FeatureRecord(
        lv_volume_ed_ml=lv_ed,
        lv_volume_es_ml=lv_es,
        rv_volume_ed_ml=rv_ed,
        rv_volume_es_ml=rv_es,
        myo_mass_ed_g=mass_ed,
        myo_volume_es_ml=myo_es,
        lv_ejection_fraction=ejection_fraction(lv_ed, lv_es),
        rv_ejection_fraction=ejection_fraction(rv_ed, rv_es),
        lv_rv_volume_ratio_ed=_ratio(lv_ed, rv_ed),
        lv_rv_volume_ratio_es=_ratio(lv_es, rv_es),
        myo_lv_volume_ratio_es=_ratio(myo_es, lv_es),
        myo_mass_lv_volume_ratio_ed=_ratio(mass_ed, lv_ed),
        mwt_max_of_means_ed_mm=ed_mwt[0],
        mwt_std_of_means_ed_mm=ed_mwt[1],
        mwt_mean_of_stds_ed_mm=ed_mwt[2],
        mwt_std_of_stds_ed_mm=ed_mwt[3],
        mwt_max_of_means_es_mm=es_mwt[0],
        mwt_std_of_means_es_mm=es_mwt[1],
        mwt_mean_of_stds_es_mm=es_mwt[2],
        mwt_std_of_stds_es_mm=es_mwt[3],
    )
