"""Seeded benchmark inputs built from ``cardiomr.phantoms``.

Every generator is a pure function of its seed, so two runs with the same
seed see byte-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cardiomr.features as features
from cardiomr.diagnosis import Dataset, save_model, train_ensemble
from cardiomr.phantoms import disease_cohort, disease_cohort_case, disk_mask, pulsating_disk_cine
from cardiomr.volume import ACDC_SCHEMA, LabelVolume, ScalarVolume, crop_patch, save_volume

ACDC_SHAPE = (224, 224)
ACDC_SLICES = 10
ACDC_FRAMES = 30
CINE_SPACING = (1.4, 1.4, 8.0, 1.0)
PATCH = 128
N_CLASSES = 4


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


@dataclass(frozen=True)
class AcdcCase:
    """File paths of one pipeline case plus the LV centre the cine was drawn at."""

    case_id: str
    center: tuple
    cine: Path
    seg_ed: Path
    seg_es: Path
    gt_ed: Path
    gt_es: Path

    def pipeline_kwargs(self, model: Path) -> dict:
        return dict(
            seg_ed=self.seg_ed, seg_es=self.seg_es, gt_ed=self.gt_ed,
            gt_es=self.gt_es, model_path=model,
        )

    def cli_args(self, model: Path) -> list:
        return ["--input", str(self.cine), "--seg-ed", str(self.seg_ed),
                "--seg-es", str(self.seg_es), "--gt-ed", str(self.gt_ed),
                "--gt-es", str(self.gt_es), "--model", str(model)]


def cine_volume(rng, shape=ACDC_SHAPE, n_slices=ACDC_SLICES, n_frames=ACDC_FRAMES):
    """Stack of pulsating-disk slices sharing one LV centre; returns (volume, centre)."""
    margin = PATCH // 2 - 16  # the ROI patch stays mostly inside the slice
    center = (int(rng.integers(margin, shape[0] - margin)),
              int(rng.integers(margin, shape[1] - margin)))
    r_lo = float(rng.uniform(10.0, 13.0))
    r_amp = float(rng.uniform(3.0, 5.0))
    slices = []
    for z in range(n_slices):
        taper = 1.0 - 0.3 * z / max(n_slices - 1, 1)  # base-to-apex narrowing
        cine = pulsating_disk_cine(
            shape=shape, center=center,
            radius_range=(r_lo * taper, (r_lo + r_amp) * taper),
            n_frames=n_frames, seed=_seed(rng),
        )
        slices.append(cine.data.astype(np.float32))
    data = np.concatenate(slices, axis=2)
    return ScalarVolume(data=data, spacing=CINE_SPACING), center


def corrupt_labels(lbl: LabelVolume, rng, n_islands=6, n_holes=4) -> LabelVolume:
    """Seeded segmentation errors that post-processing must undo.

    Islands are small foreground disks in the background well away from
    the heart; holes are background disks inside the LV cavity.
    """
    data = np.array(lbl.data)
    nx, ny, nz = data.shape
    lv = ACDC_SCHEMA.id_of("LV")
    heart = np.argwhere(data > 0)
    hx, hy = heart[:, 0].mean(), heart[:, 1].mean()
    placed = 0
    for _ in range(1000 * n_islands):
        if placed == n_islands:
            break
        x, y = int(rng.integers(8, nx - 8)), int(rng.integers(8, ny - 8))
        if np.hypot(x - hx, y - hy) < 0.27 * nx:
            continue
        z = int(rng.integers(0, nz))
        data[:, :, z][disk_mask((nx, ny), (x, y), float(rng.uniform(1.5, 3.0)))] = \
            int(rng.integers(1, N_CLASSES))
        placed += 1
    for _ in range(n_holes):
        z = int(rng.integers(0, nz))
        cavity = np.argwhere(data[:, :, z] == lv)
        cx, cy = cavity.mean(axis=0)
        x = int(round(cx + rng.uniform(-3, 3)))
        y = int(round(cy + rng.uniform(-3, 3)))
        data[:, :, z][disk_mask((nx, ny), (x, y), float(rng.uniform(1.0, 2.0)))] = 0
    return LabelVolume(data=data, spacing=lbl.spacing)


def write_acdc_case(rng, out_dir: Path, case_id: str, kind: str, shape=ACDC_SHAPE,
                    n_slices=ACDC_SLICES, n_frames=ACDC_FRAMES) -> AcdcCase:
    """Write the cine, noisy ED/ES segmentations and clean ground truth."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cine, center = cine_volume(rng, shape, n_slices, n_frames)
    ed, es = disease_cohort_case(_seed(rng), kind, shape=shape)
    case = AcdcCase(
        case_id=case_id, center=center, cine=out_dir / "cine.vol",
        seg_ed=out_dir / "seg_ed.vol", seg_es=out_dir / "seg_es.vol",
        gt_ed=out_dir / "gt_ed.vol", gt_es=out_dir / "gt_es.vol",
    )
    save_volume(cine, case.cine)
    save_volume(corrupt_labels(ed, rng), case.seg_ed)
    save_volume(corrupt_labels(es, rng), case.seg_es)
    save_volume(ed, case.gt_ed)
    save_volume(es, case.gt_es)
    return case


def features_of(case):
    """Feature record of one (ed, es, kind) cohort case."""
    ed, es, _ = case
    return features.extract_features(features.PhaseLabels(ed=ed, es=es))


def train_model(seed: int, path: Path, n_cases: int) -> Path:
    """Train and save a two-stage ensemble on a balanced 96x96 cohort."""
    cohort = disease_cohort(n_cases, seed=seed)
    ds = Dataset.from_records([features_of(c) for c in cohort], [kind for *_, kind in cohort])
    save_model(train_ensemble(ds, seed=seed), path)
    return path


def write_acdc_cases(rng, work: Path, n_cases: int, **size):
    """Distinct pipeline cases, alternating MINF-like and DCM-like labels."""
    return [
        write_acdc_case(rng, work / f"case{i}", f"case{i}", ("MINF", "DCM")[i % 2], **size)
        for i in range(n_cases)
    ]


def write_acdc_inputs(seed: int, work: Path, n_cases: int, n_model_cases: int, **size):
    """Distinct pipeline cases plus the model they are classified with."""
    rng = np.random.default_rng(seed)
    cases = write_acdc_cases(rng, work, n_cases, **size)
    model = train_model(_seed(rng), work / "model.pkl", n_model_cases)
    return cases, model


@dataclass(frozen=True)
class TrainSlice:
    """One 128x128 training sample: image, labels and network logits."""

    image: np.ndarray
    labels: np.ndarray
    logits: np.ndarray
    spacing: tuple
    augment_seed: int


def seeded_logits(rng, labels: np.ndarray, saturated_frac=0.01) -> np.ndarray:
    """Noisy logits near the labels, with a few confidently wrong voxels.

    The confidently wrong voxels drive the target probability below the
    cross-entropy floor, so the clamp path is exercised.
    """
    z = rng.normal(0.0, 2.0, size=(N_CLASSES,) + labels.shape)
    np.put_along_axis(z, labels[np.newaxis].astype(np.intp), 2.0, axis=0)
    wrong = rng.random(labels.shape) < saturated_frac
    wrong_cls = (labels + rng.integers(1, N_CLASSES, size=labels.shape)) % N_CLASSES
    xs, ys = np.nonzero(wrong)
    z[wrong_cls[xs, ys], xs, ys] = 40.0
    return z


def train_slices(seed: int, n_cases: int, per_phase=4, shape=ACDC_SHAPE):
    """ROI patches cropped around the LV of ACDC-sized cine and label slices.

    Each case gives its first ``per_phase`` ED and ES slices (every cohort
    case has at least six), so the amount of data does not depend on the seed.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_cases):
        ed, es = disease_cohort_case(_seed(rng), ("MINF", "DCM")[i % 2], shape=shape)
        lv = np.argwhere(ed.data == ACDC_SCHEMA.id_of("LV"))
        center = tuple(int(round(c)) for c in lv[:, :2].mean(axis=0))
        cine = pulsating_disk_cine(
            shape=shape, center=center, radius_range=(12.0, 16.0),
            n_frames=ACDC_FRAMES, seed=_seed(rng),
        )
        frames = crop_patch(cine, center, (PATCH, PATCH)).data[:, :, 0, :]
        for phase in (ed, es):
            lbl = crop_patch(phase, center, (PATCH, PATCH)).data
            for z in range(per_phase):
                labels = lbl[:, :, z]
                out.append(TrainSlice(
                    image=frames[:, :, 3 * z],
                    labels=labels,
                    logits=seeded_logits(rng, labels),
                    spacing=phase.spacing[:2],
                    augment_seed=_seed(rng),
                ))
    return out
