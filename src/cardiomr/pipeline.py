"""End-to-end case runner and flat-file configuration.

The pipeline composes: ROI localization -> ingestion of externally
produced segmentations (label or probability volumes) -> post-processing
-> metrics against ground truth when available -> feature extraction ->
disease prediction when a trained model is supplied. The network
inference step itself is an explicit external hand-off.

Reports are deterministic: same inputs, config and seed give bytewise
identical JSON (artifact paths are stored relative to the report).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .diagnosis import load_model, predict_two_stage
from .features import FEATURE_NAMES, PhaseLabels, extract_features
from .loss import LossConfig
from .postprocess import postprocess_labels
from .roi import RoiConfig, RoiLocateError, locate_roi
from .volume import LabelVolume, ScalarVolume, crop_patch, load_volume, save_volume

ENV_PREFIX = "CARDIOMR_"

# key -> (converter, default); the single source of truth for config files,
# environment overrides and CLI defaults
_BOOL = lambda s: str(s).strip().lower() in ("1", "true", "yes", "on")
CONFIG_SCHEMA = {
    "roi.radius_min": (int, 10),
    "roi.radius_max": (int, 40),
    "roi.top_p": (int, 5),
    "roi.vote_sigma": (float, 8.0),
    "roi.h1_noise_frac": (float, 0.01),
    "roi.canny_sigma": (float, 1.0),
    "roi.canny_low": (float, 0.1),
    "roi.canny_high": (float, 0.2),
    "roi.patch_w": (int, 128),
    "roi.patch_h": (int, 128),
    "loss.lambda": (float, 1.0),
    "loss.gamma": (float, 1.0),
    "loss.eta": (float, 5e-4),
    "loss.epsilon": (float, 1e-5),
    "loss.dice_two_factor": (_BOOL, True),
    "loss.dilate_iters": (int, 1),
    "postproc.skip_3d": (_BOOL, False),
    "postproc.skip_2d": (_BOOL, False),
    "postproc.skip_fill": (_BOOL, False),
    "features.density": (float, 1.05),
    "seed": (int, 0),
}


class ConfigError(ValueError):
    pass


class PipelineError(RuntimeError):
    """A stage failed; carries the stage name and the original cause."""

    def __init__(self, stage: str, cause: str):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    """Flat key=value configuration with documented defaults.

    Precedence: built-in defaults < config file < CARDIOMR_* environment
    variables < explicit overrides. Unknown keys are rejected.
    """

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: default for k, (_, default) in CONFIG_SCHEMA.items()}
        for key, value in self.values.items():
            merged[key] = _convert(key, value)
        self.values = merged

    @classmethod
    def load(cls, path=None, env=None, overrides=None) -> "PipelineConfig":
        raw = {}
        if path is not None:
            raw.update(parse_config_file(path))
        env = os.environ if env is None else env
        for key in CONFIG_SCHEMA:
            env_key = ENV_PREFIX + key.replace(".", "_").upper()
            if env_key in env:
                raw[key] = env[env_key]
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        return cls(values=raw)

    def __getitem__(self, key: str):
        return self.values[key]

    def roi_config(self) -> RoiConfig:
        v = self.values
        return RoiConfig(
            radius_min=v["roi.radius_min"], radius_max=v["roi.radius_max"],
            top_p=v["roi.top_p"], vote_sigma=v["roi.vote_sigma"],
            h1_noise_frac=v["roi.h1_noise_frac"], canny_sigma=v["roi.canny_sigma"],
            canny_low=v["roi.canny_low"], canny_high=v["roi.canny_high"],
            patch_size=(v["roi.patch_w"], v["roi.patch_h"]),
        )

    def loss_config(self) -> LossConfig:
        v = self.values
        return LossConfig(
            lam=v["loss.lambda"], gamma=v["loss.gamma"], eta=v["loss.eta"],
            epsilon=v["loss.epsilon"], dice_two_factor=v["loss.dice_two_factor"],
        )


def _convert(key: str, value):
    if key not in CONFIG_SCHEMA:
        raise ConfigError(f"unknown configuration key: {key!r}")
    conv = CONFIG_SCHEMA[key][0]
    try:
        return conv(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {key!r}: {value!r}") from None


def parse_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment; unknown keys reject."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key: {key!r}")
        out[key] = value
    return out


def probs_to_labels(prob_volume: ScalarVolume, schema=None) -> LabelVolume:
    """Argmax a per-class probability volume (class on the t axis)."""
    data = np.argmax(prob_volume.data, axis=3).astype(np.uint8)
    kwargs = {"schema": schema} if schema is not None else {}
    return LabelVolume(data=data, spacing=prob_volume.spacing[:3], **kwargs)


def roi_center(cine: ScalarVolume, cfg: RoiConfig) -> tuple:
    """ROI center of a cine and the fallback taken, if any.

    Returns ``(center, None)`` with the :func:`locate_roi` center, or
    ``((nx // 2, ny // 2), "image_center")`` when no slice yields a Hough
    circle (a static cine, say).
    """
    try:
        return locate_roi(cine, cfg).roi_center, None
    except RoiLocateError:
        return (cine.dims[0] // 2, cine.dims[1] // 2), "image_center"


def _load_phase_labels(seg_path, probs_path, kind_name: str):
    if seg_path is not None:
        vol = load_volume(seg_path, "label")
        if vol.data.ndim == 4:
            raise PipelineError(kind_name, f"{seg_path}: expected a 3D label volume")
        return vol
    if probs_path is not None:
        return probs_to_labels(load_volume(probs_path, "scalar"))
    return None


def run_pipeline(
    cine_path,
    out_dir,
    *,
    seg_ed=None,
    seg_es=None,
    probs_ed=None,
    probs_es=None,
    gt_ed=None,
    gt_es=None,
    model_path=None,
    config: PipelineConfig | None = None,
) -> dict:
    """Run one case end to end; writes artifacts and returns the report.

    Any stage error raises :class:`PipelineError` naming the stage;
    artifacts written before the failure are retained.
    """
    config = config or PipelineConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"schema": 1, "config": dict(sorted(config.values.items())), "stages": {}}

    def artifact(name):
        return out_dir / name, name

    # roi
    try:
        cine = load_volume(cine_path, "scalar")
        roi_cfg = config.roi_config()
        center, fallback = roi_center(cine, roi_cfg)
        patch = crop_patch(cine, center, roi_cfg.patch_size)
        patch_path, patch_rel = artifact("roi_patch.vol")
        save_volume(ScalarVolume(data=patch.data, spacing=cine.spacing), patch_path)
        report["stages"]["roi"] = {
            "center": list(center),
            "patch_size": list(roi_cfg.patch_size),
            "patch": patch_rel,
        }
        if fallback:
            report["stages"]["roi"]["fallback"] = fallback
    except Exception as exc:  # noqa: BLE001 - stage boundary
        raise PipelineError("roi", str(exc)) from exc

    # segmentation hand-off
    try:
        ed = _load_phase_labels(seg_ed, probs_ed, "segmentation")
        es = _load_phase_labels(seg_es, probs_es, "segmentation")
        if ed is None and es is None:
            raise ValueError("no segmentation provided (need labels or probabilities)")
        report["stages"]["segmentation"] = {
            "ed_provided": ed is not None,
            "es_provided": es is not None,
        }
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError("segmentation", str(exc)) from exc

    # postprocess
    try:
        pp = config.values
        kwargs = dict(
            skip_3d=pp["postproc.skip_3d"],
            skip_2d=pp["postproc.skip_2d"],
            skip_fill=pp["postproc.skip_fill"],
        )
        stage = {}
        if ed is not None:
            ed = postprocess_labels(ed, **kwargs)
            path, rel = artifact("labels_ed_clean.vol")
            save_volume(ed, path)
            stage["ed"] = rel
        if es is not None:
            es = postprocess_labels(es, **kwargs)
            path, rel = artifact("labels_es_clean.vol")
            save_volume(es, path)
            stage["es"] = rel
        report["stages"]["postproc"] = stage
    except Exception as exc:
        raise PipelineError("postproc", str(exc)) from exc

    # metrics (only when ground truth is given)
    try:
        gt_pairs = []
        if gt_ed is not None and ed is not None:
            gt_pairs.append(("ED", ed, load_volume(gt_ed, "label")))
        if gt_es is not None and es is not None:
            gt_pairs.append(("ES", es, load_volume(gt_es, "label")))
        if gt_pairs:
            stage = {}
            for phase, pred, gt in gt_pairs:
                case = metrics_mod.evaluate_case(pred, gt)
                stage[phase] = {name: m.as_dict() for name, m in case.items()}
            report["stages"]["metrics"] = stage
    except Exception as exc:
        raise PipelineError("metrics", str(exc)) from exc

    # features
    try:
        if ed is None or es is None:
            missing = "ES" if es is None else "ED"
            raise ValueError(
                f"feature extraction needs both phases; {missing} volume is missing"
            )
        record = extract_features(
            PhaseLabels(ed=ed, es=es), density=config["features.density"]
        )
        report["stages"]["features"] = {
            name: getattr(record, name) for name in FEATURE_NAMES
        }
    except Exception as exc:
        raise PipelineError("features", str(exc)) from exc

    # predict
    if model_path is not None:
        try:
            model = load_model(model_path)
            label, audit = predict_two_stage(model, record)
            report["stages"]["predict"] = {"label": label, "audit": audit}
        except Exception as exc:
            raise PipelineError("predict", str(exc)) from exc

    report_path = out_dir / "report.json"
    report_path.write_text(dumps_report(report))
    return report


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
