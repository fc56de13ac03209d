"""End-to-end case runner and flat-file configuration.

The pipeline composes: ROI localization -> ingestion of externally
produced segmentations (label or probability volumes) -> post-processing
-> metrics against ground truth when available -> feature extraction ->
disease prediction when a trained model is supplied. The network
inference step itself is an explicit external hand-off.

Reports are deterministic: the same inputs and config give bytewise
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
from .features import FEATURE_NAMES, MYOCARDIUM_DENSITY_G_PER_ML, PhaseLabels, extract_features
from .loss import LossConfig
from .postprocess import postprocess_labels
from .roi import RoiConfig, RoiLocateError, locate_roi
from .volume import (
    MAX_HEADER_BYTES, LabelVolume, ScalarVolume, crop_patch, load_volume, save_volume,
)

ENV_PREFIX = "CARDIOMR_"


def _FLOAT(s) -> float:  # fails closed on NaN and infinities, as _BOOL on non-words
    value = float(s)
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


# key -> (converter, default); the single source of truth for config files,
# environment overrides and CLI defaults
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_BOOL = lambda s: _BOOL_WORDS[str(s).strip().lower()]  # KeyError: not a boolean word
CONFIG_SCHEMA = {
    "roi.radius_min": (int, RoiConfig.radius_min),
    "roi.radius_max": (int, RoiConfig.radius_max),
    "roi.top_p": (int, RoiConfig.top_p),
    "roi.vote_sigma": (_FLOAT, RoiConfig.vote_sigma),
    "roi.h1_noise_frac": (_FLOAT, RoiConfig.h1_noise_frac),
    "roi.canny_sigma": (_FLOAT, RoiConfig.canny_sigma),
    "roi.canny_low": (_FLOAT, RoiConfig.canny_low),
    "roi.canny_high": (_FLOAT, RoiConfig.canny_high),
    "roi.patch_w": (int, RoiConfig.patch_size[0]),
    "roi.patch_h": (int, RoiConfig.patch_size[1]),
    "loss.lambda": (_FLOAT, LossConfig.lam),
    "loss.gamma": (_FLOAT, LossConfig.gamma),
    "loss.eta": (_FLOAT, LossConfig.eta),
    "loss.epsilon": (_FLOAT, LossConfig.epsilon),
    "loss.dice_two_factor": (_BOOL, LossConfig.dice_two_factor),
    "loss.dilate_iters": (int, 1),
    "postproc.skip_3d": (_BOOL, False),
    "postproc.skip_2d": (_BOOL, False),
    "postproc.skip_fill": (_BOOL, False),
    "features.density": (_FLOAT, MYOCARDIUM_DENSITY_G_PER_ML),
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
    except (TypeError, ValueError, KeyError):
        raise ConfigError(f"bad value for {key!r}: {value!r}") from None


def parse_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment; unknown keys reject.

    A file longer than ``MAX_HEADER_BYTES`` is refused unread past that bound.
    """
    with open(path, "rb") as fh:
        raw = fh.read(MAX_HEADER_BYTES + 1)
    if len(raw) > MAX_HEADER_BYTES:
        raise ConfigError(f"{path}: config file is larger than {MAX_HEADER_BYTES} bytes")
    out = {}
    for lineno, line in enumerate(raw.decode().splitlines(), start=1):
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


def probs_to_labels(prob_volume: ScalarVolume) -> LabelVolume:
    """Argmax a per-class probability volume (class on the t axis).

    The labels keep the probabilities' memory order, so labels argmaxed
    from a loaded file have the layout of a loaded label file. Raises
    ValueError when any probability is NaN, whose class argmax would
    otherwise pick.
    """
    probs = prob_volume.data
    if np.isnan(probs).any():
        raise ValueError("probability volume contains NaN")
    order = "F" if probs.flags.f_contiguous else "C"
    data = np.argmax(probs, axis=3).astype(np.uint8, order=order)
    return LabelVolume(data=data, spacing=prob_volume.spacing[:3], _owned=True)


def roi_stage(cine_path, cfg: RoiConfig, patch_path=None) -> dict:
    """Load a cine, locate its ROI and crop the patch around it.

    Saves the patch to ``patch_path`` when given and returns
    ``{"center", "patch_size"}``. When no slice yields a Hough circle (a
    static cine, say), the center falls back to ``(nx // 2, ny // 2)`` and
    the entry gains ``"fallback": "image_center"``.
    """
    cine = load_volume(cine_path, "scalar")
    entry = {"patch_size": list(cfg.patch_size)}
    try:
        center = locate_roi(cine, cfg).roi_center
    except RoiLocateError:
        center = (cine.dims[0] // 2, cine.dims[1] // 2)
        entry["fallback"] = "image_center"
    entry["center"] = list(center)
    patch = crop_patch(cine, center, cfg.patch_size)
    if patch_path is not None:
        save_volume(ScalarVolume(data=patch.data, spacing=cine.spacing, _owned=True),
                    patch_path)
    return entry


def _load_phase_labels(seg_path, probs_path):
    if seg_path is not None:
        vol = load_volume(seg_path, "label")
        if vol.data.ndim == 4:
            raise ValueError(f"{seg_path}: expected a 3D label volume")
        return vol
    if probs_path is not None:
        return probs_to_labels(load_volume(probs_path, "scalar"))
    return None


# Stages read and write one per-case state dict and return their report
# entry, or None when they do not apply to the case.


def _roi_stage(s: dict) -> dict:
    entry = roi_stage(s["cine"], s["config"].roi_config(), s["out_dir"] / "roi_patch.vol")
    entry["patch"] = "roi_patch.vol"
    return entry


def _segmentation_stage(s: dict) -> dict:
    s["ed"] = _load_phase_labels(s["seg_ed"], s["probs_ed"])
    s["es"] = _load_phase_labels(s["seg_es"], s["probs_es"])
    if s["ed"] is None and s["es"] is None:
        raise ValueError("no segmentation provided (need labels or probabilities)")
    return {"ed_provided": s["ed"] is not None, "es_provided": s["es"] is not None}


def _postproc_stage(s: dict) -> dict:
    cfg = s["config"]
    entry = {}
    for phase in ("ed", "es"):
        if s[phase] is not None:
            s[phase] = postprocess_labels(
                s[phase],
                skip_3d=cfg["postproc.skip_3d"],
                skip_2d=cfg["postproc.skip_2d"],
                skip_fill=cfg["postproc.skip_fill"],
            )
            entry[phase] = f"labels_{phase}_clean.vol"
            save_volume(s[phase], s["out_dir"] / entry[phase])
    return entry


def _metrics_stage(s: dict) -> dict | None:
    entry = {}
    for phase in ("ed", "es"):
        if s[f"gt_{phase}"] is not None and s[phase] is not None:
            gt = load_volume(s[f"gt_{phase}"], "label")
            case = metrics_mod.evaluate_case(s[phase], gt)
            entry[phase.upper()] = {name: m.as_dict() for name, m in case.items()}
    return entry or None


def _features_stage(s: dict) -> dict:
    if s["ed"] is None or s["es"] is None:
        missing = "ES" if s["es"] is None else "ED"
        raise ValueError(f"feature extraction needs both phases; {missing} volume is missing")
    s["record"] = extract_features(
        PhaseLabels(ed=s["ed"], es=s["es"]), density=s["config"]["features.density"]
    )
    return {name: getattr(s["record"], name) for name in FEATURE_NAMES}


def _predict_stage(s: dict) -> dict | None:
    if s["model_path"] is None:
        return None
    label, audit = predict_two_stage(load_model(s["model_path"]), s["record"])
    return {"label": label, "audit": audit}


_STAGES = (
    ("roi", _roi_stage),
    ("segmentation", _segmentation_stage),
    ("postproc", _postproc_stage),
    ("metrics", _metrics_stage),
    ("features", _features_stage),
    ("predict", _predict_stage),
)


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
    state = dict(
        cine=cine_path, out_dir=out_dir, config=config, model_path=model_path,
        seg_ed=seg_ed, seg_es=seg_es, probs_ed=probs_ed, probs_es=probs_es,
        gt_ed=gt_ed, gt_es=gt_es,
    )
    for name, stage in _STAGES:
        try:
            entry = stage(state)
        except PipelineError:
            raise
        except Exception as exc:  # noqa: BLE001 - stage boundary
            raise PipelineError(name, str(exc)) from exc
        if entry is not None:
            report["stages"][name] = entry

    report_path = out_dir / "report.json"
    report_path.write_text(dumps_report(report))
    return report


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
