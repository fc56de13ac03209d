"""Output checks. Each returns a list of problems; an empty list is a pass."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

ROI_TOLERANCE_PX = 2.0
DICE_FLOOR = 0.95
# Held-out accuracy of the two-stage ensemble trained on 60 cases of the
# 96x96 phantom cohort and tested on 40: it measured 0.925 to 1.00 over
# seeds 101-111 (a 100/60 split gave 0.95 to 1.00). The floor sits below
# that range, so only a real loss of accuracy trips it.
ACCURACY_FLOOR = 0.90
GRAD_SUM_RTOL = 1e-9
CLASS_TERM_RTOL = 1e-9


def report_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_pipeline_case(returncode: int, stderr: str, out_dir: Path, center,
                        digest_seen: str | None) -> tuple:
    """Check one `cardiomr pipeline` run; returns (problems, report digest)."""
    if returncode != 0:
        return [f"exit code {returncode}: {stderr.strip()[-200:]}"], None
    report_path = Path(out_dir) / "report.json"
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report.json: {exc}"], None
    digest = report_digest(report_path)
    problems = check_report(report, center)
    if digest_seen is not None and digest != digest_seen:
        problems.append("report.json differs from an earlier run of the same case")
    return problems, digest


def check_report(report: dict, center) -> list:
    problems = []
    try:
        got = report["stages"]["roi"]["center"]
        err = math.hypot(got[0] - center[0], got[1] - center[1])
        if not err <= ROI_TOLERANCE_PX:
            problems.append(f"ROI centre {got} is {err:.1f} px from {list(center)}")
        for phase, table in sorted(report["stages"]["metrics"].items()):
            for cls, m in sorted(table.items()):
                if not m["dice"] >= DICE_FLOOR:
                    problems.append(f"{phase} {cls} Dice {m['dice']:.3f} < {DICE_FLOOR}")
        if "label" not in report["stages"]["predict"]:
            problems.append("report has no prediction")
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"report lacks {exc}")
    return problems


def check_predictions(reloaded: list, in_memory: list, truth: list) -> list:
    """Reloaded-model predictions must equal the in-memory model's and stay accurate."""
    problems = []
    if reloaded != in_memory:
        n = sum(a != b for a, b in zip(reloaded, in_memory)) + abs(len(reloaded) - len(in_memory))
        problems.append(f"{n} reloaded-model predictions differ from the in-memory model")
    labels = [label for label, _ in reloaded]
    acc = float(np.mean([a == b for a, b in zip(labels, truth)])) if truth else 0.0
    if len(labels) != len(truth) or not acc >= ACCURACY_FLOOR:
        problems.append(f"held-out accuracy {acc:.3f} < {ACCURACY_FLOOR}")
    return problems


def check_train_step(total: float, breakdown: dict, grad: np.ndarray, class_term: np.ndarray,
                     labels: np.ndarray) -> list:
    """Loss finiteness, softmax-gradient balance and weight-map telescoping."""
    problems = []
    values = [total, *breakdown.values()]
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite loss {breakdown}")
    if not np.all(np.isfinite(grad)):
        problems.append("non-finite gradient")
    else:
        scale = float(np.abs(grad).max())
        imbalance = float(np.abs(grad.sum(axis=0)).max())
        if imbalance > GRAD_SUM_RTOL * scale:
            problems.append(f"gradient class sum {imbalance:.3g} > {GRAD_SUM_RTOL} x {scale:.3g}")
    expected = labels.size * len(np.unique(labels))
    got = float(class_term.sum())
    if abs(got - expected) > CLASS_TERM_RTOL * expected:
        problems.append(f"weight-map class term sums to {got!r}, expected {expected}")
    return problems
