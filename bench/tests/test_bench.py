"""Smoke test of the benchmark at tiny input sizes.

Each workload runs once with zero failed operations, and every output
check is shown to reject a deliberately wrong output, so none can pass
vacuously. Run with ``python -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cardiomr.pipeline as pipeline  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = dict(shape=(128, 128), n_slices=2, n_frames=8)


@pytest.fixture(scope="module")
def tiny_case(tmp_path_factory):
    work = tmp_path_factory.mktemp("acdc")
    cases, model = inputs.write_acdc_inputs(5, work, n_cases=1, n_model_cases=10, **TINY)
    report = pipeline.run_pipeline(cases[0].cine, work / "out",
                                   **cases[0].pipeline_kwargs(model))
    return cases[0], model, report, work / "out"


def test_acdc_pipeline_workload_runs_clean(tmp_path):
    out = workloads.acdc_pipeline(5, 0.0, tmp_path, n_cases=1, n_model_cases=10,
                                  setups=1, size=TINY)
    assert (out.attempted, out.failed) == (2, 0), out.problems
    assert set(out.metrics) == {"setup_s", "op_s_p50", "ops_per_s", "peak_rss_mb"}
    assert all(v > 0 for v, _ in out.metrics.values())


def test_cohort_classify_workload_runs_clean(tmp_path):
    out = workloads.cohort_classify(2, 0.0, tmp_path, n_train=20, n_test=10, setups=1,
                                    n_trees=50)
    assert out.failed == 0, out.problems
    assert out.attempted == 31  # 30 feature records + 1 classification


def test_train_batches_workload_runs_clean(tmp_path):
    out = workloads.train_batches(4, 0.0, tmp_path, n_cases=1, batch=4, setups=1,
                                  shape=(128, 128))
    assert (out.attempted, out.failed) == (8, 0), out.problems


def test_report_check_passes_real_output(tiny_case):
    case, _, report, _ = tiny_case
    assert checks.check_report(report, case.center) == []


def test_report_check_catches_shifted_roi_centre(tiny_case):
    case, _, report, _ = tiny_case
    shifted = (case.center[0] + 3, case.center[1])
    assert any("ROI centre" in p for p in checks.check_report(report, shifted))


def test_report_check_catches_low_dice(tiny_case):
    case, _, report, _ = tiny_case
    bad = json.loads(json.dumps(report))
    bad["stages"]["metrics"]["ES"]["MYO"]["dice"] = 0.9
    assert any("ES MYO Dice" in p for p in checks.check_report(bad, case.center))


def test_report_check_catches_missing_prediction(tiny_case):
    case, _, report, _ = tiny_case
    bad = json.loads(json.dumps(report))
    del bad["stages"]["predict"]
    assert checks.check_report(bad, case.center)


def test_case_check_catches_corrupted_report(tiny_case, tmp_path):
    case, _, _, out_dir = tiny_case
    problems, digest = checks.check_pipeline_case(0, "", out_dir, case.center, None)
    assert problems == []
    shutil.copytree(out_dir, tmp_path / "copy")
    report_path = tmp_path / "copy" / "report.json"
    report_path.write_text(report_path.read_text() + " ")
    problems, _ = checks.check_pipeline_case(0, "", tmp_path / "copy", case.center, digest)
    assert any("differs" in p for p in problems)
    report_path.write_text("{not json")
    problems, _ = checks.check_pipeline_case(0, "", tmp_path / "copy", case.center, digest)
    assert any("unreadable" in p for p in problems)


def test_case_check_catches_failed_child(tiny_case):
    case, _, _, out_dir = tiny_case
    problems, _ = checks.check_pipeline_case(3, "error: stage 'roi' failed", out_dir,
                                             case.center, None)
    assert problems and "exit code 3" in problems[0]


def test_prediction_check_catches_mismatch_and_low_accuracy():
    truth = ["MINF", "DCM"] * 10
    good = [(label, {"final": label}) for label in truth]
    assert checks.check_predictions(good, list(good), truth) == []
    drifted = list(good)
    drifted[3] = ("MINF", {"final": "MINF"})
    problems = checks.check_predictions(drifted, good, truth)
    assert any("differ from the in-memory" in p for p in problems)
    wrong = [("DCM", {}) for _ in truth]
    assert any("accuracy" in p for p in checks.check_predictions(wrong, wrong, truth))


def test_train_step_check_catches_bad_outputs():
    s = inputs.train_slices(4, 1, shape=(128, 128))[0]
    total, breakdown, grad, wm, lbl = workloads.train_step(s, s.augment_seed)
    assert checks.check_train_step(total, breakdown, grad, wm.class_term, lbl) == []

    nan_loss = dict(breakdown, ce=float("nan"))
    assert checks.check_train_step(total, nan_loss, grad, wm.class_term, lbl)
    skewed = grad.copy()
    skewed[0] += 1e-6 * np.abs(grad).max()
    assert any("class sum" in p
               for p in checks.check_train_step(total, breakdown, skewed, wm.class_term, lbl))
    assert any("class term" in p
               for p in checks.check_train_step(total, breakdown, grad, wm.class_term * 1.001, lbl))


def test_tracer_nests_spans_and_restores_functions(tiny_case, tmp_path):
    case, model, _, _ = tiny_case
    original = pipeline.locate_roi
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.case = "c"
        pipeline.run_pipeline(case.cine, tmp_path, **case.pipeline_kwargs(model))
    assert pipeline.locate_roi is original

    names = [s.name for s in tracer.spans]
    parent_of = {s.name: names[s.parent] for s in tracer.spans if s.parent is not None}
    assert parent_of["roi.locate_roi"] == "pipeline.run_pipeline"
    assert parent_of["roi.hough_circles"] == "roi.locate_roi"
    assert parent_of["diagnosis.RandomForest.predict"] == "diagnosis.predict_two_stage"
    assert names.count("roi.canny_edges") == TINY["n_slices"]  # feature contours excluded
    selfs = tracer.self_ms()
    assert all(0 <= own <= s.ms + 1e-6 for own, s in zip(selfs, tracer.spans))
    assert tracer.counts["roi.slices"] == TINY["n_slices"]
    assert tracer.counts["postprocess.voxels_changed"] > 0


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "train_batches", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
