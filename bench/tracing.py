"""Per-layer tracing from outside the program, and the traced layer sweep.

cardiomr has no tracing of its own yet, so spans are recorded here: while a
:class:`Tracer` is installed, the public functions of each module (and the
fit/predict methods of the classifiers) are rebound to wrappers in every
``cardiomr`` module that holds them. Calls made by ``run_pipeline`` through
the names it imported are therefore traced too, and spans nest:
``pipeline.run_pipeline`` > ``roi.locate_roi`` > ``roi.hough_circles``.

Each span records its name, start, end, parent and case id; with memory
tracing on it also records the ``tracemalloc`` peak reached while it was
open, above the traced memory at its start. Counts are read from values the
public functions already return.

The sweep runs a fixed amount of work (so counts repeat exactly for a
seed) and covers every layer, whichever workload names it, in three parts,
each on the inputs of the workload that exercises those layers:

- ``cohort``: features, training and prediction on the 96x96 cohort;
- ``acdc``: ``cardiomr`` import time in fresh interpreters, then
  ``run_pipeline`` in process on 224x224x10x30 cases, each run once
  untraced and once with timing spans (their difference is the tracing
  overhead), and the first case once more under ``tracemalloc``, whose own
  cost would distort the timings, for the memory peaks;
- ``batches``: augmentation, weight maps and losses on 128x128 patches.

Stats: ``.ms``/``.s`` are the time spent in a function per case (median
over the part's cases), ``.self_ms`` subtracts the time covered by child
spans, ``.calls`` counts calls per case (median), ``.peak_mb`` is the largest
``tracemalloc`` peak of any call. ``diagnosis.*.fit.s`` sum every fit of
one ``train_ensemble`` call, cross-validation folds included.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import cardiomr.diagnosis as diagnosis
import cardiomr.pipeline as pipeline
from cardiomr.phantoms import disease_cohort

import checks
import inputs
import workloads

COHORT_TRAIN, COHORT_TEST = 60, 40
ACDC_CASES = 2
IMPORT_RUNS = 3
BATCH_CASES = 2


def _count_circles(counts, args, kwargs, result):
    per_slice = result.circles_per_slice
    counts["roi.circles"] += sum(len(c) for c in per_slice)
    counts["roi.slices"] += len(per_slice)
    counts["roi.slices_with_circles"] += sum(1 for c in per_slice if c)


def _count_changed(counts, args, kwargs, result):
    before = np.asarray(getattr(args[0], "data", args[0]))
    after = np.asarray(getattr(result, "data", result))
    counts["postprocess.voxels_changed"] += int(np.count_nonzero(before != after))


def _count_excluded(counts, args, kwargs, result):
    counts["features.mwt_excluded"] += len(result.excluded)


def _count_stage2(counts, args, kwargs, result):
    counts["diagnosis.stage2_fired"] += int(result[1]["stage2_fired"])


def _count_clamped(counts, args, kwargs, result):
    # callers in this benchmark pass a fresh diagnostics dict by keyword
    counts["loss.ce_clamped"] += int(kwargs.get("diagnostics", {}).get("clamped", 0))


# (module, function, observer); the span is named "<module>.<function>"
FUNCTIONS = (
    ("volume", "load_volume", None),
    ("volume", "save_volume", None),
    ("roi", "temporal_h1", None),
    ("roi", "canny_edges", None),
    ("roi", "hough_circles", None),
    ("roi", "locate_roi", _count_circles),
    ("postprocess", "postprocess_labels", _count_changed),
    ("metrics", "evaluate_case", None),
    ("features", "extract_features", None),
    ("features", "mwt_result", _count_excluded),
    ("features", "mwt_per_slice", None),
    ("diagnosis", "train_ensemble", None),
    ("diagnosis", "cross_validate", None),
    ("diagnosis", "save_model", None),
    ("diagnosis", "load_model", None),
    ("diagnosis", "predict_two_stage", _count_stage2),
    ("augment", "apply_augment", None),
    ("loss", "build_weight_map", None),
    ("loss", "total_loss", _count_clamped),
    ("loss", "total_loss_grad", None),
    ("pipeline", "run_pipeline", None),
)
STAGE1_CLASSIFIERS = ("RbfSvm", "MLPClassifier", "GaussianNB", "RandomForest")
# (module, class, method); the span is named "<module>.<class>.<method>"
METHODS = tuple(("diagnosis", cls, "fit") for cls in STAGE1_CLASSIFIERS) + (
    ("diagnosis", "RandomForest", "predict"),
)
# loss and features reuse Canny for label contours; only the ROI stage's
# calls belong to the roi layer, so that name is rebound in roi alone
HOME_ONLY = {("roi", "canny_edges")}


class Span:
    __slots__ = ("name", "case", "parent", "start", "end", "mem_start", "mem_peak")

    def __init__(self, name, case, parent, mem_start):
        self.name, self.case, self.parent = name, case, parent
        self.mem_start = self.mem_peak = mem_start
        self.start = self.end = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    @property
    def peak_mb(self) -> float:
        return (self.mem_peak - self.mem_start) / 2**20

    def as_dict(self) -> dict:
        return {"name": self.name, "case": self.case, "parent": self.parent,
                "start_ns": self.start, "end_ns": self.end, "peak_mb": self.peak_mb}


class Tracer:
    """In-memory spans and counts; ``case`` tags every span opened after it is set."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.case = None
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []  # indices of open spans, innermost last

    def _mark_peak(self) -> int:
        """Fold the peak since the last mark into every open span; return current."""
        current, peak = tracemalloc.get_traced_memory()
        for i in self._open:
            self.spans[i].mem_peak = max(self.spans[i].mem_peak, peak)
        tracemalloc.reset_peak()
        return current

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            current = self._mark_peak() if self.memory else 0
            span = Span(name, self.case, self._open[-1] if self._open else None, current)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                if self.memory:
                    self._mark_peak()
                self._open.pop()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced functions and methods; restore them on exit."""
        patches = []
        try:
            for module, name, observe in FUNCTIONS:
                home = sys.modules[f"cardiomr.{module}"]
                original = getattr(home, name)
                wrapper = self.wrap(f"{module}.{name}", original, observe)
                holders = [home] if (module, name) in HOME_ONLY else [
                    m for key, m in list(sys.modules.items())
                    if (key == "cardiomr" or key.startswith("cardiomr."))
                    and getattr(m, name, None) is original
                ]
                for holder in holders:
                    patches.append((holder, name, original))
                    setattr(holder, name, wrapper)
            for module, cls_name, name in METHODS:
                cls = getattr(sys.modules[f"cardiomr.{module}"], cls_name)
                original = cls.__dict__[name]
                patches.append((cls, name, original))
                setattr(cls, name, self.wrap(f"{module}.{cls_name}.{name}", original))
            yield self
        finally:
            for holder, name, original in reversed(patches):
                setattr(holder, name, original)

    # -- aggregation -------------------------------------------------------

    def self_ms(self) -> list:
        """Self time of every span: its duration minus its children's."""
        out = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.ms
        return out

    def per_case(self, name: str, stat: str = "ms", cases=None) -> list:
        """Per-case totals of one span name; ``cases`` filters case ids."""
        selfs = self.self_ms() if stat == "self_ms" else None
        totals = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.name == name and (cases is None or cases(s.case)):
                totals[s.case] += selfs[i] if selfs else (1 if stat == "calls" else s.ms)
        return list(totals.values())

    def median(self, name: str, stat: str = "ms", cases=None) -> float:
        values = self.per_case(name, stat, cases)
        if not values:
            raise LookupError(f"no {name} spans were recorded")
        return statistics.median(values)

    def peak_mb(self, name: str) -> float:
        return max(s.peak_mb for s in self.spans if s.name == name)

    def tree_lines(self, case) -> list:
        """Indented span tree of one case; sibling spans of one name fold into one line."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.case == case:
                children[s.parent if s.parent is not None and
                         self.spans[s.parent].case == case else None].append(i)
        selfs = self.self_ms()
        lines = []

        def walk(group, depth):
            by_name = defaultdict(list)
            for i in group:
                by_name[self.spans[i].name].append(i)
            for name, idx in by_name.items():
                label = f"{'  ' * depth}{name}" + (f" x{len(idx)}" if len(idx) > 1 else "")
                line = (f"{label:<44} {sum(self.spans[i].ms for i in idx):9.1f} ms"
                        f"  self {sum(selfs[i] for i in idx):8.1f} ms")
                if self.memory:
                    line += f"  peak {max(self.spans[i].peak_mb for i in idx):7.1f} MB"
                lines.append(line)
                walk([c for i in idx for c in children.get(i, ())], depth + 1)

        walk(children.get(None, []), 0)
        return lines


def _cohort_part(seed: int, work: Path, out) -> tuple:
    """Features, training and prediction on the 96x96 cohort, traced."""
    cohort = disease_cohort(COHORT_TRAIN + COHORT_TEST, seed=seed)
    truth = [kind for *_, kind in cohort]
    path = work / "model.pkl"
    tracer = Tracer()
    with tracer.installed():
        records = []
        for i, case in enumerate(cohort):
            tracer.case = f"case{i}"
            records.append(inputs.features_of(case))
        tracer.case = "train"
        ds = diagnosis.Dataset.from_records(records[:COHORT_TRAIN], truth[:COHORT_TRAIN])
        model = diagnosis.train_ensemble(ds, seed=seed)
        diagnosis.save_model(model, path)
        tracer.case = "load"
        loaded = diagnosis.load_model(path)
        reloaded = []
        for j, record in enumerate(records[COHORT_TRAIN:]):
            tracer.case = f"record{j}"
            reloaded.append(diagnosis.predict_two_stage(loaded, record))
    in_memory = [diagnosis.predict_two_stage(model, r) for r in records[COHORT_TRAIN:]]
    out.record(checks.check_predictions(reloaded, in_memory, truth[COHORT_TRAIN:]),
               "traced cohort classification")
    return tracer, path


def _run_case(case, model: Path, run_dir: Path, tracer=None) -> tuple:
    """run_pipeline on one case; (report, seconds, report.json digest)."""
    with tracer.installed() if tracer else contextlib.nullcontext():
        if tracer:
            tracer.case = case.case_id
        t0 = perf_counter()
        report = pipeline.run_pipeline(case.cine, run_dir, **case.pipeline_kwargs(model))
        elapsed = perf_counter() - t0
    return report, elapsed, checks.report_digest(run_dir / "report.json")


def _acdc_part(seed: int, work: Path, model: Path, out) -> tuple:
    """Import time, then run_pipeline in process: each case untraced and traced,
    and the first case once more under ``tracemalloc`` for memory peaks."""
    cases = inputs.write_acdc_cases(np.random.default_rng(seed), work / "acdc", ACDC_CASES)
    env = workloads.child_env()
    cmd = [sys.executable, "-c", "import cardiomr.cli"]
    subprocess.run(cmd, env=env, check=True)  # compile the sources once
    import_s = []
    for _ in range(IMPORT_RUNS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        import_s.append(perf_counter() - t0)

    timing, memory = Tracer(), Tracer(memory=True)
    untraced_s, traced_s, digests = [], [], []
    for i, case in enumerate(cases):
        # alternate which side runs first, so drift in machine speed cancels
        off_first = i % 2 == 0
        if off_first:
            _, off_s, off_digest = _run_case(case, model, work / f"{case.case_id}-off")
        report, on_s, on_digest = _run_case(case, model, work / f"{case.case_id}-on", timing)
        if not off_first:
            _, off_s, off_digest = _run_case(case, model, work / f"{case.case_id}-off")
        untraced_s.append(off_s)
        traced_s.append(on_s)
        digests.append(off_digest)
        problems = checks.check_report(report, case.center)
        if on_digest != off_digest:
            problems.append("tracing changed report.json")
        out.record(problems, f"traced {case.case_id}")
    tracemalloc.start()
    try:
        _, _, mem_digest = _run_case(cases[0], model, work / "memory", memory)
    finally:
        tracemalloc.stop()
    changed = mem_digest != digests[0]
    out.record(["memory tracing changed report.json"] if changed else [], "memory-traced run")
    return timing, memory, import_s, untraced_s, traced_s, cases[0].case_id


def _batches_part(seed: int, out) -> Tracer:
    """Augmentation, weight maps, losses and gradients on 128x128 patches, traced."""
    slices = inputs.train_slices(seed, BATCH_CASES)
    tracer = Tracer()
    with tracer.installed():
        for i, s in enumerate(slices):
            tracer.case = f"slice{i}"
            total, breakdown, grad, wm, lbl = workloads.train_step(s, s.augment_seed)
            out.record(checks.check_train_step(total, breakdown, grad, wm.class_term, lbl),
                       f"traced slice {i}")
    return tracer


def _startswith(prefix):
    return lambda case: case is not None and case.startswith(prefix)


def layer_sweep(seed: int, work: Path, out_dir: Path):
    """Run the three traced parts; per-layer metrics, the baseline table and span trees."""
    out = workloads.Outcome()
    cohort, model = _cohort_part(seed, work, out)
    acdc, memory, import_s, untraced_s, traced_s, first_case = _acdc_part(seed, work, model, out)
    batches = _batches_part(seed, out)

    m = out.metrics
    m["cli.import_s"] = (statistics.median(import_s), "s")
    for name in ("volume.load_volume", "volume.save_volume", "roi.temporal_h1",
                 "roi.canny_edges", "roi.hough_circles", "roi.locate_roi",
                 "postprocess.postprocess_labels", "metrics.evaluate_case",
                 "pipeline.run_pipeline"):
        m[f"{name}.ms"] = (acdc.median(name), "ms")
    for name in ("volume.load_volume", "roi.temporal_h1", "roi.locate_roi"):
        m[f"{name}.peak_mb"] = (memory.peak_mb(name), "MB")
    for name in ("roi.canny_edges", "roi.hough_circles"):
        m[f"{name}.calls"] = (acdc.median(name, "calls"), "count")
    for name in ("roi.locate_roi", "pipeline.run_pipeline"):
        m[f"{name}.self_ms"] = (acdc.median(name, "self_ms"), "ms")
    m["roi.circles"] = (acdc.counts["roi.circles"], "count")
    m["roi.slices_with_circles_frac"] = (
        acdc.counts["roi.slices_with_circles"] / acdc.counts["roi.slices"], "ratio")
    m["postprocess.voxels_changed"] = (acdc.counts["postprocess.voxels_changed"], "count")
    m["pipeline.untraced_ms"] = (1e3 * statistics.median(untraced_s), "ms")
    m["pipeline.trace_overhead_frac"] = (sum(traced_s) / sum(untraced_s) - 1.0, "ratio")

    cases = _startswith("case")
    for name in ("features.extract_features", "features.mwt_per_slice"):
        m[f"{name}.ms"] = (cohort.median(name, cases=cases), "ms")
        m[f"{name}.acdc_ms"] = (acdc.median(name), "ms")
    m["features.mwt_per_slice.calls"] = (
        cohort.median("features.mwt_per_slice", "calls", cases), "count")
    m["features.mwt_excluded"] = (cohort.counts["features.mwt_excluded"], "count")

    train = "train".__eq__
    for name in ("diagnosis.train_ensemble", "diagnosis.cross_validate"):
        m[f"{name}.s"] = (cohort.median(name, cases=train) / 1e3, "s")
    for cls in STAGE1_CLASSIFIERS:
        m[f"diagnosis.{cls}.fit.s"] = (
            cohort.median(f"diagnosis.{cls}.fit", cases=train) / 1e3, "s")
    m["diagnosis.save_model.ms"] = (cohort.median("diagnosis.save_model"), "ms")
    m["diagnosis.load_model.ms"] = (cohort.median("diagnosis.load_model"), "ms")
    records = _startswith("record")
    for name in ("diagnosis.predict_two_stage", "diagnosis.RandomForest.predict"):
        m[f"{name}.ms"] = (cohort.median(name, cases=records), "ms")
    m["diagnosis.stage2_fired"] = (cohort.counts["diagnosis.stage2_fired"], "count")

    for name in ("augment.apply_augment", "loss.build_weight_map", "loss.total_loss",
                 "loss.total_loss_grad"):
        m[f"{name}.ms"] = (batches.median(name), "ms")
    m["loss.ce_clamped"] = (batches.counts["loss.ce_clamped"], "count")

    out.notes.extend(baseline_table(m, acdc))
    out.notes.append("")
    out.notes.append(f"span tree of one traced run_pipeline call ({first_case}):")
    out.notes.extend("  " + line for line in acdc.tree_lines(first_case))
    out.notes.append("")
    out.notes.append("the same call under tracemalloc (times include its cost):")
    out.notes.extend("  " + line for line in memory.tree_lines(first_case))

    out_dir.mkdir(exist_ok=True)
    dump = {part: {"spans": [s.as_dict() for s in t.spans], "counts": dict(t.counts)}
            for part, t in (("cohort", cohort), ("acdc", acdc), ("acdc_memory", memory),
                            ("batches", batches))}
    spans_path = out_dir / f"spans-seed{seed}.json"
    spans_path.write_text(json.dumps(dump))
    out.notes.append(f"spans written to {spans_path}")
    return out


def baseline_table(m: dict, acdc: Tracer) -> list:
    """The ROADMAP baseline rows, this run beside the numbers recorded there."""
    def v(name):
        return m[name][0]

    def per_call(name):
        return v(f"{name}.ms") / acdc.median(name, "calls")

    rows = [
        ("load_volume (cine + 4 label files)",
         f"{v('volume.load_volume.ms'):.0f} ms, peak {v('volume.load_volume.peak_mb'):.0f} MB",
         "200 ms; peak 345 MB (cine)"),
        ("temporal_h1",
         f"{v('roi.temporal_h1.ms'):.0f} ms, peak {v('roi.temporal_h1.peak_mb'):.0f} MB",
         "165 ms"),
        ("canny_edges (one slice)", f"{per_call('roi.canny_edges'):.1f} ms", "-"),
        ("hough_circles (one slice)", f"{per_call('roi.hough_circles'):.1f} ms", "90-140 ms"),
        ("locate_roi (10 slices)",
         f"{v('roi.locate_roi.ms'):.0f} ms, peak {v('roi.locate_roi.peak_mb'):.0f} MB",
         "1380 ms; peak 582 MB"),
        ("postprocess_labels (one phase)", f"{per_call('postprocess.postprocess_labels'):.0f} ms",
         "159 ms"),
        ("evaluate_case (one phase)", f"{per_call('metrics.evaluate_case'):.1f} ms", "40 ms"),
        ("extract_features (224x224 | 96x96)",
         f"{v('features.extract_features.acdc_ms'):.0f} ms | "
         f"{v('features.extract_features.ms'):.0f} ms", "312 ms (224x224)"),
        ("train_ensemble (60 cases)", f"{v('diagnosis.train_ensemble.s'):.2f} s", "7.9 s"),
        ("predict_two_stage (one record)", f"{v('diagnosis.predict_two_stage.ms'):.1f} ms",
         "7.4 ms"),
        ("import cardiomr.cli (fresh interpreter)", f"{v('cli.import_s'):.2f} s", "1.0 s"),
        ("run_pipeline, tracing off", f"{v('pipeline.untraced_ms'):.0f} ms", "2000-2350 ms"),
    ]
    width = max(len(r[0]) for r in rows)
    lines = [f"{'layer':<{width}}  {'this run':<28}  ROADMAP baseline",
             f"{'-' * width}  {'-' * 28}  {'-' * 26}"]
    lines += [f"{a:<{width}}  {b:<28}  {c}" for a, b, c in rows]
    lines.append(f"tracing overhead: {v('pipeline.trace_overhead_frac'):+.1%} of untraced "
                 f"run_pipeline ({v('pipeline.untraced_ms'):.0f} ms); peaks come from a "
                 "separate tracemalloc pass")
    return lines
