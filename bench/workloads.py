"""The three end-to-end workloads, measured with tracing off.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has finished. An operation is one `cardiomr pipeline`
child from spawn to exit (``acdc_pipeline``), the features of a group of
cohort cases (``cohort_classify``) or one training minibatch
(``train_batches``). Every workload reports the same four end-to-end
metrics:

- ``setup_s``: median wall time of one full set-up (inputs, files, model);
- ``op_s_p50``: median wall time of one operation;
- ``ops_per_s``: operations completed per second of operation time;
- ``peak_rss_mb``: peak resident memory of the process doing the work.

Each workload also prints its own figures by name (``case_s_p50``,
``train_s``, ``slices_per_s``, ...) as notes above the JSON result.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import cardiomr.augment as augment
import cardiomr.diagnosis as diagnosis
import cardiomr.loss as loss
from cardiomr.phantoms import disease_cohort

import checks
import inputs

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class Outcome:
    """Operations attempted and failed, metrics by name, and printed notes."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: list = field(default_factory=list)

    def record(self, problems: list, what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def note(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.notes.append(f"{name} = {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))


def child_env() -> dict:
    """Environment for `cardiomr` children: the checkout's sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Setups:
    """Times ``repeats`` full set-ups, spread over the run.

    The first builds the inputs the run uses, before any timing. The
    others rebuild them from scratch at even steps of the timed loop and
    are discarded (``cleanup(k)`` removes what repeat ``k`` wrote, untimed),
    so the median set-up time samples the whole run, not one moment of it.
    """

    def __init__(self, build, repeats: int, seconds: float, cleanup=None):
        self.build, self.repeats, self.seconds, self.cleanup = build, repeats, seconds, cleanup
        self.times: list = []

    def _timed(self):
        k = len(self.times)
        t0 = perf_counter()
        result = self.build(k)
        self.times.append(perf_counter() - t0)
        if k and self.cleanup:
            self.cleanup(k)
        return result

    def first(self):
        return self._timed()

    def due(self, elapsed: float) -> None:
        """Run the repeats whose turn has come after ``elapsed`` timed seconds."""
        while len(self.times) < self.repeats and \
                elapsed >= self.seconds * len(self.times) / self.repeats:
            self._timed()

    def median(self) -> float:
        self.due(float("inf"))
        return statistics.median(self.times)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finish(out: Outcome, setup_s: float, op_times: list, peak_mb: float) -> None:
    out.metrics["setup_s"] = (setup_s, "s")
    out.metrics["op_s_p50"] = (statistics.median(op_times), "s")
    out.metrics["ops_per_s"] = (len(op_times) / sum(op_times), "1/s")
    out.metrics["peak_rss_mb"] = (peak_mb, "MB")


def acdc_pipeline(seed: int, seconds: float, work: Path, *, n_cases=3, n_model_cases=10,
                  setups=2, size=None) -> Outcome:
    """One `cardiomr pipeline` child per case, one after another.

    Distinct cases are visited round robin, so every case that repeats
    must reproduce its first report.json byte for byte.
    """
    out = Outcome()
    setup = Setups(
        lambda k: inputs.write_acdc_inputs(seed, work / f"inputs{k}", n_cases, n_model_cases,
                                           **(size or {})),
        setups, seconds, cleanup=lambda k: shutil.rmtree(work / f"inputs{k}"),
    )
    cases, model = setup.first()
    env = child_env()
    # compile and cache the sources once, as an installed package would be
    subprocess.run([sys.executable, "-c", "import cardiomr.cli"], env=env, check=True)

    digests, times = {}, []
    while sum(times) < seconds or len(times) <= len(cases):
        setup.due(sum(times))
        i = len(times)
        case = cases[i % len(cases)]
        out_dir = work / f"run{i}"
        cmd = [sys.executable, "-m", "cardiomr.cli", "pipeline", *case.cli_args(model),
               "--out-dir", str(out_dir)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        times.append(perf_counter() - t0)
        problems, digest = checks.check_pipeline_case(
            proc.returncode, proc.stderr, out_dir, case.center, digests.get(case.case_id)
        )
        digests.setdefault(case.case_id, digest)
        out.record(problems, f"{case.case_id} run {i}")
        shutil.rmtree(out_dir, ignore_errors=True)

    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    finish(out, setup.median(), times, peak_mb)
    out.note("case_s_p50", statistics.median(times), "s", f"n={len(times)} cases")
    out.note("cases_per_s", len(times) / sum(times), "1/s")
    out.note("peak_rss_mb", peak_mb, "MB", "largest max-RSS of the pipeline children")
    return out


def cohort_classify(seed: int, seconds: float, work: Path, *, n_train=60, n_test=40,
                    group=10, setups=5, n_trees=1000) -> Outcome:
    """The train-clf/predict path in process, on a balanced 96x96 cohort.

    One operation extracts the features of ``group`` consecutive cases;
    groups cycle over the cohort until the run time is spent, and a repeat
    must equal the first record. Case cost grows with the slice count
    (6 to 10), so a single-case median would jump between slice counts
    from seed to seed; a group's time does not. Then the ensemble is
    trained and saved on the training split, reloaded once, and asked for
    every held-out record.
    """
    out = Outcome()
    n = n_train + n_test
    setup = Setups(lambda k: disease_cohort(n, seed=seed), setups, seconds)
    cohort = setup.first()
    truth = [kind for *_, kind in cohort]
    inputs.features_of(cohort[0])  # warm lazily imported code paths

    records, times = [], []
    while sum(times) < seconds or len(records) < n:
        setup.due(sum(times))
        first = len(times) * group
        idx = [(first + j) % n for j in range(group)]
        t0 = perf_counter()
        batch = [inputs.features_of(cohort[i]) for i in idx]
        times.append(perf_counter() - t0)
        for i, rec in zip(idx, batch):
            if len(records) < n:
                records.append(rec)
            out.record([] if rec == records[i] else ["features differ on repeat"],
                       f"features of case {i}")

    path = work / "model.pkl"
    ds = diagnosis.Dataset.from_records(records[:n_train], truth[:n_train])
    t0 = perf_counter()
    model = diagnosis.train_ensemble(ds, seed=seed, n_trees=n_trees)
    diagnosis.save_model(model, path)
    train_s = perf_counter() - t0

    t0 = perf_counter()
    loaded = diagnosis.load_model(path)
    reloaded = [diagnosis.predict_two_stage(loaded, r) for r in records[n_train:]]
    predict_s = perf_counter() - t0
    in_memory = [diagnosis.predict_two_stage(model, r) for r in records[n_train:]]
    out.record(checks.check_predictions(reloaded, in_memory, truth[n_train:]), "classify")

    finish(out, setup.median(), times, self_peak_rss_mb())
    out.note("features_cases_per_s", group * len(times) / sum(times), "1/s",
             f"{len(times)} groups of {group} cases at 96x96")
    out.note("train_s", train_s, "s", f"train_ensemble + save_model on {n_train} cases")
    out.note("predict_records_per_s", n_test / predict_s, "1/s",
             f"load_model once + {n_test} predict_two_stage calls")
    return out


def train_step(s: inputs.TrainSlice, augment_seed: int):
    """augment -> weight map -> loss and gradient of one training slice."""
    p = augment.sample_params(augment_seed)
    _, lbl = augment.apply_augment(s.image, s.labels, p, spacing=s.spacing)
    wm = loss.build_weight_map(lbl)
    diag = {}
    total, breakdown = loss.total_loss(s.logits, lbl, wm.values, diagnostics=diag)
    grad = loss.total_loss_grad(s.logits, lbl, wm.values)
    return total, breakdown, grad, wm, lbl


def train_batches(seed: int, seconds: float, work: Path, *, n_cases=8, batch=8, setups=7,
                  shape=inputs.ACDC_SHAPE) -> Outcome:
    """Training-side kernels over 128x128 ROI patches, one minibatch per operation.

    A minibatch is ``batch`` consecutive slices, each augmented, weighted
    and scored on its own. Each pass over the slices draws fresh
    augmentation parameters, as a new training epoch would.
    """
    out = Outcome()
    setup = Setups(lambda k: inputs.train_slices(seed, n_cases, shape=shape), setups, seconds)
    slices = setup.first()
    train_step(slices[0], slices[0].augment_seed)  # warm lazily imported code paths

    times = []
    while sum(times) < seconds or len(times) * batch < len(slices):
        setup.due(sum(times))
        first = len(times) * batch
        steps = []
        t0 = perf_counter()
        for i in range(first, first + batch):
            s = slices[i % len(slices)]
            steps.append(train_step(s, s.augment_seed + i // len(slices)))
        times.append(perf_counter() - t0)
        for i, (total, breakdown, grad, wm, lbl) in enumerate(steps, start=first):
            out.record(checks.check_train_step(total, breakdown, grad, wm.class_term, lbl),
                       f"slice {i}")

    finish(out, setup.median(), times, self_peak_rss_mb())
    out.note("slices_per_s", batch * len(times) / sum(times), "1/s",
             f"{len(times)} minibatches of {batch} 128x128 slices")
    return out


WORKLOADS = {
    "acdc_pipeline": acdc_pipeline,
    "cohort_classify": cohort_classify,
    "train_batches": train_batches,
}
