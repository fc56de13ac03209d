"""Check that two source trees write byte-identical pipeline artifacts.

    python scripts/compare_outputs.py BASE_TREE

For this checkout and for BASE_TREE, a child interpreter imports
``cardiomr`` from ``TREE/src``, writes the benchmark's seeded ACDC-sized
cases (cine, noisy and clean ED/ES labels, and the model they are
classified with) with that tree's own ``bench/inputs.py``, and runs
``run_pipeline`` on every case. On every case it also runs ``cardiomr eval``
on the raw, uncleaned ED and ES segmentations against their ground truths,
and ``cardiomr features`` on the same raw pair. Their islands and holes put
points of nearly every class off the other mask, which the cleaned labels
scored in ``report.json`` rarely do, so the eval CSVs exercise the
Hausdorff distance where it is not zero; and they give the wall-thickness
kernel the noisy contours the pipeline, which measures only cleaned labels,
never shows it. On the first case of each seed it also runs ``cardiomr roi
--out-patch`` and ``cardiomr augment --labels --count 2 --flips`` on that
patch, ``cardiomr weights`` on the raw ED segmentation (the loss's contour
kernel, which nothing else compared runs), and ``cardiomr roi --out-patch``
again on a copy of the cine with seeded i.i.d. Gaussian frame noise at 2%
of its peak, which spreads the temporal harmonic over the whole slice while
the edges stay near the heart (the noise is drawn in the child with a fixed
generator). Once per tree it
writes ``cardiomr netinfo`` text, ``--json`` and ``--dot`` output for
variants A, B and C at the defaults, and the text of a variant C with other
depths, growth rate and input size. Per seed it writes the features of a
96x96 ``disease_cohort`` as CSVs (full precision), runs ``cardiomr
train-clf`` on the first 60 cases and ``cardiomr predict`` on the 40 after
them, so the classifier's labels and audits, with every voter's vote, are
compared directly rather than through the pipeline's one prediction per
case; and it writes ``model.sha256``, a digest of the trained model's
fitted arrays (forest, MLP weights and biases, SVM and naive Bayes state,
preprocessor statistics, the expert's, and the cross-validation
accuracies) as ``load_model`` reads them back, so a training change that
moves no label or vote still shows. These commands run through
``cli.main``. Per seed it also writes ``loss.sha256``, a digest of the loss
kernels in float64 (``weights.vol`` stores float32, and nothing else runs
the gradient): the weight map's arrays and counts, the ``total_loss``
breakdown with its clamp count, and the ``total_loss_grad`` bytes of the
benchmark's augmented training slices, at the default config and at one
that moves every factor. The artifacts (``report.json``, ``roi_patch.vol``, the
cleaned labels, the two eval CSVs and the features CSV of every case; the
ROI center, patch and augmented pairs with their sidecars, the weight map,
and the noisy cine's ROI center and patch, of the first case; each seed's
classifier CSVs, ``predict.json``, ``model.sha256`` and ``loss.sha256``; the
ten ``netinfo`` files; and each seed's ``inputs.sha256``) are then compared
byte for byte. The
input files themselves, the models included, are not compared, so a change
to how a model or a volume is stored passes as long as the same data is
read back.
``inputs.sha256`` holds a digest of every case's cine, segmentations and
ground truths as that tree's own ``load_volume`` decodes them (dtype, shape,
spacing and data), so drift in the phantoms the inputs are drawn from fails
even where no output moves.

A change that alters artifacts on purpose declares them in
``scripts/expected_output_changes.txt``: one glob pattern per line, matched
with ``fnmatch`` against the whole artifact path (``*`` also crosses ``/``),
and ``#`` starting a comment. Every artifact that differs or exists on one
side only is listed. Exits 1 when such an artifact matches no pattern, or
when a pattern matches no such artifact (a declared change that did not
happen, so a stale line fails the next change), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from fnmatch import fnmatchcase
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
EXPECTED_CHANGES = HERE / "scripts" / "expected_output_changes.txt"
SEEDS = (1, 2, 3, 4)
N_CASES = 3
N_MODEL_CASES = 10
AUGMENT_SEED = 7
NOISE_SEED = 11
NOISE_FRAC = 0.02
N_CLF_TRAIN = 60
N_CLF_TEST = 40
N_LOSS_CASES = 2
# (LossConfig keywords, dilate_iters) of each loss digest pass
LOSS_SETTINGS = (({}, 1), (dict(lam=0.7, gamma=1.3, epsilon=1e-3, dice_two_factor=False), 2))


def run_cli(*argv) -> None:
    from cardiomr import cli

    if cli.main([str(a) for a in argv]) != 0:
        raise SystemExit(f"cardiomr {argv[0]} failed")


def write_cli_outputs(case, out: Path) -> None:
    """``roi --out-patch`` on the case's cine, then ``augment`` of that patch
    with the ED segmentation cropped around the same center (its slices
    cycled to the cine's count, so every patch slice has labels), and
    ``weights`` of the raw ED segmentation."""
    from cardiomr.volume import LabelVolume, crop_patch, load_volume, save_volume

    out.mkdir()
    patch = out / "roi_patch.vol"
    run_cli("roi", "--input", case.cine, "--out-center", out / "roi.json", "--out-patch", patch)
    roi = json.loads((out / "roi.json").read_text())
    seg = load_volume(case.seg_ed, "label")
    nz = load_volume(patch, "scalar").dims[2]
    labels = crop_patch(seg, roi["center"], roi["patch_size"]).data
    labels_path = case.cine.parent / "patch_labels.vol"
    save_volume(LabelVolume(data=labels[:, :, [z % seg.dims[2] for z in range(nz)]],
                            spacing=seg.spacing), labels_path)
    run_cli("augment", "--input", patch, "--labels", labels_path, "--count", 2, "--flips",
            "--seed", AUGMENT_SEED, "--out-dir", out / "augment")
    run_cli("weights", "--input", case.seg_ed, "--output", out / "weights.vol")


def write_noisy_roi(case, out: Path) -> None:
    """``roi --out-patch`` on a copy of the case's cine with seeded frame
    noise of standard deviation NOISE_FRAC of the cine's peak."""
    import numpy as np
    from cardiomr.volume import ScalarVolume, load_volume, save_volume

    cine = load_volume(case.cine, "scalar")
    rng = np.random.default_rng(NOISE_SEED)
    sigma = np.float32(NOISE_FRAC * float(np.abs(cine.data).max()))
    noisy = case.cine.parent / "noisy_cine.vol"
    save_volume(ScalarVolume(data=cine.data + sigma * rng.standard_normal(
        cine.data.shape, dtype=np.float32), spacing=cine.spacing), noisy)
    run_cli("roi", "--input", noisy, "--out-center", out / "noisy_roi.json",
            "--out-patch", out / "noisy_roi_patch.vol")


def write_raw_label_csvs(case, out: Path) -> None:
    """``eval`` of the raw ED and ES segmentations against their ground
    truths, and ``features`` of the raw pair."""
    out.mkdir()
    for phase, seg, gt in (("ed", case.seg_ed, case.gt_ed), ("es", case.seg_es, case.gt_es)):
        run_cli("eval", "--pred", seg, "--gt", gt, "--csv", out / f"{phase}.csv")
    run_cli("features", "--ed", case.seg_ed, "--es", case.seg_es, "--case-id", "raw",
            "--out", out / "features.csv")


def write_netinfo_outputs(out: Path) -> None:
    """``netinfo`` text, JSON and DOT of each variant at the defaults, and
    the text of a variant C that changes every size the defaults fix."""
    out.mkdir()
    for variant in "ABC":
        run_cli("netinfo", "--variant", variant, "--out", out / f"{variant}.txt",
                "--dot", out / f"{variant}.dot")
        run_cli("netinfo", "--variant", variant, "--json", "--out", out / f"{variant}.json")
    run_cli("netinfo", "--variant", "C", "--k", 4, "--db-layers", 2, 3, 4, "--db-bottleneck", 5,
            "--input", "1x64x64", "--out", out / "C_k4_64.txt")


def write_classifier_outputs(seed: int, out: Path) -> None:
    """Feature CSVs of a 96x96 ``disease_cohort``, then ``train-clf`` on its
    first N_CLF_TRAIN cases and ``predict`` on the N_CLF_TEST after them."""
    import numpy as np
    from cardiomr.features import FEATURE_NAMES, PhaseLabels, extract_features
    from cardiomr.phantoms import disease_cohort

    out.mkdir()
    cohort = disease_cohort(N_CLF_TRAIN + N_CLF_TEST, seed=seed)
    rows = []
    for i, (ed, es, _) in enumerate(cohort):
        values = extract_features(PhaseLabels(ed=ed, es=es)).to_vector()
        rows.append(",".join([f"case{i}"] + ["" if np.isnan(v) else repr(float(v)) for v in values]))
    header = ",".join(("case_id",) + FEATURE_NAMES)
    for name, part in (("train", rows[:N_CLF_TRAIN]), ("test", rows[N_CLF_TRAIN:])):
        (out / f"{name}.csv").write_text("\n".join([header] + part) + "\n")
    labels = [f"case{i},{kind}" for i, (*_, kind) in enumerate(cohort[:N_CLF_TRAIN])]
    (out / "labels.csv").write_text("\n".join(["case_id,label"] + labels) + "\n")
    run_cli("train-clf", "--features", out / "train.csv", "--labels", out / "labels.csv",
            "--model", out / "model.pkl", "--seed", seed)
    run_cli("predict", "--model", out / "model.pkl", "--features", out / "test.csv",
            "--out", out / "predict.json")
    write_model_digest(out / "model.pkl", out / "model.sha256")


def fitted_arrays(model):
    """``(name, value)`` of every fitted number an ``EnsembleModel`` predicts
    with, and of its cross-validation accuracies, in a fixed order."""
    def mlp(name, clf):
        yield f"{name}.classes_", clf.classes_
        for i, (w, b) in enumerate(zip(clf.W_, clf.b_)):
            yield f"{name}.W_[{i}]", w
            yield f"{name}.b_[{i}]", b

    def prep(name, p):
        for field in ("medians", "means", "stds"):
            yield f"{name}.{field}", getattr(p, field)

    for name in sorted(model.cv_accuracy):
        yield f"cv_accuracy.{name}", model.cv_accuracy[name]
    yield from prep("preprocessor", model.preprocessor)
    svm, gnb, forest = model.stage1["SVM"], model.stage1["GNB"], model.stage1["RF"]
    yield "SVM.classes_", svm.classes_
    yield "SVM.gamma_", svm.gamma_
    for pair in sorted(svm.pairs_):
        for field in ("support_vectors_", "support_coef_", "b"):
            yield f"SVM.pairs_[{pair}].{field}", getattr(svm.pairs_[pair], field)
    yield from mlp("MLP", model.stage1["MLP"])
    for field in ("classes_", "theta_", "var_", "priors_"):
        yield f"GNB.{field}", getattr(gnb, field)
    for field in ("classes_", "roots_", "feature_", "threshold_", "right_", "leaf_class_",
                  "feature_importances_", "feature_importances_std_"):
        yield f"RF.{field}", getattr(forest, field)
    if model.expert is not None:
        yield from mlp("expert", model.expert)
        yield from prep("expert_preprocessor", model.expert_preprocessor)


def write_model_digest(model_path: Path, out: Path) -> None:
    """``model.sha256``: one SHA-256 over the fitted arrays of the model file
    as ``load_model`` reads it back (names, dtypes, shapes and bytes), so a
    change to how the model is stored passes while any training change fails."""
    import hashlib

    import numpy as np
    from cardiomr.diagnosis import load_model

    digest = hashlib.sha256()
    for name, value in fitted_arrays(load_model(model_path)):
        arr = np.ascontiguousarray(value)
        digest.update(repr((name, arr.dtype.str, arr.shape)).encode())
        digest.update(arr.tobytes())
    out.write_text(f"{digest.hexdigest()}  {model_path.name}\n")


def write_loss_digest(train_slices, out: Path) -> None:
    """``loss.sha256``: one SHA-256 over, for each training slice augmented
    by its own seed and each of LOSS_SETTINGS, the weight map's arrays and
    counts, the ``total_loss`` breakdown and clamp count, and the
    ``total_loss_grad`` array."""
    import hashlib

    import numpy as np
    from cardiomr import augment
    from cardiomr.loss import LossConfig, build_weight_map, total_loss, total_loss_grad

    digest = hashlib.sha256()

    def update(name, value):
        arr = np.ascontiguousarray(value)
        digest.update(repr((name, arr.dtype.str, arr.shape)).encode())
        digest.update(arr.tobytes())

    for s in train_slices:
        _, lbl = augment.apply_augment(s.image, s.labels, augment.sample_params(s.augment_seed),
                                       spacing=s.spacing)
        for keywords, dilate_iters in LOSS_SETTINGS:
            cfg = LossConfig(**keywords)
            wm = build_weight_map(lbl, dilate_iters)
            for field in ("values", "class_term", "contour_term"):
                update(field, getattr(wm, field))
            diag = {}
            _, breakdown = total_loss(s.logits, lbl, wm.values, cfg, diagnostics=diag)
            digest.update(repr((wm.class_counts, wm.contour_counts, breakdown, diag)).encode())
            update("grad", total_loss_grad(s.logits, lbl, wm.values, cfg))
    out.write_text(f"{digest.hexdigest()}  loss\n")


def write_input_digests(cases, root: Path) -> None:
    """``inputs.sha256`` under ``root``: one SHA-256 per input volume of each
    case over its decoded dtype, shape, spacing and data."""
    import hashlib

    import numpy as np
    from cardiomr.volume import load_volume

    lines = []
    for case in cases:
        for name in ("cine", "seg_ed", "seg_es", "gt_ed", "gt_es"):
            path = getattr(case, name)
            vol = load_volume(path, "scalar" if name == "cine" else "label")
            digest = hashlib.sha256(repr((vol.data.dtype.str, vol.data.shape, vol.spacing)).encode())
            digest.update(np.ascontiguousarray(vol.data).tobytes())
            lines.append(f"{digest.hexdigest()}  {path.relative_to(root).as_posix()}\n")
    (root / "inputs.sha256").write_text("".join(lines))


def write_outputs(tree: Path, out: Path) -> None:
    """Child side: inputs and pipeline artifacts of every case of every seed."""
    sys.path.insert(0, str(tree / "bench"))
    import cardiomr
    import inputs
    from cardiomr.pipeline import run_pipeline

    for module, root in ((cardiomr, tree / "src"), (inputs, tree / "bench")):
        if root.resolve() not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"imported {module.__file__}, not from {root}")
    for seed in SEEDS:
        cases, model = inputs.write_acdc_inputs(seed, out / f"seed{seed}", N_CASES, N_MODEL_CASES)
        write_input_digests(cases, out / f"seed{seed}")
        for case in cases:
            run_pipeline(case.cine, case.cine.parent / "out", **case.pipeline_kwargs(model))
            write_raw_label_csvs(case, case.cine.parent / "eval")
        write_cli_outputs(cases[0], cases[0].cine.parent / "cli")
        write_noisy_roi(cases[0], cases[0].cine.parent / "cli")
        write_classifier_outputs(seed, out / f"seed{seed}" / "classify")
        write_loss_digest(inputs.train_slices(seed, N_LOSS_CASES),
                          out / f"seed{seed}" / "loss.sha256")
    write_netinfo_outputs(out / "netinfo")


def artifacts_under(root: Path) -> set:
    patterns = ("seed*/inputs.sha256", "seed*/loss.sha256", "seed*/*/out/*", "seed*/*/eval/*",
                "seed*/*/cli/**/*", "seed*/classify/*.csv", "seed*/classify/*.json",
                "seed*/classify/model.sha256", "netinfo/*")
    found = [p for pattern in patterns for p in root.glob(pattern)]
    return {p.relative_to(root) for p in found if p.is_file()}


def declared_patterns(path: Path = EXPECTED_CHANGES) -> list:
    """The glob patterns of ``path``, without comments and blank lines."""
    lines = (line.split("#", 1)[0].strip() for line in path.read_text().splitlines())
    return [line for line in lines if line]


def undeclared(changed, patterns) -> list:
    """Changed artifacts no pattern matches, then patterns matching none of them."""
    problems = [f"undeclared: {p}" for p in changed
                if not any(fnmatchcase(p, pattern) for pattern in patterns)]
    problems += [f"stale pattern: {pattern}" for pattern in patterns
                 if not any(fnmatchcase(p, pattern) for p in changed)]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree to compare against")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        write_outputs(args.base, args.child)
        return 0
    patterns = declared_patterns()

    with tempfile.TemporaryDirectory() as tmp:
        outs, children = {}, []
        for side, tree in (("base", args.base), ("head", HERE)):
            outs[side] = Path(tmp) / side
            env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
            cmd = [sys.executable, __file__, str(tree), "--child", str(outs[side])]
            children.append((side, subprocess.Popen(cmd, env=env)))
        failed = [side for side, child in children if child.wait() != 0]
        if failed:
            print(f"error: the {' and '.join(failed)} run failed", file=sys.stderr)
            return 1

        base, head = artifacts_under(outs["base"]), artifacts_under(outs["head"])
        _, mismatch, errors = filecmp.cmpfiles(
            outs["base"], outs["head"], sorted(base & head), shallow=False
        )
        changed = {Path(p).as_posix(): "differs" for p in mismatch + errors}
        changed.update((p.as_posix(), "base only") for p in base - head)
        changed.update((p.as_posix(), "head only") for p in head - base)
    for path in sorted(changed):
        print(f"{changed[path]}: {path}")
    print(f"{len(base | head) - len(changed)} of {len(base | head)} artifacts identical")
    problems = undeclared(sorted(changed), patterns)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
