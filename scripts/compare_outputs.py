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
patch. These commands run through ``cli.main``. The artifacts
(``report.json``, ``roi_patch.vol``, the cleaned labels, the two eval CSVs
and the features CSV of every case; the ROI center, patch and augmented
pairs with their sidecars of the first case) are then
compared byte for byte. The inputs are not compared, so a change to how a
model or a volume is stored passes as long as the pipeline reads back the
same data. Exits 0 when all artifacts are identical, 1 otherwise, listing
the files that differ or exist on one side only.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4)
N_CASES = 3
N_MODEL_CASES = 10
AUGMENT_SEED = 7


def run_cli(*argv) -> None:
    from cardiomr import cli

    if cli.main([str(a) for a in argv]) != 0:
        raise SystemExit(f"cardiomr {argv[0]} failed")


def write_cli_outputs(case, out: Path) -> None:
    """``roi --out-patch`` on the case's cine, then ``augment`` of that patch
    with the ED segmentation cropped around the same center (its slices
    cycled to the cine's count, so every patch slice has labels)."""
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


def write_raw_label_csvs(case, out: Path) -> None:
    """``eval`` of the raw ED and ES segmentations against their ground
    truths, and ``features`` of the raw pair."""
    out.mkdir()
    for phase, seg, gt in (("ed", case.seg_ed, case.gt_ed), ("es", case.seg_es, case.gt_es)):
        run_cli("eval", "--pred", seg, "--gt", gt, "--csv", out / f"{phase}.csv")
    run_cli("features", "--ed", case.seg_ed, "--es", case.seg_es, "--case-id", "raw",
            "--out", out / "features.csv")


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
        for case in cases:
            run_pipeline(case.cine, case.cine.parent / "out", **case.pipeline_kwargs(model))
            write_raw_label_csvs(case, case.cine.parent / "eval")
        write_cli_outputs(cases[0], cases[0].cine.parent / "cli")


def artifacts_under(root: Path) -> set:
    found = [p for pattern in ("seed*/*/out/*", "seed*/*/eval/*", "seed*/*/cli/**/*")
             for p in root.glob(pattern)]
    return {p.relative_to(root) for p in found if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree to compare against")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        write_outputs(args.base, args.child)
        return 0

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
        problems = [f"differs: {p}" for p in mismatch + errors]
        problems += [f"base only: {p}" for p in sorted(base - head)]
        problems += [f"head only: {p}" for p in sorted(head - base)]
    for line in problems:
        print(line)
    print(f"{len(base & head) - len(mismatch) - len(errors)} of {len(base | head)} artifacts identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
