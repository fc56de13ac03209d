"""The CLI runs in an interpreter that cannot import scipy.

Of the library, only the Hausdorff KD-tree fallback, taken for a badly
wrong segmentation, needs scipy; ``cardiomr augment`` does not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cardiomr
from cardiomr.diagnosis import Dataset, save_model, train_ensemble
from cardiomr.features import FEATURE_NAMES
from cardiomr.phantoms import heart_label_volume, pulsating_disk_cine
from cardiomr.volume import ScalarVolume, load_volume, save_volume

# Runs ARGV through cli.main with every scipy import failing, then prints
# whether numpy.ma was loaded and, last, the scipy modules loaded (none,
# unless the finder was bypassed).
WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from cardiomr.cli import main
for argv in ARGV:
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def run_without_scipy(argvs):
    src = str(Path(cardiomr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"ARGV = {argvs!r}\n" + WITHOUT_SCIPY
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """A cine, ED/ES segmentations and a small model on disk."""
    tmp = tmp_path_factory.mktemp("no_scipy")
    save_volume(pulsating_disk_cine(shape=(96, 96), center=(48, 50), seed=3), tmp / "cine.vol")
    for name, radius, wall in (("ed", 14, 5), ("es", 10, 7)):
        save_volume(heart_label_volume(shape=(96, 96), n_slices=2, lv_center=(48, 50),
                                       lv_radius=radius, wall_px=wall, rv_offset=(-30, 0)),
                    tmp / f"{name}.vol")
    rng = np.random.default_rng(0)
    labels = np.repeat(["NOR", "MINF", "DCM"], 6)
    X = rng.normal(size=(labels.size, len(FEATURE_NAMES))) + 3 * (labels == "DCM")[:, None]
    save_model(train_ensemble(Dataset(X=X, y=labels), n_trees=5), tmp / "model.pkl")
    return tmp


def test_pipeline_path_commands_run_without_scipy(case, tmp_path):
    c, t = str(case), str(tmp_path)
    argvs = [
        # the ground truths are swapped, so every Hausdorff distance is measured
        ["pipeline", "--input", f"{c}/cine.vol", "--seg-ed", f"{c}/ed.vol",
         "--seg-es", f"{c}/es.vol", "--gt-ed", f"{c}/es.vol", "--gt-es", f"{c}/ed.vol",
         "--model", f"{c}/model.pkl", "--out-dir", f"{t}/run"],
        ["roi", "--input", f"{c}/cine.vol", "--out-center", f"{t}/roi.json",
         "--out-patch", f"{t}/patch.vol"],
        ["postproc", "--input", f"{c}/ed.vol", "--output", f"{t}/clean.vol"],
        ["eval", "--pred", f"{c}/ed.vol", "--gt", f"{c}/es.vol", "--csv", f"{t}/eval.csv"],
        ["features", "--ed", f"{c}/ed.vol", "--es", f"{c}/es.vol", "--case-id", "c0",
         "--out", f"{t}/features.csv"],
        ["predict", "--model", f"{c}/model.pkl", "--features", f"{t}/features.csv",
         "--out", f"{t}/predict.json"],
        ["weights", "--input", f"{c}/ed.vol", "--output", f"{t}/weights.vol"],
    ]
    proc = run_without_scipy(argvs)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["stages"]["predict"]["label"] in ("NOR", "MINF", "DCM")
    assert all(p[name]["hd_mm"] > 0 for p in report["stages"]["metrics"].values()
               for name in ("LV", "MYO"))
    assert "c0" in json.loads((tmp_path / "predict.json").read_text())


def test_pipeline_leaves_out_numpy_ma(case, tmp_path):
    # numpy 2.4's first np.unique call of a process imports numpy.ma (~14 ms)
    c = str(case)
    argv = ["pipeline", "--input", f"{c}/cine.vol", "--seg-ed", f"{c}/ed.vol",
            "--seg-es", f"{c}/es.vol", "--gt-ed", f"{c}/es.vol", "--gt-es", f"{c}/ed.vol",
            "--model", f"{c}/model.pkl", "--out-dir", str(tmp_path / "run")]
    proc = run_without_scipy([argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-2:] == ["False", "[]"]
    assert "predict" in json.loads((tmp_path / "run" / "report.json").read_text())["stages"]


@pytest.mark.parametrize("command", ["weights", "loss"])
def test_loss_commands_leave_out_numpy_ma(case, tmp_path, command):
    c, t = str(case), str(tmp_path)
    if command == "weights":
        argv = ["weights", "--input", f"{c}/ed.vol", "--output", f"{t}/weights.vol"]
    else:
        ed = load_volume(case / "ed.vol", "label")
        probs = np.stack([(ed.data == k) + 0.1 for k in range(4)], axis=3).astype(np.float32)
        save_volume(ScalarVolume(data=probs / probs.sum(axis=3, keepdims=True)),
                    tmp_path / "probs.vol")
        argv = ["loss", "--probs", f"{t}/probs.vol", "--labels", f"{c}/ed.vol",
                "--out", f"{t}/loss.json"]
    proc = run_without_scipy([argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-2:] == ["False", "[]"]


def test_augment_runs_without_scipy(case, tmp_path):
    save_volume(heart_label_volume(shape=(96, 96), n_slices=1, lv_center=(48, 50)),
                tmp_path / "labels.vol")
    argv = ["augment", "--input", f"{case}/cine.vol", "--labels", f"{tmp_path}/labels.vol",
            "--count", "2", "--flips", "--out-dir", f"{tmp_path}/aug"]
    proc = run_without_scipy([argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert load_volume(tmp_path / "aug" / "aug_001_labels.vol", "label").dims == (96, 96, 1)
