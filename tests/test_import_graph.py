"""The shared geometry (Canny, the non-zero window, point-set distances)
lives in ``kernels``, so the training, clean-up, feature and classifier
modules load neither the ROI locator nor the segmentation metrics."""

import os
import subprocess
import sys
from pathlib import Path

import cardiomr

# Imports the modules below in a fresh interpreter, then prints which of
# the two layers they must not depend on were loaded.
LOADED = """
import sys
import cardiomr.loss, cardiomr.postprocess, cardiomr.features, cardiomr.diagnosis, cardiomr.phantoms
print(sorted(m for m in sys.modules if m in ("cardiomr.roi", "cardiomr.metrics")))
"""


def test_loss_postprocess_features_and_diagnosis_load_neither_roi_nor_metrics():
    src = str(Path(cardiomr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", LOADED], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
