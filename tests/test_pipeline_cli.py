import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cardiomr.cli import build_parser, main
from cardiomr.features import FEATURE_NAMES, MYOCARDIUM_DENSITY_G_PER_ML
from cardiomr.loss import LossConfig
from cardiomr.phantoms import heart_label_volume, pulsating_disk_cine
from cardiomr.pipeline import (
    CONFIG_SCHEMA,
    ConfigError,
    PipelineConfig,
    PipelineError,
    parse_config_file,
    probs_to_labels,
    run_pipeline,
)
from cardiomr.roi import RoiConfig
from cardiomr.volume import MAX_HEADER_BYTES, LabelVolume, ScalarVolume, load_volume, save_volume


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """A phantom case: cine + matching ED/ES segmentations on disk."""
    tmp = tmp_path_factory.mktemp("case")
    cine = pulsating_disk_cine(shape=(160, 160), center=(80, 80), seed=5)
    save_volume(cine, tmp / "cine.vol")
    ed = heart_label_volume(shape=(160, 160), n_slices=1, lv_center=(80, 80),
                            lv_radius=14, wall_px=5, rv_offset=(-31, 0))
    es = heart_label_volume(shape=(160, 160), n_slices=1, lv_center=(80, 80),
                            lv_radius=10, wall_px=7, rv_offset=(-31, 0))
    save_volume(ed, tmp / "ed.vol")
    save_volume(es, tmp / "es.vol")
    return tmp


@pytest.fixture(scope="module")
def static_cine(tmp_path_factory):
    """A cine with no motion at all: no H1 energy, so no Hough circles."""
    rng = np.random.default_rng(2)
    frame = rng.random((160, 150)).astype(np.float32)
    path = tmp_path_factory.mktemp("static") / "cine.vol"
    save_volume(ScalarVolume(data=np.repeat(frame[:, :, None, None], 12, axis=3)), path)
    return path


def _loaded_by_cli_import(module, argv=None):
    """Whether a fresh ``import cardiomr.cli`` loads ``module``; with
    ``argv``, whether it is loaded once ``cli.main(argv)`` has returned 0."""
    import cardiomr

    src = str(Path(cardiomr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, cardiomr.cli"
    if argv is not None:
        code += f"; assert cardiomr.cli.main({argv!r}) == 0"
    code += f"; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1] == "True"


def test_cli_import_leaves_out_scipy_signal():
    assert not _loaded_by_cli_import("scipy.signal")


def test_cli_import_leaves_out_scipy_spatial():
    assert not _loaded_by_cli_import("scipy.spatial")


def test_cli_import_leaves_out_netgraph():
    assert not _loaded_by_cli_import("cardiomr.netgraph")


def test_pipeline_with_ground_truth_leaves_out_scipy_spatial(case, tmp_path):
    # the ground truths are swapped, so the LV and MYO distances are non-zero
    out = tmp_path / "out"
    argv = ["pipeline", "--input", str(case / "cine.vol"),
            "--seg-ed", str(case / "ed.vol"), "--seg-es", str(case / "es.vol"),
            "--gt-ed", str(case / "es.vol"), "--gt-es", str(case / "ed.vol"),
            "--out-dir", str(out)]
    assert not _loaded_by_cli_import("scipy.spatial", argv)
    metrics = json.loads((out / "report.json").read_text())["stages"]["metrics"]
    assert all(phase[name]["hd_mm"] > 0 for phase in metrics.values() for name in ("LV", "MYO"))


def test_pipeline_with_model_and_ground_truth_leaves_out_scipy(case, tmp_path):
    from cardiomr.diagnosis import Dataset, save_model, train_ensemble

    rng = np.random.default_rng(0)
    labels = np.repeat(["NOR", "MINF", "DCM"], 6)
    X = rng.normal(size=(labels.size, len(FEATURE_NAMES))) + 3 * (labels == "DCM")[:, None]
    save_model(train_ensemble(Dataset(X=X, y=labels), n_trees=5), tmp_path / "model.pkl")
    argv = ["pipeline", "--input", str(case / "cine.vol"),
            "--seg-ed", str(case / "ed.vol"), "--seg-es", str(case / "es.vol"),
            "--gt-ed", str(case / "es.vol"), "--gt-es", str(case / "ed.vol"),
            "--model", str(tmp_path / "model.pkl"), "--out-dir", str(tmp_path / "out")]
    assert not _loaded_by_cli_import("scipy")
    assert not _loaded_by_cli_import("scipy", argv)
    assert "predict" in json.loads((tmp_path / "out" / "report.json").read_text())["stages"]


class TestConfig:
    def test_defaults_present(self):
        cfg = PipelineConfig()
        assert cfg["roi.patch_w"] == 128
        assert cfg["loss.eta"] == 5e-4

    def test_defaults_come_from_their_owners(self):
        cfg = PipelineConfig()
        assert cfg.roi_config() == RoiConfig()
        assert cfg.loss_config() == LossConfig()
        assert cfg["features.density"] == MYOCARDIUM_DENSITY_G_PER_ML

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("nonsense.key = 1\n")
        with pytest.raises(ConfigError, match="nonsense.key"):
            parse_config_file(f)

    def test_config_file_is_read_only_to_the_cap(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("roi.top_p = 7\n# " + "x" * MAX_HEADER_BYTES + "\n")
        with pytest.raises(ConfigError, match=f"larger than {MAX_HEADER_BYTES} bytes"):
            parse_config_file(f)
        f.write_text("roi.top_p = 7\n#" + "x" * (MAX_HEADER_BYTES - 16) + "\n")
        assert parse_config_file(f) == {"roi.top_p": "7"}

    def test_file_and_env_and_override_precedence(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("roi.top_p = 7\nroi.radius_min = 12  # comment\n")
        cfg = PipelineConfig.load(
            path=f,
            env={"CARDIOMR_ROI_TOP_P": "9"},
            overrides={"roi.radius_min": 14},
        )
        assert cfg["roi.top_p"] == 9
        assert cfg["roi.radius_min"] == 14

    def test_bool_parsing(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("postproc.skip_fill = true\nloss.dice_two_factor = 0\n")
        cfg = PipelineConfig.load(path=f, env={})
        assert cfg["postproc.skip_fill"] is True
        assert cfg["loss.dice_two_factor"] is False

    def test_bool_words(self):
        words = {" YES ": True, "On": True, "1": True, True: True,
                 "no": False, "OFF\t": False, "0": False, False: False}
        for word, value in words.items():
            assert PipelineConfig(values={"postproc.skip_3d": word})["postproc.skip_3d"] is value

    @pytest.mark.parametrize("word", ["ture", "", "2", "enabled"])
    def test_unknown_bool_word_rejected(self, tmp_path, word):
        f = tmp_path / "c.cfg"
        f.write_text(f"postproc.skip_3d = {word}\n")
        with pytest.raises(ConfigError, match="postproc.skip_3d"):
            PipelineConfig.load(path=f, env={})
        with pytest.raises(ConfigError, match="postproc.skip_fill"):
            PipelineConfig.load(env={"CARDIOMR_POSTPROC_SKIP_FILL": word})

    @pytest.mark.parametrize("word", ["nan", " NaN ", "inf", "-Infinity", float("nan")])
    def test_non_finite_float_rejected(self, word):
        float_keys = [key for key, (_, default) in CONFIG_SCHEMA.items() if type(default) is float]
        assert {"roi.vote_sigma", "loss.epsilon", "loss.lambda", "features.density"} <= set(float_keys)
        for key in float_keys:
            with pytest.raises(ConfigError, match=key):
                PipelineConfig(values={key: word})
        with pytest.raises(ConfigError, match="features.density"):
            PipelineConfig.load(env={"CARDIOMR_FEATURES_DENSITY": str(word)})

    @pytest.mark.parametrize("owner, field", [
        (RoiConfig, "vote_sigma"), (RoiConfig, "canny_sigma"),
        (LossConfig, "epsilon"), (LossConfig, "lam"), (LossConfig, "gamma"), (LossConfig, "eta"),
    ])
    def test_owner_configs_refuse_nan(self, owner, field):
        with pytest.raises(ValueError):
            owner(**{field: float("nan")})

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="roi.top_p"):
            PipelineConfig(values={"roi.top_p": "many"})

    def test_seed_is_not_a_key(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("seed = 1\n")
        with pytest.raises(ConfigError, match="'seed'"):
            PipelineConfig.load(path=f, env={})


class TestProbsToLabels:
    def test_argmax_conversion(self):
        probs = np.zeros((4, 4, 1, 4))
        probs[:, :, :, 1] = 0.6
        probs[:, :, :, 0] = 0.4
        probs[2, 2, 0] = [0.1, 0.2, 0.0, 0.7]
        vol = ScalarVolume(data=probs, spacing=(1, 1, 1, 1))
        lbl = probs_to_labels(vol)
        assert lbl.data[0, 0, 0] == 1
        assert lbl.data[2, 2, 0] == 3

    def test_labels_of_a_loaded_volume_have_the_loaded_layout(self, tmp_path):
        # metrics.confusion is ~10x slower on labels of mixed layouts
        rng = np.random.default_rng(3)
        probs = rng.random((6, 5, 3, 4)).astype(np.float32)
        save_volume(ScalarVolume(data=probs), tmp_path / "probs.vol")
        save_volume(LabelVolume(data=probs.argmax(axis=3).astype(np.uint8)),
                    tmp_path / "labels.vol")
        gt = load_volume(tmp_path / "labels.vol", "label").data
        labels = probs_to_labels(load_volume(tmp_path / "probs.vol", "scalar")).data
        assert np.array_equal(labels, gt)
        assert gt.flags.f_contiguous and labels.flags.f_contiguous
        in_memory = probs_to_labels(ScalarVolume(data=probs)).data
        assert np.array_equal(in_memory, gt) and in_memory.flags.c_contiguous

    def test_nan_rejected(self):
        # ScalarVolume itself refuses non-finite data, so the NaN arrives
        # through another array-backed volume
        probs = np.full((4, 4, 1, 4), 0.25)
        probs[1, 2, 0, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            probs_to_labels(SimpleNamespace(data=probs, spacing=(1, 1, 1, 1)))


def _missing_cine(case, tmp):
    return {"cine": tmp / "missing.vol"}


def _no_labels(case, tmp):
    return {"seg_ed": None, "seg_es": None}


def _labels_4d(case, tmp):
    ed = load_volume(case / "ed.vol", "label")
    save_volume(LabelVolume(data=np.stack([ed.data, ed.data], axis=3),
                            spacing=ed.spacing + (1.0,)), tmp / "ed4.vol")
    return {"seg_ed": tmp / "ed4.vol"}


def _gt_other_spacing(case, tmp):
    ed = load_volume(case / "ed.vol", "label")
    save_volume(LabelVolume(data=ed.data, spacing=tuple(2 * s for s in ed.spacing)),
                tmp / "gt.vol")
    return {"gt_ed": tmp / "gt.vol"}


def _no_es(case, tmp):
    return {"seg_es": None}


def _not_a_model(case, tmp):
    (tmp / "model.pkl").write_text("not a model\n")
    return {"model_path": tmp / "model.pkl"}


class TestRunPipeline:
    @pytest.mark.parametrize("stage, breaks", [
        ("roi", _missing_cine),
        ("segmentation", _no_labels),
        ("segmentation", _labels_4d),
        ("metrics", _gt_other_spacing),
        ("features", _no_es),
        ("predict", _not_a_model),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_broken_input_names_its_stage(self, case, tmp_path, stage, breaks):
        kwargs = dict(cine=case / "cine.vol", seg_ed=case / "ed.vol", seg_es=case / "es.vol")
        kwargs.update(breaks(case, tmp_path))
        cine = kwargs.pop("cine")
        with pytest.raises(PipelineError) as err:
            run_pipeline(cine, tmp_path / "out", **kwargs)
        assert err.value.stage == stage
        assert str(err.value).startswith(f"stage '{stage}' failed: ")

    def test_phantom_case_full_report(self, case, tmp_path):
        report = run_pipeline(
            case / "cine.vol", tmp_path / "out",
            seg_ed=case / "ed.vol", seg_es=case / "es.vol",
            gt_ed=case / "ed.vol", gt_es=case / "es.vol",
        )
        assert report["schema"] == 1
        center = report["stages"]["roi"]["center"]
        assert np.hypot(center[0] - 80, center[1] - 80) <= 2.0
        assert "fallback" not in report["stages"]["roi"]
        for phase in ("ED", "ES"):
            for cls in ("RV", "MYO", "LV"):
                m = report["stages"]["metrics"][phase][cls]
                assert m["dice"] == 1.0
                assert m["hd_mm"] == 0.0
        assert report["stages"]["features"]["lv_ejection_fraction"] is not None
        patch = load_volume(tmp_path / "out" / "roi_patch.vol", "scalar")
        assert patch.dims[:2] == (128, 128)

    def test_patch_size_override_propagates(self, case, tmp_path):
        cfg = PipelineConfig(values={"roi.patch_w": 64, "roi.patch_h": 64})
        report = run_pipeline(
            case / "cine.vol", tmp_path / "o2",
            seg_ed=case / "ed.vol", seg_es=case / "es.vol", config=cfg,
        )
        assert report["stages"]["roi"]["patch_size"] == [64, 64]
        patch = load_volume(tmp_path / "o2" / "roi_patch.vol", "scalar")
        assert patch.dims[:2] == (64, 64)

    def test_missing_es_aborts_at_features_stage(self, case, tmp_path):
        with pytest.raises(PipelineError, match="features") as err:
            run_pipeline(case / "cine.vol", tmp_path / "o3", seg_ed=case / "ed.vol")
        assert err.value.stage == "features"
        assert "ES" in err.value.cause
        # artifacts from earlier stages are retained
        assert (tmp_path / "o3" / "roi_patch.vol").exists()

    def test_static_cine_falls_back_to_image_center(self, case, static_cine, tmp_path):
        report = run_pipeline(
            static_cine, tmp_path / "out",
            seg_ed=case / "ed.vol", seg_es=case / "es.vol",
        )
        assert report["stages"]["roi"]["center"] == [80, 75]
        assert report["stages"]["roi"]["fallback"] == "image_center"
        assert "features" in report["stages"]
        patch = load_volume(tmp_path / "out" / "roi_patch.vol", "scalar")
        assert patch.dims[:2] == (128, 128)

    def test_same_seed_bytewise_identical_reports(self, case, tmp_path):
        kwargs = dict(seg_ed=case / "ed.vol", seg_es=case / "es.vol",
                      gt_ed=case / "ed.vol", gt_es=case / "es.vol")
        run_pipeline(case / "cine.vol", tmp_path / "r1", **kwargs)
        run_pipeline(case / "cine.vol", tmp_path / "r2", **kwargs)
        assert (tmp_path / "r1" / "report.json").read_bytes() == \
               (tmp_path / "r2" / "report.json").read_bytes()


class TestCli:
    def test_roi_subcommand(self, case, tmp_path, capsys):
        rc = main([
            "roi", "--input", str(case / "cine.vol"),
            "--out-center", str(tmp_path / "center.json"),
            "--out-patch", str(tmp_path / "patch.vol"),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "center.json").read_text())
        assert payload["patch_size"] == [128, 128]
        assert load_volume(tmp_path / "patch.vol", "scalar").dims[:2] == (128, 128)

    def test_roi_subcommand_static_cine_falls_back(self, static_cine, tmp_path):
        rc = main([
            "roi", "--input", str(static_cine),
            "--out-center", str(tmp_path / "center.json"),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "center.json").read_text())
        assert payload == {"center": [80, 75], "fallback": "image_center",
                           "patch_size": [128, 128]}

    def test_weights_and_loss_subcommands(self, case, tmp_path):
        rc = main([
            "weights", "--input", str(case / "ed.vol"),
            "--output", str(tmp_path / "w.vol"),
        ])
        assert rc == 0
        w = load_volume(tmp_path / "w.vol", "scalar")
        assert np.all(w.data > 0)

        # one-hot probabilities from the labels themselves: near-zero CE
        ed = load_volume(case / "ed.vol", "label")
        onehot = np.zeros(ed.dims + (4,), dtype=np.float32)
        for c in range(4):
            onehot[:, :, :, c] = ed.data == c
        onehot = np.clip(onehot, 1e-6, 1 - 3e-6)
        onehot /= onehot.sum(axis=3, keepdims=True)
        save_volume(ScalarVolume(data=onehot, spacing=ed.spacing + (1.0,)),
                    tmp_path / "probs.vol")
        rc = main([
            "loss", "--probs", str(tmp_path / "probs.vol"),
            "--labels", str(case / "ed.vol"),
            "--out", str(tmp_path / "loss.json"),
        ])
        assert rc == 0
        parts = json.loads((tmp_path / "loss.json").read_text())
        assert set(parts) == {"ce", "dice_loss", "total"}
        assert parts["dice_loss"] < 0.01

    def test_postproc_subcommand(self, case, tmp_path):
        noisy = load_volume(case / "ed.vol", "label")
        data = np.array(noisy.data)
        data[0, 0, 0] = 3  # satellite
        save_volume(LabelVolume(data=data, spacing=noisy.spacing), tmp_path / "noisy.vol")
        rc = main([
            "postproc", "--input", str(tmp_path / "noisy.vol"),
            "--output", str(tmp_path / "clean.vol"),
        ])
        assert rc == 0
        clean = load_volume(tmp_path / "clean.vol", "label")
        assert clean.data[0, 0, 0] == 0

    def test_eval_subcommand_csv(self, case, tmp_path):
        out = tmp_path / "metrics.csv"
        rc = main([
            "eval", "--pred", str(case / "ed.vol"), "--gt", str(case / "ed.vol"),
            "--csv", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "case_id,class,dice,jaccard,tpr,spc,ppv,npv,hd_mm"
        assert any(line.startswith("mean,") for line in lines)
        assert any(line.startswith("std,") for line in lines)

    @pytest.mark.parametrize("density", ["nan", "inf", "-1.05", "0"])
    def test_features_refuses_bad_density(self, case, tmp_path, monkeypatch, capsys, density):
        monkeypatch.setenv("CARDIOMR_FEATURES_DENSITY", density)
        rc = main([
            "features", "--ed", str(case / "ed.vol"), "--es", str(case / "es.vol"),
            "--out", str(tmp_path / "features.csv"),
        ])
        assert rc == 2
        assert "density" in capsys.readouterr().err
        assert not (tmp_path / "features.csv").exists()

    def test_features_train_predict_cycle(self, case, tmp_path):
        feats = tmp_path / "features.csv"
        rc = main([
            "features", "--ed", str(case / "ed.vol"), "--es", str(case / "es.vol"),
            "--out", str(feats), "--case-id", "case0",
        ])
        assert rc == 0
        header = feats.read_text().splitlines()[0].split(",")
        assert header == ["case_id"] + list(FEATURE_NAMES)

        # tile the single case into a small labeled cohort
        rng = np.random.default_rng(0)
        base = feats.read_text().splitlines()[1].split(",")
        rows = ["case_id," + ",".join(FEATURE_NAMES)]
        labels = ["case_id,label"]
        diseases = ("NOR", "MINF", "DCM", "HCM", "ARV")
        for i in range(30):
            lab = diseases[i % 5]
            vals = np.array([float(v) for v in base[1:]])
            vals = vals * (1 + 0.01 * rng.normal(size=vals.size)) + 3 * (i % 5)
            rows.append(f"case{i}," + ",".join(f"{v:.6f}" for v in vals))
            labels.append(f"case{i},{lab}")
        (tmp_path / "cohort.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "labels.csv").write_text("\n".join(labels) + "\n")

        model = tmp_path / "model.pkl"
        rc = main([
            "train-clf", "--features", str(tmp_path / "cohort.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--model", str(model), "--seed", "0", "--trees", "10",
        ])
        assert rc == 0 and model.exists()

        rc = main([
            "predict", "--model", str(model),
            "--features", str(tmp_path / "cohort.csv"),
            "--out", str(tmp_path / "pred.json"),
        ])
        assert rc == 0
        pred = json.loads((tmp_path / "pred.json").read_text())
        assert set(pred["case0"]["audit"]["votes"]) == {"SVM", "MLP", "GNB", "RF"}
        assert pred["case0"]["label"] in diseases

    def test_netinfo_subcommand(self, tmp_path):
        rc = main([
            "netinfo", "--variant", "C", "--k", "12", "--f", "36", "--p", "3",
            "--input", "1x128x128", "--json", "--out", str(tmp_path / "net.json"),
            "--dot", str(tmp_path / "net.dot"),
        ])
        assert rc == 0
        info = json.loads((tmp_path / "net.json").read_text())
        assert info["output_shape"] == [4, 128, 128]
        assert (tmp_path / "net.dot").read_text().startswith("digraph")

    def test_pipeline_subcommand_exit_codes(self, case, tmp_path, capsys):
        rc = main([
            "pipeline", "--input", str(case / "cine.vol"),
            "--seg-ed", str(case / "ed.vol"), "--seg-es", str(case / "es.vol"),
            "--out-dir", str(tmp_path / "ok"),
        ])
        assert rc == 0
        rc = main([
            "pipeline", "--input", str(case / "cine.vol"),
            "--seg-ed", str(case / "ed.vol"),
            "--out-dir", str(tmp_path / "fail"),
        ])
        assert rc == 3
        assert "error: stage 'features' failed: " in capsys.readouterr().err

    def test_augment_subcommand_sidecars(self, case, tmp_path):
        out = tmp_path / "aug"
        rc = main([
            "augment", "--input", str(case / "cine.vol"),
            "--labels", str(case / "ed.vol"),
            "--seed", "3", "--count", "2", "--out-dir", str(out),
        ])
        assert rc == 0
        assert (out / "aug_000.vol").exists()
        assert (out / "aug_001_labels.vol").exists()
        sidecar = json.loads((out / "aug_000.json").read_text())
        assert {"angle_deg", "shift_mm", "zoom", "noise_sigma",
                "elastic_grid", "noise_seed", "flips"} <= set(sidecar)

    @pytest.mark.parametrize("lbl_shape", [(8, 8, 2), (8, 7, 3), (8, 8, 3, 1), (8, 8, 3, 3)])
    def test_augment_labels_off_the_image_grid_exit_2(self, tmp_path, capsys, lbl_shape):
        cine = ScalarVolume(data=np.zeros((8, 8, 3, 2), dtype=np.float32))
        lbl = LabelVolume(data=np.zeros(lbl_shape, dtype=np.uint8), spacing=(1.0,) * len(lbl_shape))
        save_volume(cine, tmp_path / "cine.vol")
        save_volume(lbl, tmp_path / "lbl.vol")
        rc = main(["augment", "--input", str(tmp_path / "cine.vol"),
                   "--labels", str(tmp_path / "lbl.vol"), "--out-dir", str(tmp_path / "aug")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(lbl_shape) in err and "(8, 8, 3, 2)" in err
        assert not list((tmp_path / "aug").glob("*.vol"))

    def test_pipeline_has_no_seed_flag(self, case, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--input", str(case / "cine.vol"),
                  "--out-dir", str(tmp_path / "out"), "--seed", "1"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_error_exit_is_nonzero_with_stderr(self, tmp_path, capsys):
        rc = main(["roi", "--input", str(tmp_path / "missing.vol")])
        assert rc != 0
        assert "error" in capsys.readouterr().err.lower()

    def test_config_flag_only_where_configuration_is_read(self, tmp_path):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        with_config = {
            name for name, p in sub.choices.items()
            if any("--config" in a.option_strings for a in p._actions)
        }
        assert with_config == {"roi", "weights", "loss", "postproc", "features", "pipeline"}
        with pytest.raises(SystemExit) as exc:
            main(["netinfo", "--config", str(tmp_path / "missing.cfg")])
        assert exc.value.code == 2

    def test_postproc_skip_flag_equals_config_key(self, case, tmp_path, monkeypatch):
        monkeypatch.delenv("CARDIOMR_POSTPROC_SKIP_FILL", raising=False)
        noisy = load_volume(case / "ed.vol", "label")
        data = np.array(noisy.data)
        x, y = np.argwhere(data[:, :, 0] == 3).mean(axis=0).round().astype(int)
        assert (data[x - 1:x + 2, y - 1:y + 2, 0] == 3).all()
        data[x, y, 0] = 0  # a hole in the LV that only the fill pass closes
        save_volume(LabelVolume(data=data, spacing=noisy.spacing), tmp_path / "in.vol")
        cfg = tmp_path / "skip.cfg"
        cfg.write_text("postproc.skip_fill = true\n")
        runs = {"flag": ["--skip-fill"], "config": ["--config", str(cfg)], "default": []}
        for name, extra in runs.items():
            assert main(["postproc", "--input", str(tmp_path / "in.vol"),
                         "--output", str(tmp_path / f"{name}.vol")] + extra) == 0
        out = {name: load_volume(tmp_path / f"{name}.vol", "label").data for name in runs}
        assert np.array_equal(out["flag"], out["config"])
        assert out["flag"][x, y, 0] == 0
        assert out["default"][x, y, 0] == 3


class TestCsvColumns:
    """A CSV without a required column is a usage error (exit 2), not a crash."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        from cardiomr.diagnosis import Dataset, save_model, train_ensemble

        rng = np.random.default_rng(0)
        labels = np.repeat(["NOR", "MINF", "DCM"], 6)
        X = rng.normal(size=(labels.size, len(FEATURE_NAMES))) + 3 * (labels == "DCM")[:, None]
        path = tmp_path_factory.mktemp("model") / "model.pkl"
        save_model(train_ensemble(Dataset(X=X, y=labels), n_trees=5), path)
        return path

    @staticmethod
    def write_csv(path, header, rows):
        path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")
        return str(path)

    def features_without_case_id(self, tmp_path):
        return self.write_csv(tmp_path / "features.csv", ["id"] + list(FEATURE_NAMES),
                              [["c0"] + ["1.5"] * len(FEATURE_NAMES)])

    def test_predict(self, model, tmp_path, capsys):
        rc = main(["predict", "--model", str(model),
                   "--features", self.features_without_case_id(tmp_path)])
        assert rc == 2
        assert "missing column(s): case_id" in capsys.readouterr().err

    def test_train_clf(self, tmp_path, capsys):
        labels = self.write_csv(tmp_path / "labels.csv", ["case_id", "label"], [["c0", "NOR"]])
        rc = main(["train-clf", "--features", self.features_without_case_id(tmp_path),
                   "--labels", labels, "--model", str(tmp_path / "m.pkl")])
        assert rc == 2
        assert "missing column(s): case_id" in capsys.readouterr().err
        assert not (tmp_path / "m.pkl").exists()

    def run_with_features(self, command, model, tmp_path, header, rows):
        """``command`` (predict or train-clf) on a features CSV of ``rows``."""
        features = self.write_csv(tmp_path / "features.csv", header, rows)
        if command == "predict":
            return main(["predict", "--model", str(model), "--features", features])
        labels = self.write_csv(tmp_path / "labels.csv", ["case_id", "label"],
                                [[r[0], ("NOR", "DCM")[i % 2]] for i, r in enumerate(rows)])
        return main(["train-clf", "--features", features, "--labels", labels,
                     "--model", str(tmp_path / "m.pkl"), "--trees", "3"])

    @pytest.mark.parametrize("command", ["predict", "train-clf"])
    def test_missing_feature_column(self, command, model, tmp_path, capsys):
        header = ["case_id"] + [n.replace("fraction", "fracton") for n in FEATURE_NAMES]
        rows = [[f"c{i}"] + ["1.5"] * len(FEATURE_NAMES) for i in range(4)]
        assert self.run_with_features(command, model, tmp_path, header, rows) == 2
        err = capsys.readouterr().err
        assert "features.csv" in err and "missing column(s): lv_ejection_fraction, rv_ejection_fraction" in err
        assert not (tmp_path / "m.pkl").exists()

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1.5x", "1e999"])
    @pytest.mark.parametrize("command", ["predict", "train-clf"])
    def test_non_finite_cell(self, command, cell, model, tmp_path, capsys):
        rows = [[f"c{i}"] + ["1.5"] * len(FEATURE_NAMES) for i in range(4)]
        rows[2][5] = cell
        rc = self.run_with_features(command, model, tmp_path, ["case_id"] + list(FEATURE_NAMES),
                                    rows)
        assert rc == 2
        err = capsys.readouterr().err
        assert "features.csv" in err and "'c2'" in err and FEATURE_NAMES[4] in err
        assert "not a finite number" in err

    @pytest.mark.parametrize("command", ["predict", "train-clf"])
    def test_repeated_case_id(self, command, model, tmp_path, capsys):
        rows = [[f"c{i % 3}"] + ["1.5"] * len(FEATURE_NAMES) for i in range(4)]
        rc = self.run_with_features(command, model, tmp_path, ["case_id"] + list(FEATURE_NAMES),
                                    rows)
        assert rc == 2
        err = capsys.readouterr().err
        assert "features.csv" in err and "'c0' appears more than once" in err

    def test_empty_cell_is_missing(self, model, tmp_path, capsys):
        rows = [["c0"] + [""] + ["1.5"] * (len(FEATURE_NAMES) - 1)]
        out = tmp_path / "pred.json"
        features = self.write_csv(tmp_path / "features.csv", ["case_id"] + list(FEATURE_NAMES), rows)
        assert main(["predict", "--model", str(model), "--features", features,
                     "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {"c0"}

    def test_train_clf_without_trees(self, tmp_path, capsys):
        features = self.write_csv(tmp_path / "features.csv", ["case_id"] + list(FEATURE_NAMES),
                                  [[f"c{i}"] + [f"{i}"] * len(FEATURE_NAMES) for i in range(4)])
        labels = self.write_csv(tmp_path / "labels.csv", ["case_id", "label"],
                                [[f"c{i}", ("NOR", "DCM")[i % 2]] for i in range(4)])
        rc = main(["train-clf", "--features", features, "--labels", labels,
                   "--model", str(tmp_path / "m.pkl"), "--trees", "0"])
        assert rc == 2
        assert "n_trees must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "m.pkl").exists()

    def test_train_clf_labels_without_label_column(self, tmp_path, capsys):
        features = self.write_csv(tmp_path / "features.csv", ["case_id"] + list(FEATURE_NAMES),
                                  [["c0"] + ["1.5"] * len(FEATURE_NAMES)])
        labels = self.write_csv(tmp_path / "labels.csv", ["case_id", "diagnosis"], [["c0", "NOR"]])
        rc = main(["train-clf", "--features", features, "--labels", labels,
                   "--model", str(tmp_path / "m.pkl")])
        assert rc == 2
        assert "missing column(s): label" in capsys.readouterr().err


class TestClassifierFailures:
    """train-clf and predict fail by name (exit 2), without a traceback."""

    @staticmethod
    def write_cohort(tmp_path, values, labels):
        """features.csv and labels.csv of one row per label; ``values(i)`` is
        row i's feature cell text."""
        header = ",".join(("case_id",) + FEATURE_NAMES)
        rows = [f"c{i}," + ",".join([values(i)] * len(FEATURE_NAMES)) for i in range(len(labels))]
        (tmp_path / "features.csv").write_text("\n".join([header] + rows) + "\n")
        (tmp_path / "labels.csv").write_text(
            "\n".join(["case_id,label"] + [f"c{i},{lab}" for i, lab in enumerate(labels)]) + "\n")
        return ["--features", str(tmp_path / "features.csv"),
                "--labels", str(tmp_path / "labels.csv")]

    def train(self, tmp_path, capsys, values, labels):
        args = self.write_cohort(tmp_path, values, labels)
        rc = main(["train-clf"] + args + ["--model", str(tmp_path / "m.pkl"), "--trees", "3"])
        assert rc == 2 and not (tmp_path / "m.pkl").exists()
        return capsys.readouterr().err

    def test_identical_rows_name_the_classifier(self, tmp_path, capsys):
        err = self.train(tmp_path, capsys, lambda i: "1.5", ["NOR", "DCM"] * 2)
        assert err.startswith("error: stage-1 MLP: loss failed to decrease")

    def test_one_class_names_the_class(self, tmp_path, capsys):
        err = self.train(tmp_path, capsys, lambda i: f"{i}", ["NOR"] * 4)
        assert "need at least 2 classes to train, found only NOR" in err

    def test_empty_features_csv_names_the_file(self, tmp_path, capsys):
        err = self.train(tmp_path, capsys, lambda i: "1.5", [])
        assert "features.csv: no feature records to train on" in err

    def test_predict_on_empty_features_csv(self, tmp_path, capsys):
        from cardiomr.diagnosis import Dataset, save_model, train_ensemble

        X = np.arange(80.0).reshape(4, 20)
        save_model(train_ensemble(Dataset(X=X, y=np.array(["NOR", "DCM"] * 2)), n_trees=3),
                   tmp_path / "m.pkl")
        args = self.write_cohort(tmp_path, lambda i: "1.5", [])
        assert main(["predict", "--model", str(tmp_path / "m.pkl")] + args[:2]) == 0
        assert json.loads(capsys.readouterr().out) == {}

    @staticmethod
    def unreadable_models(tmp_path):
        """Model files that this version cannot read, and the refusal of each."""
        import pickle

        files = {
            "text.pkl": b"not a model\n",
            "random.pkl": np.random.default_rng(5).bytes(512),
            "empty.pkl": b"",
            "schema1.pkl": pickle.dumps({"kind": "cardiomr-ensemble", "schema": 1, "model": None}),
        }
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
            why = ("model schema 1 unsupported (expected 2); retrain with train-clf"
                   if name == "schema1.pkl" else "not a cardiomr model file this version can read")
            yield tmp_path / name, why

    def test_predict_refuses_unreadable_models(self, tmp_path, capsys):
        args = self.write_cohort(tmp_path, lambda i: "1.5", ["NOR"])
        for path, why in self.unreadable_models(tmp_path):
            assert main(["predict", "--model", str(path)] + args[:2]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: {why}") and "Traceback" not in err

    def test_pipeline_refuses_unreadable_models(self, case, tmp_path, capsys):
        for path, why in self.unreadable_models(tmp_path):
            rc = main(["pipeline", "--input", str(case / "cine.vol"), "--seg-ed", str(case / "ed.vol"),
                       "--seg-es", str(case / "es.vol"), "--model", str(path),
                       "--out-dir", str(tmp_path / "out")])
            assert rc == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: stage 'predict' failed: {path}: {why}")
            assert "Traceback" not in err
