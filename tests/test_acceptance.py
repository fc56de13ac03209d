"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured values when its assertions hold.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from cardiomr.diagnosis import (
    Dataset,
    GaussianNB,
    MLPClassifier,
    Preprocessor,
    RbfSvm,
    cross_validate,
    select_classifiers,
)
from cardiomr.features import (
    ES_MWT_FEATURES,
    FEATURE_NAMES,
    PhaseLabels,
    extract_features,
    mwt_per_slice,
)
from cardiomr.loss import LossConfig, build_weight_map, total_loss, total_loss_grad
from cardiomr.metrics import dice, hausdorff_mm, jaccard
from cardiomr.phantoms import (
    annulus_mask,
    disease_cohort,
    heart_label_volume,
    pulsating_disk_cine,
)
from cardiomr.pipeline import run_pipeline
from cardiomr.postprocess import connected_components, postprocess_labels
from cardiomr.roi import RoiConfig, locate_roi, temporal_h1
from cardiomr.volume import ScalarVolume, crop_patch, save_volume

from test_postprocess import flood_fill_label


def report(line: str) -> None:
    print(f"\n[PASS] {line}")


def test_criterion_01_roi_phantom_accuracy():
    """Pulsating-disk cine: located center within 2 px in >= 95/100."""
    start = time.time()
    rng = np.random.default_rng(20240801)
    cfg = RoiConfig()
    hits = 0
    for _ in range(100):
        cx = int(rng.integers(44, 148))
        cy = int(rng.integers(44, 148))
        cine = pulsating_disk_cine(
            shape=(192, 192), center=(cx, cy), radius_range=(10, 14),
            n_frames=30, seed=int(rng.integers(0, 2**31)),
        )
        result = locate_roi(cine, cfg)
        err = np.hypot(result.roi_center[0] - cx, result.roi_center[1] - cy)
        hits += err <= 2.0
    patch = crop_patch(cine, result.roi_center, cfg.patch_size)
    elapsed = time.time() - start
    assert patch.data.shape[:2] == (128, 128)
    assert hits >= 95
    assert elapsed < 30.0
    report(f"criterion 1: ROI phantom {hits}/100 within 2 px, patch 128x128, "
           f"{elapsed:.1f}s (< 30s)")


def test_criterion_02_fourier_oracle():
    """Bin-1 magnitude: pure fundamental == T/2 to 1e-9; 2nd harmonic < 1e-9."""
    nt = 30
    t = np.arange(nt)
    fundamental = np.tile(np.cos(2 * np.pi * t / nt), (3, 3, 2, 1))
    h1 = temporal_h1(ScalarVolume(data=fundamental))
    rel = np.abs(h1.magnitudes - nt / 2).max() / (nt / 2)
    assert rel < 1e-9

    second = np.tile(np.cos(4 * np.pi * t / nt), (3, 3, 2, 1))
    h1b = temporal_h1(ScalarVolume(data=second))
    leak = h1b.magnitudes.max()
    assert leak < 1e-9
    report(f"criterion 2: Fourier oracle rel err {rel:.2e} (< 1e-9), "
           f"2nd-harmonic leak {leak:.2e} (< 1e-9)")


def test_criterion_03_weight_map_telescoping():
    """Class term sums to |N| exactly per class on 200 random slices.

    Exactness is checked in rational arithmetic over the per-voxel terms
    the implementation stored (every class voxel carries the identical
    float |N|/|T_l|); float accumulation order cannot perturb it.
    """
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        shape = (int(rng.integers(6, 33)), int(rng.integers(6, 33)))
        lbl = rng.integers(0, 4, shape)
        wm = build_weight_map(lbl)
        n = lbl.size
        for cls, t_count in wm.class_counts.items():
            vals = wm.class_term[lbl == cls]
            assert vals.size == t_count
            expected = np.float64(n) / np.float64(t_count)
            assert np.all(vals == expected)
            total = sum(Fraction(v) for v in vals) - t_count * Fraction(expected)
            assert total == 0
            assert Fraction(n, t_count) * t_count == n
            checked += 1
    report(f"criterion 3: weight-map class term telescopes exactly on 200 slices "
           f"({checked} class sums)")


def test_criterion_04_gradient_check():
    """Analytic loss gradient vs central differences, 50 random fields."""
    start = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(50):
        n_classes = int(rng.integers(2, 5))
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        z = rng.normal(size=(n_classes, h, w)) * 2.0
        t = rng.integers(0, n_classes, (h, w))
        wmap = build_weight_map(t).values
        cfg = LossConfig(
            lam=float(rng.uniform(0.2, 1.5)),
            gamma=float(rng.uniform(0.2, 1.5)),
            dice_two_factor=bool(rng.integers(0, 2)),
        )
        analytic = total_loss_grad(z, t, wmap, cfg)
        fd = np.zeros_like(z)
        step = 1e-4
        for idx in np.ndindex(z.shape):
            zp = z.copy(); zp[idx] += step
            zm = z.copy(); zm[idx] -= step
            fd[idx] = (
                total_loss(zp, t, wmap, cfg)[0] - total_loss(zm, t, wmap, cfg)[0]
            ) / (2 * step)
        scale = np.abs(fd).max()
        rel = (np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6 * scale)).max()
        worst = max(worst, rel)
    elapsed = time.time() - start
    assert worst < 1e-5
    assert elapsed < 60.0
    report(f"criterion 4: gradient check max rel err {worst:.2e} (< 1e-5) "
           f"over 50 fields, {elapsed:.1f}s (< 60s)")


def test_criterion_05_dice_jaccard_identity():
    """D == 2J/(1+J) to 1e-12 on 1,000 random mask pairs."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        shape = (int(rng.integers(4, 20)), int(rng.integers(4, 20)))
        a = rng.random(shape) < rng.uniform(0.1, 0.6)
        b = rng.random(shape) < rng.uniform(0.1, 0.6)
        d, j = dice(a, b), jaccard(a, b)
        worst = max(worst, abs(d - 2 * j / (1 + j)))
    assert worst <= 1e-12
    report(f"criterion 5: Dice-Jaccard identity worst dev {worst:.2e} (<= 1e-12) "
           f"on 1,000 pairs")


def test_criterion_06_hausdorff_exact_and_accelerated():
    """Hand-derived distances exact; KD-tree variant == brute force."""
    p = np.zeros((6, 6), bool); p[0, 0] = True
    g = np.zeros((6, 6), bool); g[3, 4] = True
    assert hausdorff_mm(p, g, (1.0, 1.0), "brute") == 5.0
    g2 = np.zeros((6, 6), bool); g2[0, 0] = True; g2[0, 3] = True
    assert hausdorff_mm(p, g2, (1.0, 1.0), "brute") == 3.0
    m = np.zeros((4, 4), bool); m[1, 2] = True
    assert hausdorff_mm(m, m, (1.0, 1.0), "brute") == 0.0

    rng = np.random.default_rng(17)
    pairs = 0
    while pairs < 1000:
        a = rng.random((16, 16)) < 0.2
        b = rng.random((16, 16)) < 0.2
        if not (a.any() and b.any()):
            continue
        assert hausdorff_mm(a, b, (1.3, 0.7), "kdtree") == \
               hausdorff_mm(a, b, (1.3, 0.7), "brute")
        pairs += 1
    report("criterion 6: Hausdorff hand values exact; accelerated == brute "
           "on 1,000 random 16x16 masks")


def test_criterion_07_connected_components_and_idempotence():
    """Exhaustive 3x3 agreement, random 8x8x4 agreement, idempotent cleanup."""
    for bits in range(512):
        mask = np.array([(bits >> i) & 1 for i in range(9)], dtype=bool).reshape(3, 3)
        for conn in (4, 8):
            got = connected_components(mask, conn).labels
            assert np.array_equal(got, flood_fill_label(mask, conn))

    rng = np.random.default_rng(19)
    for _ in range(500):
        mask = rng.random((8, 8, 4)) < rng.uniform(0.2, 0.6)
        conn = int(rng.choice([6, 26]))
        got = connected_components(mask, conn).labels
        assert np.array_equal(got, flood_fill_label(mask, conn))

    for _ in range(100):
        shape = (int(rng.integers(8, 18)), int(rng.integers(8, 18)),
                 int(rng.integers(2, 5)))
        lbl = rng.integers(0, 4, shape).astype(np.uint8)
        once = postprocess_labels(lbl)
        assert np.array_equal(postprocess_labels(once), once)
    report("criterion 7: components match flood fill on all 512 3x3 masks and "
           "500 random 8x8x4 masks; cleanup idempotent on 100 volumes")


def test_criterion_08_mwt_phantom():
    """Annulus wall 4 px at 1.5 mm: mean in [4.5, 7.5] mm; rot90 < 5%."""
    sl = np.zeros((64, 64), dtype=np.uint8)
    sl[annulus_mask((64, 64), (30.4, 33.6), 8, 12)] = 2
    entry = mwt_per_slice(sl, (1.5, 1.5))
    assert 4.5 <= entry.mean <= 7.5

    rotated = mwt_per_slice(np.rot90(sl).copy(), (1.5, 1.5))
    change = abs(entry.mean - rotated.mean) / entry.mean
    assert change < 0.05
    report(f"criterion 8: MWT phantom mean {entry.mean:.2f} mm in [4.5, 7.5]; "
           f"rot90 change {100 * change:.2f}% (< 5%)")


def test_criterion_09_classifier_suite():
    """Held-out accuracy floors, chance-level CV, published-score selection."""
    start = time.time()
    rng = np.random.default_rng(23)

    def blobs(n, centers, sigma=1.0):
        X = np.vstack([rng.normal(c, sigma, size=(n, 2)) for c in centers])
        y = np.array([f"C{i}" for i in range(len(centers)) for _ in range(n)])
        idx = rng.permutation(len(y))
        return X[idx], y[idx]

    X, y = blobs(100, ((0, 0), (10, 10)))
    gnb_acc = (GaussianNB().fit(X[:150], y[:150]).predict(X[150:]) == y[150:]).mean()
    mlp_acc = (
        MLPClassifier(hidden=(100, 100), seed=0).fit(X[:150], y[:150]).predict(X[150:])
        == y[150:]
    ).mean()
    svm_acc = (RbfSvm().fit(X[:150], y[:150]).predict(X[150:]) == y[150:]).mean()
    assert gnb_acc >= 0.99 and mlp_acc >= 0.99 and svm_acc >= 0.99

    Xx = rng.uniform(-1, 1, size=(400, 2))
    yx = np.where(Xx[:, 0] * Xx[:, 1] > 0, "P", "N")
    xor_acc = (MLPClassifier(seed=3).fit(Xx, yx).predict(Xx) == yx).mean()
    assert xor_acc >= 0.99

    n = 150
    r = np.concatenate([rng.uniform(0, 1, n), rng.uniform(2, 3, n)])
    ang = rng.uniform(0, 2 * np.pi, 2 * n)
    Xc = np.c_[r * np.cos(ang), r * np.sin(ang)]
    yc = np.array(["in"] * n + ["out"] * n)
    idx = rng.permutation(2 * n)
    circ_acc = (
        RbfSvm().fit(Xc[idx[:220]], yc[idx[:220]]).predict(Xc[idx[220:]])
        == yc[idx[220:]]
    ).mean()
    assert circ_acc >= 0.95

    Xs = rng.normal(size=(200, 8))
    ys = np.array(list(("NOR", "MINF", "DCM", "HCM", "ARV")) * 40)
    cv = cross_validate(
        Dataset(X=Xs, y=ys, feature_names=tuple(f"f{i}" for i in range(8))),
        lambda: GaussianNB(), k=5, seed=1,
    )
    assert 0.1 <= cv.mean <= 0.3

    published = {
        "LR": 0.94, "RF": 0.96, "GNB": 0.96, "XGB": 0.93,
        "SVM": 0.95, "MLP": 0.97, "K-NN": 0.91,
    }
    assert set(select_classifiers(published, 0.95)) == {"RF", "GNB", "MLP"}
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(
        "criterion 9: blobs GNB/MLP/SVM "
        f"{gnb_acc:.2f}/{mlp_acc:.2f}/{svm_acc:.2f} (>= 0.99), XOR {xor_acc:.2f}, "
        f"circles {circ_acc:.2f} (>= 0.95), shuffled CV {cv.mean:.2f} in [0.1, 0.3], "
        f"selection {{RF, GNB, MLP}}, {elapsed:.0f}s (< 300s)"
    )


def test_criterion_10_two_stage_gating_cohort():
    """ES wall statistics separate MINF/DCM where volumetrics cannot."""
    cohort = disease_cohort(200, seed=31)
    records, labels = [], []
    for ed, es, lab in cohort:
        records.append(extract_features(PhaseLabels(ed=ed, es=es)))
        labels.append(lab)
    ds = Dataset.from_records(records, labels)

    n_train = 120
    mwt = ds.columns(ES_MWT_FEATURES)
    prep_m = Preprocessor().fit(mwt.X[:n_train])
    expert = MLPClassifier(hidden=(100, 100), seed=0).fit(
        prep_m.transform(mwt.X[:n_train]), ds.y[:n_train]
    )
    expert_acc = (expert.predict(prep_m.transform(mwt.X[n_train:])) == ds.y[n_train:]).mean()

    vol_features = tuple(n for n in FEATURE_NAMES if not n.startswith("mwt_"))
    vol = ds.columns(vol_features)
    prep_v = Preprocessor().fit(vol.X[:n_train])
    gnb = GaussianNB().fit(prep_v.transform(vol.X[:n_train]), ds.y[:n_train])
    vol_acc = (gnb.predict(prep_v.transform(vol.X[n_train:])) == ds.y[n_train:]).mean()

    assert expert_acc >= 0.9
    assert vol_acc < 0.75
    report(f"criterion 10: ES-MWT expert {expert_acc:.2f} (>= 0.90) vs "
           f"volumetrics-only GNB {vol_acc:.2f} (< 0.75) on 200-case cohort")


def test_criterion_11_net_graph_calibration():
    """Residual variants smaller; quadratic growth; Table-style calibration."""
    from cardiomr.netgraph import NetConfig, build_graph, growth_sweep, quadratic_fit_r2

    base = dict(k=12, f=36)
    pa = build_graph(NetConfig(variant="A", **base)).total_params
    pb = build_graph(NetConfig(variant="B", **base)).total_params
    pc = build_graph(NetConfig(variant="C", **base)).total_params
    assert pb < pa and pc < pa

    table = growth_sweep(NetConfig(variant="C"), range(2, 17, 2))
    r2 = quadratic_fit_r2(table)
    assert r2 >= 0.999
    params = dict(table)
    dev12 = 100 * (params[12] - 370_732) / 370_732
    dev2 = 100 * (params[2] - 11_452) / 11_452

    calibrated = NetConfig(
        variant="C", db_layers_down=(2, 3, 4), db_layers_bottleneck=5,
        db_layers_up=(4, 3, 2),
    )
    cal = growth_sweep(calibrated, [2, 12])
    cal_params = dict(cal)
    cdev12 = 100 * (cal_params[12] - 370_732) / 370_732
    cdev2 = 100 * (cal_params[2] - 11_452) / 11_452
    report(
        "criterion 11: params B < A and C < A "
        f"({pb:,} / {pc:,} < {pa:,}); sweep R^2 {r2:.6f} (>= 0.999); "
        f"default depths land {dev12:+.1f}% (k=12) / {dev2:+.1f}% (k=2) from the "
        f"published 370,732 / 11,452; depths (2,3,4)/5/(4,3,2) land "
        f"{cdev12:+.1f}% / {cdev2:+.1f}%"
    )


def test_criterion_12_pipeline_determinism(tmp_path):
    """Identical inputs and seed give bytewise identical reports."""
    cine = pulsating_disk_cine(shape=(160, 160), center=(80, 80), seed=5)
    save_volume(cine, tmp_path / "cine.vol")
    ed = heart_label_volume(shape=(160, 160), n_slices=1, lv_center=(80, 80),
                            lv_radius=14, wall_px=5, rv_offset=(-31, 0))
    es = heart_label_volume(shape=(160, 160), n_slices=1, lv_center=(80, 80),
                            lv_radius=10, wall_px=7, rv_offset=(-31, 0))
    save_volume(ed, tmp_path / "ed.vol")
    save_volume(es, tmp_path / "es.vol")
    kwargs = dict(
        seg_ed=tmp_path / "ed.vol", seg_es=tmp_path / "es.vol",
        gt_ed=tmp_path / "ed.vol", gt_es=tmp_path / "es.vol",
    )
    run_pipeline(tmp_path / "cine.vol", tmp_path / "run1", **kwargs)
    run_pipeline(tmp_path / "cine.vol", tmp_path / "run2", **kwargs)
    r1 = (tmp_path / "run1" / "report.json").read_bytes()
    r2 = (tmp_path / "run2" / "report.json").read_bytes()
    assert r1 == r2
    report(f"criterion 12: two pipeline runs produced bytewise identical "
           f"reports ({len(r1)} bytes)")
