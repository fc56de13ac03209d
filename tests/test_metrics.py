import numpy as np
import pytest

from cardiomr.metrics import (
    UndefinedDistanceError,
    aggregate_cases,
    confusion,
    dice,
    evaluate_case,
    hausdorff_mm,
    jaccard,
    rates,
)
from cardiomr.phantoms import annulus_mask, disk_mask
from cardiomr.volume import LabelVolume


def mask_from(points, shape=(10, 1)):
    m = np.zeros(shape, dtype=bool)
    for p in points:
        m[p] = True
    return m


class TestConfusion:
    def test_perfect_prediction(self):
        gt = mask_from([(0, 0), (1, 0), (2, 0)])
        c = confusion(gt, gt)
        assert (c.tp, c.tn, c.fp, c.fn) == (3, 7, 0, 0)

    def test_inverted_prediction(self):
        gt = mask_from([(0, 0), (1, 0)])
        c = confusion(~gt, gt)
        assert c.tp == 0 and c.tn == 0
        assert c.fp == 8 and c.fn == 2

    def test_partial_overlap_enumeration(self):
        pred = mask_from([(0, 0), (1, 0)])
        gt = mask_from([(1, 0), (2, 0)])
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 7)
        assert c.total == 10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion(np.zeros((2, 2), bool), np.zeros((3, 2), bool))


class TestOverlapScores:
    def test_identical_masks(self):
        m = mask_from([(0, 0), (5, 0)])
        assert dice(m, m) == 1.0
        assert jaccard(m, m) == 1.0

    def test_disjoint_masks(self):
        a = mask_from([(0, 0)])
        b = mask_from([(5, 0)])
        assert dice(a, b) == 0.0
        assert jaccard(a, b) == 0.0

    def test_half_dice_enumeration(self):
        pred = mask_from([(0, 0), (1, 0)])
        gt = mask_from([(1, 0), (2, 0)])
        assert dice(pred, gt) == pytest.approx(0.5)
        assert jaccard(pred, gt) == pytest.approx(1.0 / 3.0)

    def test_both_empty_convention(self):
        e = np.zeros((4, 4), dtype=bool)
        assert dice(e, e) == 1.0
        assert jaccard(e, e) == 1.0

    def test_dice_jaccard_identity_on_random_masks(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = rng.random((12, 12)) < 0.3
            b = rng.random((12, 12)) < 0.3
            d, j = dice(a, b), jaccard(a, b)
            assert abs(d - 2 * j / (1 + j)) <= 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        a = np.zeros((20, 20), dtype=bool)
        b = np.zeros((20, 20), dtype=bool)
        a[5:9, 5:9] = rng.random((4, 4)) < 0.6
        b[5:9, 5:9] = rng.random((4, 4)) < 0.6
        assert dice(a, b) == dice(np.roll(a, 3, 0), np.roll(b, 3, 0))


class TestRates:
    def test_arithmetic(self):
        from cardiomr.metrics import ConfusionCounts
        r = rates(ConfusionCounts(tp=3, fp=0, tn=0, fn=1))
        assert r.tpr == pytest.approx(0.75)

    def test_perfect_prediction_all_ones(self):
        m = mask_from([(0, 0), (1, 0)])
        r = rates(confusion(m, m))
        assert (r.tpr, r.spc, r.ppv, r.npv) == (1.0, 1.0, 1.0, 1.0)

    def test_zero_over_zero_is_undefined_marker(self):
        from cardiomr.metrics import ConfusionCounts
        r = rates(ConfusionCounts(tp=0, fp=0, tn=5, fn=5))
        assert r.ppv is None
        assert r.tpr == 0.0


class TestHausdorff:
    def test_identical_masks_zero(self):
        m = disk_mask((16, 16), (8, 8), 4)
        assert hausdorff_mm(m, m, (1.0, 1.0)) == 0.0

    def test_three_four_five(self):
        p = mask_from([(0, 0)], shape=(6, 6))
        g = mask_from([(3, 4)], shape=(6, 6))
        assert hausdorff_mm(p, g, (1.0, 1.0)) == pytest.approx(5.0)

    def test_directed_asymmetry_resolved_by_max(self):
        p = mask_from([(0, 0)], shape=(6, 6))
        g = mask_from([(0, 0), (0, 3)], shape=(6, 6))
        assert hausdorff_mm(p, g, (1.0, 1.0)) == pytest.approx(3.0)

    def test_anisotropic_spacing(self):
        p = mask_from([(0, 0)], shape=(4, 4))
        g = mask_from([(1, 1)], shape=(4, 4))
        assert hausdorff_mm(p, g, (3.0, 4.0)) == pytest.approx(5.0)

    def test_empty_mask_raises(self):
        with pytest.raises(UndefinedDistanceError):
            hausdorff_mm(np.zeros((3, 3), bool), np.ones((3, 3), bool), (1, 1))

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            masks = [rng.random((8, 8)) < 0.3 for _ in range(3)]
            if not all(m.any() for m in masks):
                continue
            a, b, c = masks
            hab = hausdorff_mm(a, b, (1.0, 1.5))
            hba = hausdorff_mm(b, a, (1.0, 1.5))
            assert hab == hba
            hac = hausdorff_mm(a, c, (1.0, 1.5))
            hcb = hausdorff_mm(c, b, (1.0, 1.5))
            assert hab <= hac + hcb + 1e-9

    def test_brute_equals_kdtree_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.random((16, 16)) < 0.2
            b = rng.random((16, 16)) < 0.2
            if not (a.any() and b.any()):
                continue
            assert hausdorff_mm(a, b, (1.3, 0.7), "brute") == hausdorff_mm(
                a, b, (1.3, 0.7), "kdtree"
            )


class TestEvaluateCase:
    def _volumes(self):
        lbl = np.zeros((32, 32, 3), dtype=np.uint8)
        for z in range(3):
            lbl[annulus_mask((32, 32), (16, 16), 5, 8), z] = 2
            lbl[disk_mask((32, 32), (16, 16), 5), z] = 3
            lbl[disk_mask((32, 32), (5, 16), 3), z] = 1
        return LabelVolume(data=lbl, spacing=(1.5, 1.5, 8.0))

    def test_identical_volumes_all_perfect(self):
        vol = self._volumes()
        table = evaluate_case(vol, vol)
        for name in ("RV", "MYO", "LV"):
            assert table[name].dice == 1.0
            assert table[name].hd_mm == 0.0
            assert table[name].tpr == 1.0

    def test_one_voxel_dilation_bounds(self):
        from scipy import ndimage
        vol = self._volumes()
        data = np.array(vol.data)
        grown = ndimage.binary_dilation(data[:, :, 1] == 3)
        data[:, :, 1][grown] = 3
        pred = LabelVolume(data=data, spacing=vol.spacing)
        table = evaluate_case(pred, vol)
        assert table["LV"].dice < 1.0
        assert table["LV"].hd_mm <= max(vol.spacing) * np.sqrt(3)

    def test_missing_class_yields_none_hd_not_error(self):
        vol = self._volumes()
        data = np.array(vol.data)
        data[data == 1] = 0
        pred = LabelVolume(data=data, spacing=vol.spacing)
        table = evaluate_case(pred, vol)
        assert table["RV"].hd_mm is None
        assert table["RV"].dice == 0.0

    def test_spacing_mismatch_rejected(self):
        vol = self._volumes()
        other = LabelVolume(data=vol.data, spacing=(1.0, 1.0, 8.0))
        with pytest.raises(ValueError, match="spacing mismatch"):
            evaluate_case(other, vol)

    def test_batch_of_identical_cases_zero_std(self):
        vol = self._volumes()
        cases = [evaluate_case(vol, vol), evaluate_case(vol, vol)]
        summary = aggregate_cases(cases)
        for cls in summary.values():
            for stats in cls.values():
                assert stats["std"] == 0.0

    def test_vacuous_scores_excluded_from_aggregation(self):
        vol = self._volumes()
        data = np.array(vol.data)
        data[data == 1] = 0
        both_missing = LabelVolume(data=data, spacing=vol.spacing)
        case = evaluate_case(both_missing, both_missing)
        assert case["RV"].vacuous
        summary = aggregate_cases([case])
        assert "dice" not in summary["RV"]
