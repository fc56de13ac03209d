import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cardiomr.metrics as metrics_mod
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


def full_mask_reference(a, b, spacing):
    """Every voxel against every voxel, as ``method="brute"`` was first written."""
    pa, pb = (np.argwhere(m).astype(np.float64) * np.asarray(spacing, np.float64)
              for m in (a, b))
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    return float(max(np.sqrt(d2.min(axis=1)).max(), np.sqrt(d2.min(axis=0)).max()))


@st.composite
def mask_pairs(draw):
    """Two non-empty masks, 2D or 3D, in one of five relations; small
    shapes make masks touch the array border often."""
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=2, max_size=3)))
    a = draw(arrays(np.bool_, shape))
    a.flat[draw(st.integers(0, a.size - 1))] = True
    other = draw(arrays(np.bool_, shape))
    relation = draw(st.sampled_from(["random", "a_in_b", "b_in_a", "disjoint", "identical"]))
    b = {"random": other, "a_in_b": a | other, "b_in_a": a & other,
         "disjoint": other & ~a, "identical": a.copy()}[relation]
    if not b.any():
        b = ~a if relation == "disjoint" else a.copy()
    if not b.any():  # a fills the array, so nothing is disjoint from it
        b = a.copy()
    spacing = tuple(draw(st.floats(0.1, 10.0)) for _ in shape)
    return a, b, spacing


class TestReducedHausdorff:
    """The default method measures A \\ B against B's boundary only."""

    @settings(max_examples=400, deadline=None)
    @given(case=mask_pairs())
    def test_equals_brute_and_full_mask_reference(self, case):
        a, b, spacing = case
        got = hausdorff_mm(a, b, spacing)
        assert got == hausdorff_mm(a, b, spacing, "brute") == full_mask_reference(a, b, spacing)

    def test_kdtree_fallback_gives_the_same_floats(self, monkeypatch):
        rng = np.random.default_rng(4)
        cases = []
        for _ in range(100):
            shape = tuple(rng.integers(2, 12, size=int(rng.integers(2, 4))))
            a, b = rng.random(shape) < 0.3, rng.random(shape) < 0.3
            if a.any() and b.any() and (a != b).any():
                spacing = tuple(rng.uniform(0.1, 10.0, len(shape)))
                cases.append((a, b, spacing, hausdorff_mm(a, b, spacing, "brute")))

        def no_brute_force(a, b):
            raise AssertionError("brute force ran above the pair limit")

        monkeypatch.setattr(metrics_mod, "BRUTE_MAX_PAIRS", 0)
        monkeypatch.setattr(metrics_mod, "_directed_max_min", no_brute_force)
        for a, b, spacing, expected in cases:
            assert hausdorff_mm(a, b, spacing) == expected

    def test_memory_just_under_the_pair_limit(self):
        # B is a solid 30^3 cube and A is B plus a slab above it, sized so
        # that |A \ B| * |boundary of B| is just under BRUTE_MAX_PAIRS
        n_boundary = 30 ** 3 - 28 ** 3
        n_a = metrics_mod.BRUTE_MAX_PAIRS // n_boundary
        depth = -(-n_a // 32 ** 2)
        b = np.zeros((32, 32, 31 + depth), dtype=bool)
        b[1:31, 1:31, 0:30] = True
        a = b.copy()
        a[:, :, 31:] = (np.arange(32 * 32 * depth) < n_a).reshape(32, 32, depth)
        assert 0.99 * metrics_mod.BRUTE_MAX_PAIRS < n_a * n_boundary <= metrics_mod.BRUTE_MAX_PAIRS
        tracemalloc.start()
        try:
            hd = hausdorff_mm(a, b, (1.4, 1.4, 8.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hd > 0
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("method", ["kdtree", "brute"])
    @pytest.mark.parametrize("spacing", [(float("nan"), 1.0), (1.0, float("inf")),
                                         (0.0, 1.0), (1.0, -2.0)])
    def test_bad_spacing_refused(self, method, spacing):
        a = np.zeros((4, 4), bool)
        b = np.zeros((4, 4), bool)
        a[0, 0] = b[0, 0] = True
        with pytest.raises(ValueError, match="spacing"):
            hausdorff_mm(a, b, spacing, method)


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
