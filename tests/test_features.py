import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from cardiomr.features import (
    ES_MWT_FEATURES,
    FEATURE_NAMES,
    FeatureRecord,
    MWTResult,
    PhaseLabels,
    class_volume_ml,
    ejection_fraction,
    extract_features,
    mwt_per_slice,
    mwt_profile_features,
    mwt_result,
    myo_mass_g,
)
from cardiomr.phantoms import annulus_mask, disk_mask, heart_label_volume
from cardiomr.volume import LabelVolume


def brute_min_distances(interior, exterior, spacing):
    """Oracle: per interior pixel, the minimum physical distance to the
    exterior set, by exhaustive enumeration."""
    scale = np.asarray(spacing, dtype=float)
    i_pts = np.argwhere(interior) * scale
    e_pts = np.argwhere(exterior) * scale
    out = []
    for p in i_pts:
        out.append(min(np.hypot(*(p - q)) for q in e_pts))
    return np.array(out)


class TestVolumes:
    def test_thousand_unit_voxels_is_one_ml(self):
        data = np.zeros((10, 10, 10), dtype=np.uint8)
        data[:, :, :] = 3
        vol = LabelVolume(data=data, spacing=(1.0, 1.0, 1.0))
        assert class_volume_ml(vol, 3) == pytest.approx(1.0)

    def test_empty_class_zero(self):
        vol = LabelVolume(data=np.zeros((4, 4, 2), dtype=np.uint8))
        assert class_volume_ml(vol, 2) == 0.0

    def test_anisotropic_voxels(self):
        data = np.zeros((10, 10, 1), dtype=np.uint8)
        data[:, :, 0] = 1  # 100 voxels
        vol = LabelVolume(data=data, spacing=(1.5, 1.5, 8.0))
        assert class_volume_ml(vol, 1) == pytest.approx(1.8)

    def test_additive_over_disjoint_masks(self):
        rng = np.random.default_rng(0)
        data = (rng.random((8, 8, 3)) < 0.5).astype(np.uint8) * 3
        vol = LabelVolume(data=data, spacing=(1.0, 2.0, 3.0))
        half_a = np.where(np.arange(8)[:, None, None] < 4, data, 0)
        half_b = np.where(np.arange(8)[:, None, None] >= 4, data, 0)
        va = class_volume_ml(LabelVolume(data=half_a, spacing=vol.spacing), 3)
        vb = class_volume_ml(LabelVolume(data=half_b, spacing=vol.spacing), 3)
        assert va + vb == pytest.approx(class_volume_ml(vol, 3))


class TestMass:
    def test_density_conversion(self):
        data = np.full((10, 10, 10), 2, dtype=np.uint8)  # 1000 voxels of MYO
        vol = LabelVolume(data=data, spacing=(10.0, 10.0, 0.1))  # 10 mm^3 each
        # 1000 voxels * 10 mm^3 = 10 mL; 10 mL * 1.05 = 10.5 g
        assert myo_mass_g(vol) == pytest.approx(10.0 * 1.05)

    def test_empty_myo_zero_mass(self):
        vol = LabelVolume(data=np.zeros((4, 4, 1), dtype=np.uint8))
        assert myo_mass_g(vol) == 0.0

    def test_density_override_units(self):
        data = np.full((5, 5, 4), 2, dtype=np.uint8)
        vol = LabelVolume(data=data, spacing=(1.0, 1.0, 1.0))
        assert myo_mass_g(vol, density=1.0) == pytest.approx(class_volume_ml(vol, 2))


class TestEjectionFraction:
    def test_standard_case(self):
        assert ejection_fraction(100.0, 50.0) == pytest.approx(0.5)

    def test_equal_volumes(self):
        assert ejection_fraction(80.0, 80.0) == 0.0

    def test_empty_es(self):
        assert ejection_fraction(80.0, 0.0) == 1.0

    def test_zero_ed_marker(self):
        assert ejection_fraction(0.0, 0.0) is None


class TestMwtPerSlice:
    def test_annulus_wall_thickness(self):
        sl = np.zeros((64, 64), dtype=np.uint8)
        sl[annulus_mask((64, 64), (32, 32), 8, 12)] = 2
        entry = mwt_per_slice(sl, (1.5, 1.5))
        assert 4.5 <= entry.mean <= 7.5  # 6 mm wall, one-pixel tolerance

    def test_matches_brute_force_oracle(self):
        from cardiomr.features import region_contour
        from cardiomr.postprocess import fill_holes

        sl = np.zeros((48, 48), dtype=np.uint8)
        sl[annulus_mask((48, 48), (23.6, 24.2), 7, 11)] = 2
        spacing = (1.25, 1.75)
        entry = mwt_per_slice(sl, spacing)
        myo = sl == 2
        epi = fill_holes(myo)
        cavity = epi & ~myo
        oracle = brute_min_distances(region_contour(cavity), region_contour(epi), spacing)
        assert np.allclose(np.sort(entry.thickness_mm), np.sort(oracle))

    def test_one_pixel_wall_bounds(self):
        disk = disk_mask((64, 64), (32, 32), 11)
        ring = disk & ~ndimage.binary_erosion(disk, np.ones((3, 3), bool))
        entry = mwt_per_slice(np.where(ring, 2, 0).astype(np.uint8), (1.0, 1.0))
        assert entry.thickness_mm.min() >= 1.0
        assert entry.thickness_mm.max() <= np.sqrt(2) + 1e-12

    def test_rotation_changes_mean_under_five_percent(self):
        sl = np.zeros((64, 64), dtype=np.uint8)
        sl[annulus_mask((64, 64), (30.3, 33.7), 8, 12)] = 2
        a = mwt_per_slice(sl, (1.5, 1.5)).mean
        b = mwt_per_slice(np.rot90(sl).copy(), (1.5, 1.5)).mean
        assert abs(a - b) / a < 0.05

    def test_no_myocardium_returns_none(self):
        assert mwt_per_slice(np.zeros((16, 16), dtype=np.uint8), (1, 1)) is None

    def test_solid_disk_degenerate(self):
        sl = np.where(disk_mask((32, 32), (16, 16), 8), 2, 0).astype(np.uint8)
        assert mwt_per_slice(sl, (1, 1)) is None

    def test_noisy_slice_memory_is_bounded(self):
        # raw network output can be this noisy; an (|interior|, |exterior|)
        # distance matrix built at once would take ~160 MB on this slice
        rng = np.random.default_rng(0)
        sl = np.where(rng.random((224, 224)) < 0.3, 2, 0).astype(np.uint8)
        tracemalloc.start()
        try:
            entry = mwt_per_slice(sl, (1.25, 1.25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert entry is not None and entry.thickness_mm.size > 0
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


class TestMwtResultAndProfile:
    def test_degenerate_slices_recorded(self):
        data = np.zeros((48, 48, 3), dtype=np.uint8)
        data[annulus_mask((48, 48), (24, 24), 8, 12), 0] = 2
        data[disk_mask((48, 48), (24, 24), 8), 1] = 2  # solid: degenerate
        result = mwt_result(LabelVolume(data=data, spacing=(1.0, 1.0, 8.0)))
        assert len(result.slices) == 1
        assert {z for z, _ in result.excluded} == {1, 2}

    def test_constant_profile(self):
        res = MWTResult(slices=[], excluded=[])
        from cardiomr.features import MwtSlice
        for z in range(3):
            res.slices.append(MwtSlice(z=z, thickness_mm=np.array([5.0, 5.0])))
        assert mwt_profile_features(res) == (5.0, 0.0, 0.0, 0.0)

    def test_two_slice_arithmetic_population_std(self):
        from cardiomr.features import MwtSlice
        # means [4, 6]; stds [1, 3] (population)
        s1 = MwtSlice(z=0, thickness_mm=np.array([3.0, 5.0]))
        s2 = MwtSlice(z=1, thickness_mm=np.array([3.0, 9.0]))
        res = MWTResult(slices=[s1, s2], excluded=[])
        assert mwt_profile_features(res) == (6.0, 1.0, 2.0, 1.0)

    def test_single_slice_stdev_features_zero(self):
        from cardiomr.features import MwtSlice
        res = MWTResult(slices=[MwtSlice(z=0, thickness_mm=np.array([4.0, 4.0]))], excluded=[])
        out = mwt_profile_features(res)
        assert out[1] == 0.0 and out[3] == 0.0

    def test_no_valid_slice_gives_missing_markers(self):
        assert mwt_profile_features(MWTResult(slices=[], excluded=[(0, "x")])) == (
            None, None, None, None,
        )


class TestExtractFeatures:
    def _phases(self):
        # rv offset beyond rv_radius + outer wall so structures stay disjoint
        ed = heart_label_volume(
            shape=(96, 96), n_slices=6, lv_radius=14, wall_px=5,
            rv_offset=(-31, 0), rv_radius=10, spacing=(1.5, 1.5, 8.0),
        )
        es = heart_label_volume(
            shape=(96, 96), n_slices=6, lv_radius=10, wall_px=7,
            rv_offset=(-31, 0), rv_radius=8, spacing=(1.5, 1.5, 8.0),
        )
        return PhaseLabels(ed=ed, es=es)

    def test_full_record_within_two_percent_of_geometry(self):
        rec = extract_features(self._phases())
        vox = 1.5 * 1.5 * 8.0 / 1000.0
        def expect_disk(r):
            return np.pi * r * r * 6 * vox
        assert rec.lv_volume_ed_ml == pytest.approx(expect_disk(14), rel=0.02)
        assert rec.lv_volume_es_ml == pytest.approx(expect_disk(10), rel=0.02)
        assert rec.rv_volume_ed_ml == pytest.approx(expect_disk(10), rel=0.02)
        myo_area_ed = np.pi * (19**2 - 14**2)
        assert rec.myo_mass_ed_g == pytest.approx(
            myo_area_ed * 6 * vox * 1.05, rel=0.02
        )
        assert rec.lv_ejection_fraction == pytest.approx(1 - 100 / 196, rel=0.02)
        assert rec.lv_rv_volume_ratio_ed == pytest.approx(196 / 100, rel=0.03)
        # wall: ED 5 px * 1.5 = 7.5 mm, ES 7 px * 1.5 = 10.5 mm, 1 px tolerance
        assert abs(rec.mwt_max_of_means_ed_mm - 7.5) <= 1.5
        assert abs(rec.mwt_max_of_means_es_mm - 10.5) <= 1.5
        assert not np.isnan(rec.to_vector()).any()

    def test_equal_phases_zero_ef(self):
        ed = heart_label_volume()
        phases = PhaseLabels(ed=ed, es=ed)
        rec = extract_features(phases)
        assert rec.lv_ejection_fraction == 0.0
        assert rec.rv_ejection_fraction == 0.0

    def test_missing_rv_at_es_partial_record(self):
        ed = heart_label_volume(rv_radius=9)
        es = heart_label_volume(rv_radius=0)
        rec = extract_features(PhaseLabels(ed=ed, es=es))
        assert rec.lv_rv_volume_ratio_es is None
        assert rec.rv_ejection_fraction == 1.0
        assert rec.lv_volume_es_ml is not None

    def test_deterministic(self):
        a = extract_features(self._phases()).to_vector()
        b = extract_features(self._phases()).to_vector()
        assert np.array_equal(a, b)

    def test_spacing_scale_laws(self):
        base = heart_label_volume(lv_radius=14, wall_px=5, spacing=(1.5, 1.5, 8.0))
        doubled = heart_label_volume(lv_radius=14, wall_px=5, spacing=(3.0, 3.0, 16.0))
        assert class_volume_ml(doubled, 3) == pytest.approx(8 * class_volume_ml(base, 3))
        a = mwt_profile_features(mwt_result(base))
        b = mwt_profile_features(mwt_result(doubled))
        assert b[0] == pytest.approx(2 * a[0])
        assert b[2] == pytest.approx(2 * a[2])

    def test_vector_roundtrip_and_order(self):
        rec = extract_features(self._phases())
        vec = rec.to_vector()
        assert FeatureRecord.from_vector(vec) == rec
        assert len(FEATURE_NAMES) == 20
        assert ES_MWT_FEATURES == FEATURE_NAMES[16:20]

    def test_phase_dim_mismatch_rejected(self):
        ed = heart_label_volume(n_slices=6)
        es = heart_label_volume(n_slices=5)
        with pytest.raises(ValueError, match="dims"):
            PhaseLabels(ed=ed, es=es)
