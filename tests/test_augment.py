import numpy as np
import pytest
from scipy import ndimage

from cardiomr.augment import (
    AugmentParams,
    _bilinear,
    _elastic_field_px,
    _nearest,
    _spline_weights,
    apply_augment,
    augment_volume,
    flip_pair,
    sample_params,
)
from cardiomr.phantoms import disk_mask
from cardiomr.volume import LabelVolume, ScalarVolume


@pytest.fixture
def image_and_labels():
    rng = np.random.default_rng(0)
    img = rng.random((40, 40))
    lbl = rng.integers(0, 4, (40, 40)).astype(np.uint8)
    return img, lbl


class TestApplyAugment:
    def test_identity_params_are_exact_identity(self, image_and_labels):
        img, lbl = image_and_labels
        out_img, out_lbl = apply_augment(img, lbl, AugmentParams())
        assert np.array_equal(out_img, img)
        assert np.array_equal(out_lbl, lbl)

    def test_integer_shift_moves_content(self, image_and_labels):
        img, lbl = image_and_labels
        out_img, out_lbl = apply_augment(
            img, lbl, AugmentParams(shift_mm=(5.0, 0.0)), spacing=(1.0, 1.0)
        )
        assert np.array_equal(out_img[5:, :], img[:-5, :])
        assert np.array_equal(out_lbl[5:, :], lbl[:-5, :])
        assert np.all(out_img[:5, :] == 0)
        assert np.all(out_lbl[:5, :] == 0)

    def test_shift_respects_spacing(self, image_and_labels):
        img, _ = image_and_labels
        out, _ = apply_augment(img, None, AugmentParams(shift_mm=(5.0, 0.0)), spacing=(2.5, 2.5))
        assert np.array_equal(out[2:, :], img[:-2, :])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_spacing_must_be_positive_and_finite(self, image_and_labels, bad):
        img, lbl = image_and_labels
        for spacing in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="spacing must be positive and finite"):
                apply_augment(img, lbl, sample_params(1), spacing=spacing)

    @pytest.mark.parametrize("params", [sample_params(1), AugmentParams()])
    def test_one_value_spacing_is_refused_by_name(self, image_and_labels, params):
        img, lbl = image_and_labels
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            apply_augment(img, lbl, params, spacing=(1.0,))

    def test_zoom_doubles_disk_radius(self):
        img = disk_mask((80, 80), (39.5, 39.5), 10).astype(float)
        out, _ = apply_augment(img, None, AugmentParams(zoom=2.0))
        r_eff = np.sqrt((out > 0.5).sum() / np.pi)
        assert abs(r_eff - 20) <= 1.0

    def test_labels_never_gain_classes(self, image_and_labels):
        img, lbl = image_and_labels
        lbl = np.where(lbl == 1, 3, lbl)  # {0, 2, 3} only
        params = sample_params(9)
        _, out_lbl = apply_augment(img, lbl, params)
        assert set(np.unique(out_lbl)) <= set(np.unique(lbl))

    def test_zero_elastic_composes_bitwise_with_rotation(self, image_and_labels):
        img, _ = image_and_labels
        pure = AugmentParams(angle_deg=13.0)
        with_grid = AugmentParams(angle_deg=13.0, elastic_grid=np.zeros((2, 2, 2)))
        a, _ = apply_augment(img, None, pure)
        b, _ = apply_augment(img, None, with_grid)
        assert np.array_equal(a, b)

    def test_noise_is_reproducible_from_params(self, image_and_labels):
        img, _ = image_and_labels
        p = AugmentParams(noise_sigma=0.01, noise_seed=77)
        a, _ = apply_augment(img, None, p)
        b, _ = apply_augment(img, None, p)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, img)
        assert abs((a - img).std() - 0.01) < 0.002

    def test_rotation_90_matches_rot90_interior(self):
        img = np.zeros((31, 31))
        img[10:14, 18:25] = 1.0
        out, _ = apply_augment(img, None, AugmentParams(angle_deg=90.0))
        # rotation by +90 deg about the center maps the same content as rot90
        expect = np.rot90(img, k=1)
        overlap = (out > 0.5) & (expect > 0.5)
        assert overlap.sum() >= 0.9 * (expect > 0.5).sum()


class TestSampleParams:
    def test_identical_seed_identical_params(self):
        assert sample_params(42) == sample_params(42)

    def test_distinct_seeds_differ(self):
        assert sample_params(1) != sample_params(2)

    def test_monte_carlo_ranges(self):
        ps = [sample_params(s) for s in range(10_000)]
        angles = np.array([p.angle_deg for p in ps])
        shifts = np.array([p.shift_mm for p in ps])
        zooms = np.array([p.zoom for p in ps])
        grids = np.array([p.elastic_array for p in ps])
        assert angles.min() >= -5 and angles.max() <= 5
        assert shifts.min() >= -5 and shifts.max() <= 5
        assert zooms.min() >= 0.8 and zooms.max() <= 1.2
        assert grids.min() >= -3 and grids.max() <= 3
        assert all(p.noise_sigma == 0.01 for p in ps)
        # ranges are actually exercised
        assert angles.max() > 4.5 and angles.min() < -4.5
        assert zooms.max() > 1.15 and zooms.min() < 0.85


class TestFlips:
    def test_flip_pair_round_trip(self, image_and_labels):
        img, lbl = image_and_labels
        fi, fl = flip_pair(img, lbl, horizontal=True, vertical=True)
        bi, bl = flip_pair(fi, fl, horizontal=True, vertical=True)
        assert np.array_equal(bi, img)
        assert np.array_equal(bl, lbl)


class TestAugmentVolume:
    @pytest.fixture
    def volumes(self):
        rng = np.random.default_rng(1)
        vol = ScalarVolume(data=rng.random((20, 18, 2, 3)), spacing=(1.5, 1.2, 8.0, 1.0))
        lbl4 = LabelVolume(data=rng.integers(0, 4, (20, 18, 2, 3)).astype(np.uint8),
                           spacing=(1.5, 1.2, 8.0, 1.0))
        return vol, lbl4

    def test_every_slice_matches_apply_augment(self, volumes):
        vol, lbl4 = volumes
        p = sample_params(11)
        img, lbl = augment_volume(vol, lbl4, p, (True, False))
        for z in range(2):
            for t in range(3):
                want_img, want_lbl = flip_pair(*apply_augment(
                    vol.data[:, :, z, t], lbl4.data[:, :, z, t], p, (1.5, 1.2)), True, False)
                assert np.array_equal(img.data[:, :, z, t], want_img)
                assert np.array_equal(lbl.data[:, :, z, t], want_lbl)
        assert img.spacing == vol.spacing and lbl.spacing == lbl4.spacing

    def test_3d_labels_shared_by_every_frame(self, volumes):
        vol, lbl4 = volumes
        lbl3 = LabelVolume(data=lbl4.data[:, :, :, 0], spacing=(1.5, 1.2, 8.0))
        p = sample_params(12)
        img, lbl = augment_volume(vol, lbl3, p)
        for z in range(2):
            _, want = apply_augment(vol.data[:, :, z, 0], lbl3.data[:, :, z], p, (1.5, 1.2))
            assert np.array_equal(lbl.data[:, :, z], want)
        assert np.array_equal(augment_volume(vol, None, p)[0].data, img.data)
        assert augment_volume(vol, None, p)[1] is None


def oracle_points(rng, shape, n=4000):
    """Points (2, n) on and around an image: random reals, half-integers,
    exact 0 and n-1 on either axis, points outside [0, n-1], and squares of
    reals in [0, 1), whose mantissas use every bit, so ``1 - (1 - f)`` is
    not always f."""
    pts = np.stack([rng.uniform(-1.5, m + 0.5, n) for m in shape])
    kind = rng.integers(0, 4, (2, n))
    half = np.round(2 * pts) / 2
    edge = np.where(rng.random((2, n)) < 0.5, 0.0, np.array(shape, float)[:, None] - 1)
    return np.select([kind == 1, kind == 2, kind == 3], [half, edge, rng.random((2, n)) ** 2], pts)


class TestResamplingOracle:
    # scipy.ndimage.map_coordinates is the reference the numpy resamplers
    # reproduce bit for bit
    SHAPES = [(1, 1), (1, 6), (6, 1), (2, 2), (2, 7), (17, 31), (59, 40)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bilinear_is_map_coordinates_order_1(self, shape):
        rng = np.random.default_rng(sum(shape))
        img = rng.normal(size=shape)
        img[rng.random(shape) < 0.2] = -0.0
        pts = oracle_points(rng, shape)
        want = ndimage.map_coordinates(img, pts, order=1, mode="constant", cval=0.0)
        assert _bilinear(img, pts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_nearest_is_map_coordinates_order_0(self, shape):
        rng = np.random.default_rng(sum(shape))
        lbl = rng.integers(0, 4, shape).astype(np.uint8)
        pts = oracle_points(rng, shape)
        want = ndimage.map_coordinates(lbl, pts, order=0, mode="constant", cval=0)
        got = _nearest(lbl, pts)
        assert got.dtype == np.uint8 and got.tobytes() == want.tobytes()


class TestElasticField:
    def test_weights_hand_values(self):
        w0, w1 = _spline_weights(3)  # f = 0, 1/2, 1
        assert w0.tolist() == [1.0, 0.5, 0.0]
        assert w1.tolist() == [0.0, 0.5, 1.0]
        assert _spline_weights(1).tolist() == [[1.0], [0.0]]

    def test_corner_pixels_carry_their_control_points(self):
        grid = sample_params(4).elastic_array
        field = _elastic_field_px(grid, (9, 14), (1.0, 1.0))
        for i, j in np.ndindex(2, 2):
            assert np.array_equal(field[:, i * 8, j * 13], grid[i, j])

    @pytest.mark.parametrize("shape", [(128, 96), (33, 70), (1, 9)])
    def test_matches_scipy_cubic_spline(self, shape):
        rng = np.random.default_rng(shape[0])
        fx, fy = (np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1) for n in shape)
        coords = np.stack(np.meshgrid(fx, fy, indexing="ij"))
        worst = 0.0
        for seed in range(200):
            grid = sample_params(seed).elastic_array
            spacing = rng.uniform(0.5, 2.5, 2)
            want = np.stack([
                ndimage.map_coordinates(grid[:, :, axis], coords, order=3, mode="nearest")
                / spacing[axis] for axis in range(2)
            ])
            worst = max(worst, np.abs(_elastic_field_px(grid, shape, spacing) - want).max())
        assert worst < 1e-12
