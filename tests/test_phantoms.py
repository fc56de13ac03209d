"""The phantoms against a reference built the slow, obvious way.

Benchmark inputs, acceptance thresholds and the output-comparison gate are
all drawn from these phantoms, so every one must stay bit-identical. The
reference below evaluates each mask on full ``meshgrid`` grids and draws
disease-cohort walls through a per-angle callback, as the phantoms did
before they broadcast offsets and precomputed the wall widths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardiomr import phantoms
from cardiomr.phantoms import (
    _base_wall_for_area,
    _uniform_wall_for_area,
    annulus_mask,
    disease_cohort,
    disease_cohort_case,
    disk_mask,
    heart_label_volume,
    heart_slice,
    pulsating_disk_cine,
)
from cardiomr.volume import ACDC_SCHEMA


def ref_grids(shape, center):
    xs, ys = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij")
    return xs - center[0], ys - center[1]


def ref_disk(shape, center, radius):
    return np.hypot(*ref_grids(shape, center)) <= radius


def ref_annulus(shape, center, r_inner, r_outer):
    d = np.hypot(*ref_grids(shape, center))
    return (d > r_inner) & (d <= r_outer)


def ref_cine(shape, center, radius_range, n_frames, seed, background_texture=0.2):
    rng = np.random.default_rng(seed)
    background = background_texture * rng.random(shape)
    r_mid = 0.5 * (radius_range[0] + radius_range[1])
    r_amp = 0.5 * (radius_range[1] - radius_range[0])
    frames = np.empty(shape + (1, n_frames), dtype=np.float32)
    for t in range(n_frames):
        r = r_mid + r_amp * np.cos(2 * np.pi * t / n_frames)
        frame = background.copy()
        frame[ref_disk(shape, center, r)] = 1.0
        frames[:, :, 0, t] = frame
    return frames


def ref_heart_slice(shape, lv_center, lv_radius, wall_px, rv_center, rv_radius,
                    wall_of_angle=None):
    lbl = np.zeros(shape, dtype=np.uint8)
    if rv_radius > 0:
        lbl[ref_disk(shape, rv_center, rv_radius)] = ACDC_SCHEMA.id_of("RV")
    if wall_of_angle is None:
        myo = ref_annulus(shape, lv_center, lv_radius, lv_radius + wall_px)
    else:
        dx, dy = ref_grids(shape, lv_center)
        d = np.hypot(dx, dy)
        myo = (d > lv_radius) & (d <= lv_radius + wall_of_angle(np.arctan2(dy, dx)))
    lbl[myo] = ACDC_SCHEMA.id_of("MYO")
    lbl[ref_disk(shape, lv_center, lv_radius)] = ACDC_SCHEMA.id_of("LV")
    return lbl


def ref_cohort_case(seed, kind, shape):
    """ED and ES label arrays, and the wall width of every pixel of every
    slice (ED slices first)."""
    rng = np.random.default_rng(seed)
    n_slices = int(rng.integers(6, 11))
    rng.uniform(1.2, 1.8)
    rng.uniform(5.0, 10.0)
    center = (shape[0] // 2 + rng.uniform(-3, 3), shape[1] // 2 + rng.uniform(-3, 3))
    rv_center = (center[0] - 27, center[1])
    r_ed = float(rng.uniform(12.0, 17.0))
    shrink = float(rng.uniform(0.84, 0.94))
    rv_r_ed = float(rng.uniform(8.0, 12.0))
    w_eq = float(rng.uniform(2.4, 3.4))
    area = w_eq * (2 * r_ed + w_eq)
    theta = float(rng.uniform(np.pi / 3, 2 * np.pi / 3))
    phi = float(rng.uniform(-np.pi, np.pi))
    thin_w = float(rng.uniform(1.6, 2.2))
    taper = rng.uniform(0.9, 1.0, size=n_slices)

    def wall_of_angle(r):
        if kind == "DCM":
            w = _uniform_wall_for_area(r, area)
            return lambda ang: np.full_like(ang, r + w) - r
        w_base = _base_wall_for_area(r, area, theta / (2 * np.pi), thin_w)
        return lambda ang: np.where(
            np.abs(np.angle(np.exp(1j * (ang - phi)))) < theta / 2, thin_w, w_base)

    dx, dy = ref_grids(shape, center)
    walls = []

    def build(scale):
        data = np.zeros(shape + (n_slices,), dtype=np.uint8)
        for z in range(n_slices):
            r = r_ed * scale * taper[z]
            data[:, :, z] = ref_heart_slice(shape, center, r, 0.0, rv_center,
                                            rv_r_ed * scale * taper[z], wall_of_angle(r))
            walls.append(wall_of_angle(r)(np.arctan2(dy, dx)))
        return data

    return build(1.0), build(shrink), walls


shapes = st.tuples(st.integers(1, 48), st.integers(1, 48))
coords = st.one_of(st.integers(-8, 56), st.floats(-8.0, 56.0, allow_nan=False))
centers = st.tuples(coords, coords)
radii = st.floats(0.0, 40.0, allow_nan=False)


class TestMasks:
    @settings(max_examples=200, deadline=None)
    @given(shape=shapes, center=centers, radius=radii)
    def test_disk(self, shape, center, radius):
        assert np.array_equal(disk_mask(shape, center, radius), ref_disk(shape, center, radius))

    @settings(max_examples=200, deadline=None)
    @given(shape=shapes, center=centers, r_inner=radii, wall=radii)
    def test_annulus(self, shape, center, r_inner, wall):
        assert np.array_equal(annulus_mask(shape, center, r_inner, r_inner + wall),
                              ref_annulus(shape, center, r_inner, r_inner + wall))

    @settings(max_examples=60, deadline=None)
    @given(shape=shapes, center=centers, r_lo=radii, r_amp=st.floats(0.0, 8.0),
           n_frames=st.integers(1, 12), seed=st.integers(0, 2**31))
    def test_pulsating_disk_cine(self, shape, center, r_lo, r_amp, n_frames, seed):
        cine = pulsating_disk_cine(shape=shape, center=center, radius_range=(r_lo, r_lo + r_amp),
                                   n_frames=n_frames, seed=seed)
        ref = ref_cine(shape, center, (r_lo, r_lo + r_amp), n_frames, seed)
        assert cine.data.dtype == ref.dtype
        assert np.array_equal(cine.data, ref)


class TestHearts:
    @pytest.mark.parametrize("kwargs", [
        {},
        dict(shape=(160, 160), n_slices=1, lv_center=(80, 80), lv_radius=14, wall_px=5),
        dict(shape=(96, 96), n_slices=6, lv_radius=10, wall_px=7, rv_radius=0),
        dict(lv_center=(47.5, 48.25), lv_radius=11.7, wall_px=3.3, rv_offset=(-31, 2)),
    ])
    def test_heart_label_volume(self, kwargs):
        vol = heart_label_volume(**kwargs)
        shape = kwargs.get("shape", (96, 96))
        lv_center = kwargs.get("lv_center", (48, 48))
        rv_offset = kwargs.get("rv_offset", (-26, 0))
        sl = ref_heart_slice(shape, lv_center, kwargs.get("lv_radius", 12.0),
                             kwargs.get("wall_px", 4.0),
                             (lv_center[0] + rv_offset[0], lv_center[1] + rv_offset[1]),
                             kwargs.get("rv_radius", 9.0))
        assert np.array_equal(vol.data, np.repeat(sl[:, :, None], kwargs.get("n_slices", 8), 2))

    @pytest.mark.parametrize("shape", [(96, 96), (224, 224)])
    @pytest.mark.parametrize("kind", ["MINF", "DCM"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 123456789])
    def test_disease_cohort_case(self, seed, kind, shape):
        ed, es = disease_cohort_case(seed, kind, shape)
        ref_ed, ref_es, _ = ref_cohort_case(seed, kind, shape)
        assert np.array_equal(ed.data, ref_ed)
        assert np.array_equal(es.data, ref_es)

    @pytest.mark.parametrize("kind", ["MINF", "DCM"])
    @pytest.mark.parametrize("seed", range(6))
    def test_disease_cohort_walls(self, seed, kind, monkeypatch):
        """Each slice gets the callback's widths to the last bit. A pixel
        whose distance falls in a one-ulp gap is too rare for the label
        checks above to catch a width rounded differently. (The callback's
        DCM width ``(r + w) - r`` is ``w`` exactly: ``w = s - r`` with
        ``r <= s <= 2r`` is exact by Sterbenz's lemma, so ``r + w == s``.)"""
        walls = []

        def recording(shape, lv_center, lv_radius, wall_px, **kwargs):
            stack = np.broadcast_to(wall_px, shape + np.shape(lv_radius)).reshape(shape + (-1,))
            walls.extend(np.moveaxis(stack, -1, 0))
            return heart_slice(shape, lv_center, lv_radius, wall_px, **kwargs)

        monkeypatch.setattr(phantoms, "heart_slice", recording)
        disease_cohort_case(seed, kind, (96, 96))
        ref_walls = ref_cohort_case(seed, kind, (96, 96))[2]
        assert len(walls) == len(ref_walls)
        for wall, ref in zip(walls, ref_walls):
            assert np.array_equal(wall, ref)

    def test_disease_cohort(self):
        rng = np.random.default_rng(0)
        for i, (ed, es, kind) in enumerate(disease_cohort(20)):
            assert kind == ("MINF" if i % 2 == 0 else "DCM")
            ref_ed, ref_es, _ = ref_cohort_case(int(rng.integers(0, 2**31)), kind, (96, 96))
            assert np.array_equal(ed.data, ref_ed)
            assert np.array_equal(es.data, ref_es)


class TestStacks:
    @pytest.mark.parametrize("wall", ["scalar", "per-slice", "per-pixel"])
    def test_stacked_slices_equal_one_call_per_slice(self, wall):
        shape, n = (40, 36), 5
        rng = np.random.default_rng(3)
        lv = rng.uniform(4.0, 9.0, n)
        rv = np.array([0.0, 3.5, 6.0, 0.0, 5.25])  # a zero radius paints no RV
        walls = {"scalar": 2.5, "per-slice": rng.uniform(1.0, 4.0, n),
                 "per-pixel": rng.uniform(1.0, 4.0, shape + (n,))}[wall]
        stack = heart_slice(shape, (20.3, 17.6), lv, walls, rv_center=(9, 18), rv_radius=rv)
        per_pixel = np.broadcast_to(walls, shape + (n,))
        for z in range(n):
            assert np.array_equal(stack[:, :, z], heart_slice(
                shape, (20.3, 17.6), lv[z], per_pixel[:, :, z], rv_center=(9, 18),
                rv_radius=rv[z]))

    @pytest.mark.parametrize("kind", ["NOR", "minf", ""])
    def test_unknown_kind_names_the_accepted_ones(self, kind, monkeypatch):
        monkeypatch.setattr(phantoms.np.random, "default_rng", None)  # no draw is made
        with pytest.raises(ValueError, match=f"kind must be 'MINF' or 'DCM', got '{kind}'"):
            disease_cohort_case(1, kind)


class TestLayout:
    """Phantoms keep the C order they are built in, and hand their arrays
    over read-only. ``crop_patch`` keeps its source's order, so an x-fastest
    cine would change the layout of every patch cut from it."""

    def test_cine_is_c_ordered_and_read_only(self):
        data = pulsating_disk_cine(shape=(20, 12), n_frames=7).data
        assert data.shape == (20, 12, 1, 7) and data.dtype == np.float32
        assert data.flags.c_contiguous and data.strides == (12 * 7 * 4, 7 * 4, 7 * 4, 4)
        assert not data.flags.writeable

    @pytest.mark.parametrize("kind", ["MINF", "DCM"])
    def test_cohort_phases_are_c_ordered_and_read_only(self, kind):
        for vol in disease_cohort_case(5, kind, shape=(30, 26)):
            nz = vol.dims[2]
            assert vol.data.dtype == np.uint8
            assert vol.data.flags.c_contiguous and vol.data.strides == (26 * nz, nz, 1)
            assert not vol.data.flags.writeable

    def test_heart_label_volume_is_c_ordered_and_read_only(self):
        data = heart_label_volume(shape=(30, 26), n_slices=3).data
        assert data.flags.c_contiguous and data.strides == (26 * 3, 3, 1)
        assert not data.flags.writeable
