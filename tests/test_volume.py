import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cardiomr.volume import (
    MAX_HEADER_BYTES,
    LabelSchema,
    LabelVolume,
    ScalarVolume,
    VolumeFormatError,
    VolumeSizeError,
    crop_patch,
    load_volume,
    normalize_slicewise,
    pad_or_center_crop,
    present_ids,
    save_volume,
)


def write_raw(path, ndims, dims, spacing, etype, payload: bytes):
    header = (
        f"NDims = {ndims}\n"
        f"DimSize = {' '.join(str(d) for d in dims)}\n"
        f"ElementSpacing = {' '.join(str(s) for s in spacing)}\n"
        f"ElementType = {etype}\n"
        "ElementDataFile = LOCAL\n\n"
    )
    path.write_bytes(header.encode() + payload)


def reference_payload(data, etype):
    """The payload bytes as save_volume wrote them with a transposing copy."""
    return np.ravel(np.asarray(data, etype), order="F").tobytes()


def payload_of(path):
    raw = path.read_bytes()
    return raw[raw.index(b"\n\n") + 2:]


def scalar_sources():
    """float32/float64 arrays in C order, F order and neither (permuted axes)."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal((5, 4, 3, 6)) * 100
    for dtype in (np.float32, np.float64):
        arr = base.astype(dtype)
        name = np.dtype(dtype).name
        strided = rng.standard_normal((10, 4, 3, 12)).astype(dtype)[::2, :, :, ::2]
        yield pytest.param(arr, id=f"{name}-C")
        yield pytest.param(np.asfortranarray(arr), id=f"{name}-F")
        yield pytest.param(arr.transpose(1, 0, 3, 2), id=f"{name}-permuted")
        yield pytest.param(strided, id=f"{name}-strided")


class TestSavePayload:
    @pytest.mark.parametrize("src", list(scalar_sources()))
    def test_scalar_bytes_match_the_transposing_writer(self, tmp_path, src):
        vol = ScalarVolume(data=src, spacing=(1.25, 1.25, 8.0, 30.0))
        f = tmp_path / "v.vol"
        save_volume(vol, f)
        assert payload_of(f) == reference_payload(vol.data, "<f4")
        assert payload_of(f) == reference_payload(src, "<f4")

    @pytest.mark.parametrize("shape", [(5, 4, 3), (5, 4, 3, 2)])
    @pytest.mark.parametrize("order", ["C", "F", "permuted"])
    def test_label_bytes_match_the_transposing_writer(self, tmp_path, shape, order):
        rng = np.random.default_rng(12)
        src = rng.integers(0, 4, shape).astype(np.uint8)
        if order == "F":
            src = np.asfortranarray(src)
        elif order == "permuted":
            src = src.transpose(1, 0, *range(2, len(shape)))
        vol = LabelVolume(data=src, spacing=(1.0,) * len(shape))
        f = tmp_path / "l.vol"
        save_volume(vol, f)
        assert payload_of(f) == reference_payload(src, "u1")

    def test_load_holds_float32_file_order_read_only(self, tmp_path):
        rng = np.random.default_rng(13)
        payload = rng.standard_normal(6 * 5 * 3 * 4).astype("<f4").tobytes()
        f = tmp_path / "v.vol"
        write_raw(f, 4, (6, 5, 3, 4), (1.5, 1.5, 10, 1), "FLOAT32", payload)
        vol = load_volume(f, "scalar")
        assert vol.data.dtype == np.float32
        assert vol.data.flags.f_contiguous
        assert not vol.data.flags.writeable
        assert np.ravel(vol.data, order="F").tobytes() == payload

    @pytest.mark.parametrize("kind,ndims,dims,etype", [
        ("scalar", 4, (6, 5, 3, 4), "FLOAT32"),
        ("label", 3, (6, 5, 3), "UINT8"),
        ("label", 4, (6, 5, 3, 2), "UINT8"),
    ])
    def test_load_save_round_trip_is_byte_identical(self, tmp_path, kind, ndims, dims, etype):
        rng = np.random.default_rng(14)
        n = int(np.prod(dims))
        if etype == "FLOAT32":
            payload = rng.standard_normal(n).astype("<f4").tobytes()
        else:
            payload = rng.integers(0, 4, n).astype("u1").tobytes()
        src = tmp_path / "in.vol"
        write_raw(src, ndims, dims, (1.5, 1.25, 10.0, 30.0)[:ndims], etype, payload)
        out = tmp_path / "out.vol"
        save_volume(load_volume(src, kind), out)
        assert out.read_bytes() == src.read_bytes()


# Larger than the shapes above, with 1 to 97 entries along x and y
LARGER_SHAPES = [(70, 45, 3, 4), (33, 65, 2, 1), (1, 97, 1, 3)]


def laid_out(base, order):
    """``base`` in C order, F order, with permuted axes, or as a strided view."""
    if order == "F":
        return np.asfortranarray(base)
    if order == "permuted":
        return base.transpose(1, 0, *reversed(range(2, base.ndim)))
    if order == "strided":
        big = np.zeros((2 * base.shape[0],) + base.shape[1:-1] + (2 * base.shape[-1],),
                       base.dtype)
        big[::2, ..., ::2] = base
        return big[::2, ..., ::2]
    return base


class TestSaveFileOrder:
    @pytest.mark.parametrize("order", ["C", "F", "permuted", "strided"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", LARGER_SHAPES)
    def test_scalar_bytes_match_the_transposing_writer(self, tmp_path, shape, dtype, order):
        base = (np.random.default_rng(16).standard_normal(shape) * 100).astype(dtype)
        src = laid_out(base, order)
        f = tmp_path / "v.vol"
        save_volume(ScalarVolume(data=src, spacing=(1.25, 1.25, 8.0, 30.0)), f)
        assert payload_of(f) == reference_payload(src, "<f4")

    @pytest.mark.parametrize("order", ["C", "F", "permuted", "strided"])
    @pytest.mark.parametrize("shape", LARGER_SHAPES + [s[:3] for s in LARGER_SHAPES])
    def test_label_bytes_match_the_transposing_writer(self, tmp_path, shape, order):
        src = laid_out(np.random.default_rng(17).integers(0, 4, shape).astype(np.uint8), order)
        f = tmp_path / "l.vol"
        save_volume(LabelVolume(data=src, spacing=(1.0,) * len(shape)), f)
        assert payload_of(f) == reference_payload(src, "u1")

    def test_c_ordered_float64_peaks_at_one_float32_payload(self, tmp_path):
        vol = ScalarVolume(data=np.random.default_rng(18).standard_normal((96, 80, 6, 10)))
        assert vol.data.dtype == np.float64 and vol.data.flags.c_contiguous
        peak, _ = traced_peak(lambda: save_volume(vol, tmp_path / "v.vol"))
        assert peak <= 1.25 * vol.data.size * 4

    @pytest.mark.parametrize("vol", [
        ScalarVolume(data=np.zeros((4, 0, 2, 3), np.float32)),
        LabelVolume(data=np.zeros((0, 3, 2), np.uint8)),
    ], ids=["scalar", "label"])
    def test_empty_axis_is_refused_before_the_file_is_opened(self, tmp_path, vol):
        f = tmp_path / "v.vol"
        with pytest.raises(ValueError, match=re.escape(str(vol.data.shape))):
            save_volume(vol, f)
        assert not f.exists()


class TestLoadSave:
    def test_small_file_x_fastest_order(self, tmp_path):
        payload = np.array([0, 1, 2, 3], dtype="<f4").tobytes()
        f = tmp_path / "v.vol"
        write_raw(f, 4, (2, 2, 1, 1), (1, 1, 1, 1), "FLOAT32", payload)
        vol = load_volume(f, "scalar")
        assert vol.data[0, 0, 0, 0] == 0
        assert vol.data[1, 0, 0, 0] == 1
        assert vol.data[0, 1, 0, 0] == 2
        assert vol.data[1, 1, 0, 0] == 3

    def test_payload_size_mismatch(self, tmp_path):
        payload = np.zeros(100, dtype="<f4").tobytes()
        f = tmp_path / "v.vol"
        write_raw(f, 4, (4, 3, 2, 5), (1, 1, 1, 1), "FLOAT32", payload)
        with pytest.raises(VolumeSizeError, match="400 bytes, expected 480"):
            load_volume(f, "scalar")

    def test_roundtrip_random_volume_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.random((16, 16, 8, 20)).astype(np.float32)
        vol = ScalarVolume(data=data, spacing=(1.5, 1.5, 8.0, 1.0))
        f = tmp_path / "v.vol"
        save_volume(vol, f)
        back = load_volume(f, "scalar")
        assert np.array_equal(back.data, data)
        assert back.spacing == vol.spacing

    def test_dimsize_product_beyond_int64_is_a_size_error(self, tmp_path):
        f = tmp_path / "v.vol"
        write_raw(f, 3, (2**32, 2**32, 1), (1, 1, 1), "UINT8", b"")
        with pytest.raises(VolumeSizeError, match="expected 18446744073709551616"):
            load_volume(f, "label")

    def test_save_load_save_reproduces_payload_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.random((5, 4, 3, 2)).astype(np.float32)
        f1, f2 = tmp_path / "a.vol", tmp_path / "b.vol"
        save_volume(ScalarVolume(data=data), f1)
        save_volume(load_volume(f1, "scalar"), f2)
        payload1 = f1.read_bytes().split(b"\n\n", 1)[1]
        payload2 = f2.read_bytes().split(b"\n\n", 1)[1]
        assert payload1 == payload2

    def test_label_roundtrip_with_3d_dims(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 4, (6, 5, 4)).astype(np.uint8)
        f = tmp_path / "l.vol"
        save_volume(LabelVolume(data=data, spacing=(1.0, 1.0, 5.0)), f)
        back = load_volume(f, "label")
        assert np.array_equal(back.data, data)

    def test_missing_or_misordered_key_names_offender(self, tmp_path):
        f = tmp_path / "bad.vol"
        f.write_bytes(b"NDims = 3\nDimSize = 1 1 1\nElementType = UINT8\n"
                      b"ElementSpacing = 1 1 1\nElementDataFile = LOCAL\n\n\x00")
        with pytest.raises(VolumeFormatError, match="ElementSpacing|ElementType"):
            load_volume(f, "label")

    def test_bad_element_type(self, tmp_path):
        f = tmp_path / "bad.vol"
        write_raw(f, 3, (1, 1, 1), (1, 1, 1), "INT16", b"\x00\x00")
        with pytest.raises(VolumeFormatError, match="ElementType"):
            load_volume(f, "label")

    def test_missing_blank_line(self, tmp_path):
        f = tmp_path / "bad.vol"
        f.write_bytes(b"NDims = 3\nDimSize = 1 1 1\n")
        with pytest.raises(VolumeFormatError, match="blank line"):
            load_volume(f, "scalar")

    @pytest.mark.parametrize("spacing", [("nan", "inf", 1.0), (1.0, 1.0, "inf"), (1.0, "NaN", 1.0)])
    def test_non_finite_spacing_names_element_spacing(self, tmp_path, spacing):
        f = tmp_path / "v.vol"
        write_raw(f, 3, (1, 1, 1), spacing, "UINT8", b"\x00")
        with pytest.raises(VolumeFormatError, match="ElementSpacing"):
            load_volume(f, "label")

    def test_kind_dtype_mismatch(self, tmp_path):
        f = tmp_path / "v.vol"
        write_raw(f, 3, (1, 1, 1), (1, 1, 1), "UINT8", b"\x01")
        with pytest.raises(VolumeFormatError, match="FLOAT32"):
            load_volume(f, "scalar")


# Both mutation bases are 2x2x1x1 volumes with spacing 1.5 1.5 8.0 1.0, so
# this prefix ends where the first spacing value ("1.5") starts.
_HEADER_TO_SPACING = b"NDims = 4\nDimSize = 2 2 1 1\nElementSpacing = "
_SPLICES = st.lists(
    st.tuples(
        st.integers(0, 200),  # where, modulo the file length + 1
        st.one_of(st.binary(max_size=4),
                  st.sampled_from([b"nan", b"inf", b"-0", b"1e999", b" ", b"\n", b"\n\n"])),
        st.integers(0, 4),  # bytes replaced
    ),
    min_size=1, max_size=4,
)


class TestMutatedFiles:
    @pytest.mark.parametrize("kind", ["scalar", "label"])
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(splices=_SPLICES)
    @example(splices=[(len(_HEADER_TO_SPACING), b"nan", 3)])
    @example(splices=[(len(_HEADER_TO_SPACING), b"inf", 3)])
    def test_load_raises_value_error_or_gives_finite_spacing(self, tmp_path, kind, splices):
        spacing = (1.5, 1.5, 8.0, 1.0)
        if kind == "scalar":
            vol = ScalarVolume(data=np.arange(4, dtype=np.float32).reshape(2, 2, 1, 1),
                               spacing=spacing)
        else:
            vol = LabelVolume(data=np.arange(4, dtype=np.uint8).reshape(2, 2, 1, 1),
                              spacing=spacing)
        f = tmp_path / "v.vol"
        save_volume(vol, f)
        raw = f.read_bytes()
        assert raw.startswith(_HEADER_TO_SPACING)
        for at, new, replaced in splices:
            at %= len(raw) + 1
            raw = raw[:at] + new + raw[at + replaced:]
        f.write_bytes(raw)
        try:
            loaded = load_volume(f, kind)
        except ValueError:  # VolumeFormatError and VolumeSizeError included
            return
        assert all(0 < s < math.inf for s in loaded.spacing)


class TestTypes:
    def test_scalar_requires_positive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            ScalarVolume(data=np.zeros((2, 2, 1, 1)), spacing=(1, 0, 1, 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_volumes_reject_non_finite_spacing(self, bad):
        with pytest.raises(ValueError, match="spacing"):
            ScalarVolume(data=np.zeros((2, 2, 1, 1)), spacing=(1, bad, 1, 1))
        with pytest.raises(ValueError, match="spacing"):
            LabelVolume(data=np.zeros((2, 2, 1), dtype=np.uint8), spacing=(bad, 1, 1))

    def test_scalar_rejects_non_finite(self):
        data = np.zeros((2, 2, 1, 1))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ScalarVolume(data=data)

    def test_label_rejects_out_of_schema_values(self):
        with pytest.raises(ValueError, match="not in the schema"):
            LabelVolume(data=np.full((2, 2, 1), 7, dtype=np.uint8))

    def test_schema_is_the_fixed_acdc_table(self):
        schema = LabelSchema()
        assert schema.ids == (0, 1, 2, 3)
        assert schema.foreground_ids == (1, 2, 3)
        for label_id, name in enumerate(("BG", "RV", "MYO", "LV")):
            assert schema.id_of(name) == label_id
            assert schema.name_of(label_id) == name
        with pytest.raises(KeyError):
            schema.id_of("LA")
        with pytest.raises(KeyError):
            schema.name_of(4)
        with pytest.raises(TypeError):
            LabelSchema(entries=((0, "BG"), (1, "A")))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scalar_never_aliases_the_callers_array(self, dtype):
        src = np.zeros((2, 2, 1, 3), dtype=dtype)
        vol = ScalarVolume(data=src)
        src[0, 0, 0, 0] = 5.0
        assert vol.data.dtype == dtype
        assert vol.data[0, 0, 0, 0] == 0.0
        assert src.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_scalar_copy_keeps_the_memory_order(self, dtype, order):
        src = np.zeros((3, 2, 2, 4), dtype=dtype, order=order)
        vol = ScalarVolume(data=src)
        assert not np.may_share_memory(vol.data, src)
        assert vol.data.flags.f_contiguous == (order == "F")
        assert vol.data.flags.c_contiguous == (order == "C")
        src[1, 1, 1, 1] = 5.0
        assert vol.data[1, 1, 1, 1] == 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int16, np.uint8, np.int64])
    def test_scalar_other_dtypes_become_float64(self, dtype):
        src = np.arange(24).reshape(2, 3, 2, 2).astype(dtype)
        vol = ScalarVolume(data=src)
        assert vol.data.dtype == np.float64
        assert np.array_equal(vol.data, src.astype(np.float64))
        assert not np.may_share_memory(vol.data, src)
        assert not vol.data.flags.writeable

    def test_volumes_are_immutable(self):
        vol = ScalarVolume(data=np.zeros((2, 2, 1, 1)))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0, 0] = 1.0


class TestNormalize:
    def test_direct_evaluation(self):
        data = np.array([2.0, 4.0, 6.0]).reshape(3, 1, 1, 1)
        out = normalize_slicewise(ScalarVolume(data=data))
        assert np.allclose(out.data[:, 0, 0, 0], [0.0, 0.5, 1.0])

    def test_constant_slice_goes_to_zero(self):
        out = normalize_slicewise(ScalarVolume(data=np.full((3, 2, 1, 1), 5.0)))
        assert np.all(out.data == 0.0)

    def test_unit_range_slice_is_fixed_point(self):
        data = np.array([0.0, 1.0]).reshape(2, 1, 1, 1)
        out = normalize_slicewise(ScalarVolume(data=data))
        assert np.array_equal(out.data, data.astype(np.float32))

    def test_slices_normalized_independently(self):
        rng = np.random.default_rng(3)
        data = rng.random((6, 6, 3, 4)).astype(np.float32) * 50 + 7
        out = normalize_slicewise(ScalarVolume(data=data))
        for z in range(3):
            for t in range(4):
                sl = out.data[:, :, z, t]
                assert sl.min() == 0.0 and sl.max() == 1.0

    def test_idempotent_on_normalized_slices(self):
        rng = np.random.default_rng(4)
        data = rng.random((5, 5, 2, 2)).astype(np.float32)
        once = normalize_slicewise(ScalarVolume(data=data))
        twice = normalize_slicewise(once)
        assert np.allclose(once.data, twice.data, atol=1e-7)


class TestCropPatch:
    def _vol(self):
        data = np.arange(16, dtype=np.float32).reshape(4, 4, order="F")
        return ScalarVolume(data=data[:, :, np.newaxis, np.newaxis])

    def test_interior_window(self):
        patch = crop_patch(self._vol(), center=(1, 1), size=(2, 2))
        assert np.array_equal(patch.data[:, :, 0, 0], self._vol().data[0:2, 0:2, 0, 0])

    def test_corner_center_pads_three_quadrants(self):
        patch = crop_patch(self._vol(), center=(0, 0), size=(4, 4))
        out = patch.data[:, :, 0, 0]
        assert np.all(out[:2, :] == 0)
        assert np.all(out[:, :2] == 0)
        assert np.array_equal(out[2:, 2:], self._vol().data[0:2, 0:2, 0, 0])

    def test_full_size_center_is_identity(self):
        patch = crop_patch(self._vol(), center=(2, 2), size=(4, 4))
        assert np.array_equal(patch.data, self._vol().data)

    def test_center_outside_grid_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            crop_patch(self._vol(), center=(4, 0), size=(2, 2))

    def test_label_patch_pads_with_background(self):
        lbl = LabelVolume(data=np.full((3, 3, 1), 2, dtype=np.uint8))
        patch = crop_patch(lbl, center=(0, 0), size=(3, 3))
        assert patch.data[0, 0, 0] == 0
        assert patch.data[2, 2, 0] == 2

    def test_reembedding_reproduces_window(self):
        rng = np.random.default_rng(5)
        vol = ScalarVolume(data=rng.random((12, 12, 1, 1)).astype(np.float32))
        patch = crop_patch(vol, center=(6, 5), size=(4, 4))
        x0, y0 = 6 - 2, 5 - 2
        assert np.array_equal(
            patch.data[:, :, 0, 0], vol.data[x0:x0 + 4, y0:y0 + 4, 0, 0]
        )


def reference_crop(v, center, size):
    """crop_patch's data as it was made in C order whatever the source's order."""
    cx, cy = int(center[0]), int(center[1])
    w, h = int(size[0]), int(size[1])
    nx, ny = v.dims[0], v.dims[1]
    data = v.data
    if data.ndim == 3:
        data = data[:, :, :, np.newaxis]
    out = np.zeros((w, h) + data.shape[2:], dtype=data.dtype)
    x0, y0 = cx - w // 2, cy - h // 2
    sx0, sx1 = max(x0, 0), min(x0 + w, nx)
    sy0, sy1 = max(y0, 0), min(y0 + h, ny)
    out[sx0 - x0:sx1 - x0, sy0 - y0:sy1 - y0] = data[sx0:sx1, sy0:sy1]
    if v.data.ndim == 3:
        out = out[:, :, :, 0]
    return out


def crop_sources():
    rng = np.random.default_rng(15)
    scalar = (rng.standard_normal((9, 7, 3, 5)) * 10).astype(np.float32)
    labels = rng.integers(0, 4, (9, 7, 3)).astype(np.uint8)
    for order in ("C", "F"):
        labels4d = np.stack([labels, labels[::-1]], axis=3)
        yield pytest.param(ScalarVolume(data=np.asarray(scalar, order=order)),
                           id=f"float32-{order}")
        yield pytest.param(ScalarVolume(data=np.asarray(scalar, np.float64, order=order)),
                           id=f"float64-{order}")
        yield pytest.param(LabelVolume(data=np.asarray(labels, order=order)),
                           id=f"label3d-{order}")
        yield pytest.param(LabelVolume(data=np.asarray(labels4d, order=order),
                                       spacing=(1.0, 1.0, 1.0, 1.0)), id=f"label4d-{order}")


# every corner, every border's midpoint and the interior; windows narrower
# than, as wide as and wider than the 9x7 grid
CROP_CENTERS = [(0, 0), (8, 0), (0, 6), (8, 6), (4, 0), (4, 6), (0, 3), (8, 3), (4, 3)]
CROP_SIZES = [(1, 1), (4, 3), (5, 6), (9, 7), (12, 11)]


class TestCropPatchOrder:
    @pytest.mark.parametrize("vol", list(crop_sources()))
    def test_matches_the_c_ordered_crop(self, vol):
        for center in CROP_CENTERS:
            for size in CROP_SIZES:
                got = crop_patch(vol, center, size).data
                ref = reference_crop(vol, center, size)
                assert got.dtype == ref.dtype
                assert got.shape == ref.shape
                assert np.array_equal(got, ref), (center, size)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_patch_follows_the_source_order(self, order):
        data = np.zeros((9, 7, 3, 5), dtype=np.float32, order=order)
        patch = crop_patch(ScalarVolume(data=data), (4, 3), (4, 5)).data
        assert patch.flags.f_contiguous == (order == "F")
        assert patch.flags.c_contiguous == (order == "C")


class TestPadOrCenterCrop:
    def test_pad_small_to_large(self):
        vol = ScalarVolume(data=np.ones((128, 128, 1, 1), dtype=np.float32))
        out = pad_or_center_crop(vol, (256, 256))
        assert out.dims[:2] == (256, 256)
        assert np.all(out.data[64:192, 64:192] == 1)
        assert out.data[:64].sum() == 0 and out.data[192:].sum() == 0

    def test_crop_large_to_small(self):
        data = np.zeros((300, 300, 1, 1), dtype=np.float32)
        data[22:278, 22:278] = 1
        out = pad_or_center_crop(ScalarVolume(data=data), (256, 256))
        assert out.dims[:2] == (256, 256)
        assert np.all(out.data == 1)

    def test_identity_when_target_matches(self):
        rng = np.random.default_rng(6)
        vol = ScalarVolume(data=rng.random((10, 12, 1, 1)).astype(np.float32))
        out = pad_or_center_crop(vol, (10, 12))
        assert np.array_equal(out.data, vol.data)

    def test_crop_inverts_pad(self):
        rng = np.random.default_rng(7)
        vol = ScalarVolume(data=rng.random((9, 11, 2, 1)).astype(np.float32))
        big = pad_or_center_crop(vol, (20, 23))
        back = pad_or_center_crop(big, (9, 11))
        assert np.array_equal(back.data, vol.data)


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of calling ``fn``, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestLoadMemory:
    # ~1 MB payloads: the label check's index buffer is a fixed 64 KiB
    @pytest.mark.parametrize("kind,etype,dims", [
        ("scalar", "FLOAT32", (64, 48, 4, 20)), ("label", "UINT8", (128, 96, 4, 20)),
    ])
    def test_load_peaks_at_one_payload(self, tmp_path, kind, etype, dims):
        n = math.prod(dims)
        if etype == "FLOAT32":
            payload = np.random.default_rng(5).random(n, dtype=np.float32).tobytes()
        else:
            payload = (np.arange(n) % 4).astype(np.uint8).tobytes()
        f = tmp_path / "v.vol"
        write_raw(f, 4, dims, (1.5, 1.5, 8.0, 1.0), etype, payload)
        peak, vol = traced_peak(lambda: load_volume(f, kind))
        assert peak <= 1.1 * len(payload)
        assert np.ravel(vol.data, order="F").tobytes() == payload
        assert vol.data.flags.f_contiguous and not vol.data.flags.writeable

    @pytest.mark.parametrize("have,want", [(1 << 20, 1 << 21), (1 << 21, 1 << 20)],
                             ids=["truncated", "oversized"])
    def test_size_error_comes_before_any_payload_sized_allocation(self, tmp_path, have, want):
        f = tmp_path / "v.vol"
        write_raw(f, 3, (want, 1, 1), (1, 1, 1), "UINT8", bytes(have))
        peak, _ = traced_peak(lambda: pytest.raises(VolumeSizeError, load_volume, f, "label"))
        assert peak < 64 * 1024

    def test_header_without_blank_line_is_read_only_to_the_cap(self, tmp_path):
        f = tmp_path / "v.vol"
        f.write_bytes(b"NDims = 3\n" + b"x" * (4 << 20))
        peak, err = traced_peak(lambda: pytest.raises(VolumeFormatError, load_volume, f, "scalar"))
        assert peak < 2 * MAX_HEADER_BYTES
        assert f"first {MAX_HEADER_BYTES} bytes" in str(err.value)


class TestLabelChecks:
    @pytest.mark.parametrize("data,bad", [
        (np.array([0, -1, 2, -3], dtype=np.int8), [-3, -1]),
        (np.array([0, 1, 7, 200], dtype=np.uint8), [7, 200]),
        (np.array([0, 3, 300, 2**40], dtype=np.int64), [300, 2**40]),
        (np.array([0.0, 1.0, 4.0, 9.0]), [4, 9]),
    ], ids=["negative", "out-of-schema", "int64-above-255", "float"])
    def test_rejects_with_the_ids_it_found(self, data, bad):
        with pytest.raises(ValueError,
                           match=re.escape(f"labels {bad} are not in the schema (0, 1, 2, 3)")):
            LabelVolume(data=data.reshape(2, 2, 1))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_accepts_schema_ids_of_any_dtype_as_uint8(self, dtype):
        data = np.array([3, 0, 2, 1, 1, 0], dtype=dtype).reshape(3, 2, 1)
        vol = LabelVolume(data=data)
        assert vol.data.dtype == np.uint8 and np.array_equal(vol.data, data)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(0, 255), min_size=0, max_size=60),
           order=st.sampled_from(["C", "F", "strided"]))
    def test_uint8_ids_equal_np_unique(self, values, order):
        data = np.array(values + [0] * (-len(values) % 6), dtype=np.uint8).reshape(-1, 3, 2)
        if order == "strided":
            data = data[::-1, ::2]
        else:
            data = np.asarray(data, order=order)
        assert np.array_equal(present_ids(data), np.unique(data))


class TestLabelValues:
    """A float label that is not exactly an id is refused, never truncated."""

    @pytest.mark.parametrize("values,bad", [
        ([0.0, 1.5, 2.9, 3.99], [1.5, 2.9, 3.99]),
        ([0.0, 1.0, np.nan, 2.0], ["nan"]),
        ([-0.5, 0.0, 1.0, 3.0], [-0.5]),
        ([0.0, np.inf, 2.0, 4.0], [4, "inf"]),
    ], ids=["fractions", "nan", "negative-fraction", "inf"])
    def test_refuses_non_integral_floats(self, values, bad):
        names = ", ".join(str(v) for v in bad)
        with pytest.raises(ValueError,
                           match=re.escape(f"labels [{names}] are not in the schema (0, 1, 2, 3)")):
            LabelVolume(data=np.array(values).reshape(2, 2, 1))

    @pytest.mark.parametrize("dtype", [bool, np.int16, np.uint32])
    def test_integer_check_by_range_accepts_every_schema_id(self, dtype):
        data = np.array([0, 1, 1, 0] if dtype is bool else [3, 0, 2, 1], dtype=dtype)
        vol = LabelVolume(data=data.reshape(2, 2, 1))
        assert np.array_equal(vol.data.ravel(), data)
        assert LabelVolume(data=np.zeros((0, 2, 1), dtype=dtype)).dims == (0, 2, 1)
