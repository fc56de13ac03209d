from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import cardiomr.postprocess as postprocess_mod
from cardiomr.phantoms import annulus_mask, disk_mask
from cardiomr.postprocess import (
    _fill_holes_class_aware,
    connected_components,
    fill_holes,
    keep_largest,
    postprocess_labels,
)
from cardiomr.volume import LabelVolume


def flood_fill_label(mask, connectivity):
    """Brute-force BFS labeling, raster-ordered ids (the test oracle)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 2:
        if connectivity == 4:
            offsets = [(0, 1), (0, -1), (1, 0), (-1, 0)]
        else:
            offsets = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                       if (dx, dy) != (0, 0)]
    else:
        if connectivity == 6:
            offsets = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                       (0, 0, 1), (0, 0, -1)]
        else:
            offsets = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                       for dz in (-1, 0, 1) if (dx, dy, dz) != (0, 0, 0)]
    labels = np.zeros(mask.shape, dtype=np.int32)
    next_id = 0
    for start in np.ndindex(mask.shape):
        if mask[start] and labels[start] == 0:
            next_id += 1
            labels[start] = next_id
            queue = deque([start])
            while queue:
                cur = queue.popleft()
                for off in offsets:
                    nb = tuple(c + o for c, o in zip(cur, off))
                    if all(0 <= v < s for v, s in zip(nb, mask.shape)):
                        if mask[nb] and labels[nb] == 0:
                            labels[nb] = next_id
                            queue.append(nb)
    return labels


def reference_fill_holes(mask):
    """Hole fill one raster-ordered background component at a time (oracle)."""
    mask = np.asarray(mask).astype(bool)
    bg = connected_components(~mask, connectivity=4)
    out = mask.copy()
    border_ids = set()
    labels = bg.labels
    for edge in (labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]):
        border_ids.update(int(v) for v in np.unique(edge) if v > 0)
    for comp_id, _ in bg.sizes:
        if comp_id not in border_ids:
            out[labels == comp_id] = True
    return out


def reference_fill_holes_class_aware(lbl, priority):
    """Class-aware hole fill over raster-ordered background components (oracle)."""
    out = lbl.copy()
    bg = connected_components(out == 0, connectivity=4)
    if not bg.sizes:
        return out
    labels = bg.labels
    border_ids = set()
    for edge in (labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]):
        border_ids.update(int(v) for v in np.unique(edge) if v > 0)
    for comp_id, _ in bg.sizes:
        if comp_id in border_ids:
            continue
        hole = labels == comp_id
        ring = ndimage.binary_dilation(
            hole, structure=ndimage.generate_binary_structure(2, 1)
        ) & ~hole
        adjacent = set(int(v) for v in np.unique(out[ring]) if v > 0)
        for cls in priority:
            if cls in adjacent:
                out[hole] = cls
                break
    return out


HOLE_SHAPES = [(1, 1), (1, 9), (8, 1), (2, 3), (5, 5), (12, 12), (17, 23)]


def random_label_slices(seed, n):
    """Seeded label slices from all-background to all-foreground."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        shape = HOLE_SHAPES[i % len(HOLE_SHAPES)]
        bg = (0.0, 1.0, 0.1, 0.25, 0.4, 0.6)[i % 6]
        yield rng.choice(4, size=shape, p=[bg] + [(1 - bg) / 3] * 3).astype(np.uint8)


class TestHoleFillMatchesReference:
    def test_fill_holes(self):
        filled = 0
        for lbl in random_label_slices(5, 700):
            out = fill_holes(lbl > 0)
            assert np.array_equal(out, reference_fill_holes(lbl > 0))
            filled += int(out.sum() - (lbl > 0).sum())
        assert filled > 100  # the slices do hold holes

    @pytest.mark.parametrize("priority", [[3, 2, 1], [1, 3, 2]])
    def test_class_aware(self, priority):
        filled = 0
        for lbl in random_label_slices(6, 700):
            out = _fill_holes_class_aware(lbl, priority)
            assert np.array_equal(out, reference_fill_holes_class_aware(lbl, priority))
            filled += int(np.count_nonzero(out != lbl))
        assert filled > 100

    def test_zero_size_slices(self):
        for shape in [(0, 5), (4, 0)]:
            lbl = np.zeros(shape, dtype=np.uint8)
            out = _fill_holes_class_aware(lbl, [3, 2, 1])
            assert np.array_equal(out, reference_fill_holes_class_aware(lbl, [3, 2, 1]))
            assert fill_holes(lbl > 0).shape == shape


class TestConnectedComponents:
    def test_two_blobs_sizes(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0:2, 0:5] = True   # size 10
        mask[6, 2:5] = True     # size 3
        comp = connected_components(mask, connectivity=4)
        assert sorted(c for _, c in comp.sizes) == [3, 10]
        assert comp.n_components == 2

    def test_empty_mask(self):
        comp = connected_components(np.zeros((4, 4), dtype=bool), 8)
        assert comp.n_components == 0

    def test_full_mask_single_component(self):
        comp = connected_components(np.ones((5, 6), dtype=bool), 4)
        assert comp.sizes == [(1, 30)]

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_flood_fill_on_random_2d(self, connectivity):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mask = rng.random((7, 9)) < 0.45
            got = connected_components(mask, connectivity).labels
            assert np.array_equal(got, flood_fill_label(mask, connectivity))

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_matches_flood_fill_on_random_3d(self, connectivity):
        rng = np.random.default_rng(1)
        for _ in range(25):
            mask = rng.random((6, 5, 4)) < 0.35
            got = connected_components(mask, connectivity).labels
            assert np.array_equal(got, flood_fill_label(mask, connectivity))

    def test_invalid_connectivity_rejected(self):
        with pytest.raises(ValueError):
            connected_components(np.zeros((3, 3), bool), 6)


class TestKeepLargest:
    def test_keeps_ten_voxel_blob(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0:2, 0:5] = True
        mask[6, 2:5] = True
        out = keep_largest(mask, 4)
        assert out.sum() == 10
        assert np.all(out[0:2, 0:5])

    def test_single_blob_unchanged(self):
        mask = disk_mask((20, 20), (10, 10), 5)
        assert np.array_equal(keep_largest(mask, 8), mask)

    def test_empty_stays_empty(self):
        assert not keep_largest(np.zeros((4, 4), bool), 4).any()

    def test_tie_keeps_earliest_raster_component(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0:2] = True
        mask[4, 3:5] = True
        out = keep_largest(mask, 4)
        assert out[0, 0] and not out[4, 3]

    def test_never_increases_foreground(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mask = rng.random((10, 10)) < 0.5
            assert keep_largest(mask, 8).sum() <= mask.sum()


class TestFillHoles:
    def test_annulus_becomes_disk(self):
        ann = annulus_mask((40, 40), (20, 20), 8, 12)
        assert np.array_equal(fill_holes(ann), disk_mask((40, 40), (20, 20), 12))

    def test_solid_disk_unchanged(self):
        disk = disk_mask((30, 30), (15, 15), 9)
        assert np.array_equal(fill_holes(disk), disk)

    def test_background_only_unchanged(self):
        assert not fill_holes(np.zeros((6, 6), bool)).any()

    def test_border_open_region_not_filled(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:8, 2:8] = True
        mask[4:6, 4:6] = False   # enclosed hole
        mask[0:5, 5] = False     # channel reaching the border? carve a path
        mask[0, 5] = False
        out = fill_holes(mask)
        assert out.sum() >= mask.sum()

    def test_never_decreases_foreground(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mask = rng.random((12, 12)) < 0.5
            assert fill_holes(mask).sum() >= mask.sum()


def reference_postprocess(lbl, skip_3d, skip_2d, skip_fill):
    """postprocess_labels on a plain 3D array, repeating both passes
    whenever either of them dropped a voxel."""
    data = np.array(lbl)
    priority = sorted(int(v) for v in np.unique(data) if v > 0)[::-1]
    changed = True
    while changed and not (skip_3d and skip_2d):
        changed = False
        if not skip_3d:
            for cls in priority:
                mask = data == cls
                if not mask.any():
                    continue
                drop = mask & ~keep_largest(mask, 26)
                if drop.any():
                    data[drop] = 0
                    changed = True
        if not skip_2d:
            for z in range(data.shape[2]):
                for cls in priority:
                    mask = data[:, :, z] == cls
                    if not mask.any():
                        continue
                    drop = mask & ~keep_largest(mask, 8)
                    if drop.any():
                        data[:, :, z][drop] = 0
                        changed = True
    if not skip_fill:
        for z in range(data.shape[2]):
            data[:, :, z] = _fill_holes_class_aware(data[:, :, z], priority)
    return data


@st.composite
def sparse_labels(draw):
    """Label volumes from a few random boxes, so that some classes split in
    3D only, some in 2D only and some not at all."""
    shape = draw(st.tuples(st.integers(3, 12), st.integers(3, 12), st.integers(1, 5)))
    data = np.zeros(shape, dtype=np.uint8)
    for _ in range(draw(st.integers(0, 6))):
        lo = [draw(st.integers(0, n - 1)) for n in shape]
        hi = [draw(st.integers(a + 1, n)) for a, n in zip(lo, shape)]
        data[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = draw(st.integers(0, 3))
    return data


class TestPostprocessRounds:
    @settings(max_examples=200, deadline=None)
    @given(lbl=st.one_of(
               arrays(np.uint8, st.tuples(st.integers(1, 10), st.integers(1, 10),
                                          st.integers(1, 4)), elements=st.integers(0, 3)),
               sparse_labels()),
           skips=st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_matches_repeating_after_any_drop(self, lbl, skips):
        skip_3d, skip_2d, skip_fill = skips
        got = postprocess_labels(lbl, skip_3d=skip_3d, skip_2d=skip_2d, skip_fill=skip_fill)
        assert np.array_equal(got, reference_postprocess(lbl, skip_3d, skip_2d, skip_fill))

    @settings(max_examples=100, deadline=None)
    @given(lbl=sparse_labels(), skips=st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_label_volume_follows_the_array_rule(self, lbl, skips):
        skip_3d, skip_2d, skip_fill = skips
        kw = dict(skip_3d=skip_3d, skip_2d=skip_2d, skip_fill=skip_fill)
        got = postprocess_labels(LabelVolume(data=lbl), **kw)
        assert np.array_equal(got.data, postprocess_labels(lbl, **kw))

    @pytest.fixture
    def keep_largest_calls(self, monkeypatch):
        """The connectivity of every keep_largest call postprocess_labels makes."""
        calls = []

        def counted(mask, connectivity):
            calls.append(connectivity)
            return keep_largest(mask, connectivity)

        monkeypatch.setattr(postprocess_mod, "keep_largest", counted)
        return calls

    def test_3d_island_without_2d_fragments_takes_one_round(self, keep_largest_calls):
        lbl = np.zeros((12, 12, 4), dtype=np.uint8)
        lbl[2:6, 2:6, :] = 3
        lbl[9:11, 9:11, 2] = 3  # apart in 3D: the 3D pass drops it, the 2D pass drops nothing
        out = postprocess_labels(lbl)
        assert not out[9:11, 9:11, 2].any()
        assert keep_largest_calls.count(26) == 1
        assert keep_largest_calls.count(8) == 4

    def test_2d_drop_repeats_the_3d_pass(self, keep_largest_calls):
        lbl = np.zeros((12, 12, 2), dtype=np.uint8)
        lbl[2:6, 2:6, 0] = 3
        lbl[8:10, 8:10, 0] = 3  # a 2D fragment of slice 0 ...
        lbl[2:10, 2:10, 1] = 3  # ... joined to the rest in 3D through slice 1
        got = postprocess_labels(lbl, skip_fill=True)
        assert np.array_equal(got, reference_postprocess(lbl, False, False, True))
        assert keep_largest_calls.count(26) == 2


class TestPostprocessLabels:
    def _heart_slice(self):
        lbl = np.zeros((48, 48), dtype=np.uint8)
        lbl[annulus_mask((48, 48), (24, 24), 8, 12)] = 2
        lbl[disk_mask((48, 48), (24, 24), 8)] = 3
        lbl[disk_mask((48, 48), (8, 24), 5)] = 1
        return lbl

    def test_satellite_removed(self):
        lbl = np.repeat(self._heart_slice()[:, :, None], 4, axis=2)
        lbl[45, 45, 0] = 3
        lbl[45, 46, 0] = 3
        out = postprocess_labels(lbl)
        assert out[45, 45, 0] == 0 and out[45, 46, 0] == 0

    def test_clean_input_is_fixed_point(self):
        lbl = np.repeat(self._heart_slice()[:, :, None], 4, axis=2)
        once = postprocess_labels(lbl)
        assert np.array_equal(postprocess_labels(once), once)

    def test_lv_hole_filled_with_lv(self):
        lbl = self._heart_slice()
        lbl[24, 24] = 0
        out = postprocess_labels(lbl)
        assert out[24, 24] == 3

    def test_myo_enclosed_hole_touching_lv_becomes_lv(self):
        lbl = self._heart_slice()
        # carve a notch of background at the LV/MYO interface
        lbl[24, 32] = 0
        assert lbl[24, 33] == 2 and lbl[24, 31] == 3
        out = postprocess_labels(lbl)
        assert out[24, 32] == 3

    def test_idempotent_on_random_volumes(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            shape = (rng.integers(8, 20), rng.integers(8, 20), rng.integers(2, 5))
            lbl = rng.integers(0, 4, shape).astype(np.uint8)
            once = postprocess_labels(lbl)
            assert np.array_equal(postprocess_labels(once), once)

    def test_label_volume_in_label_volume_out(self):
        lbl = LabelVolume(
            data=np.repeat(self._heart_slice()[:, :, None], 3, axis=2),
            spacing=(1.5, 1.5, 8.0),
        )
        out = postprocess_labels(lbl)
        assert isinstance(out, LabelVolume)
        assert out.spacing == lbl.spacing

    def test_stage_toggles(self):
        lbl = self._heart_slice()
        lbl[24, 24] = 0
        out = postprocess_labels(lbl, skip_fill=True)
        assert out[24, 24] == 0
