"""Bounding-box windows against the whole-slice kernels they replaced.

Each reference below is the whole-slice implementation as it stood before
the kernels ran on the non-zero bounding box of their input; the windowed
kernels must return exactly the same bits. Canny crops its own input, so it
and the contours built on it are also checked against scipy alone
(``reference_canny``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import cardiomr.roi as roi_mod
from cardiomr.features import mwt_per_slice
from cardiomr.loss import class_contour
from cardiomr.phantoms import annulus_mask, disease_cohort, pulsating_disk_cine
from cardiomr.postprocess import (
    _fill_holes_class_aware,
    connected_components,
    fill_holes,
    keep_largest,
    postprocess_labels,
)
from cardiomr.roi import (
    H1Volume,
    RoiConfig,
    RoiLocateError,
    canny_edges,
    canny_reach,
    hough_circles,
    locate_roi,
    nonzero_window,
)
from cardiomr.volume import ScalarVolume
from test_kernels import reference_canny, slices_of

SIGMAS = (0.5, 1.0, 2.5)
PROPERTY = settings(max_examples=150, deadline=None)


# -- references: the whole-slice kernels -----------------------------------

def reference_class_contour(mask, dilate_iters=1):
    mask = np.asarray(mask).astype(bool)
    edges = canny_edges(mask.astype(np.float64), 1.0, 0.1, 0.2)
    if dilate_iters > 0:
        cross = ndimage.generate_binary_structure(2, 1)
        edges = ndimage.binary_dilation(edges, structure=cross, iterations=dilate_iters)
    return edges & mask


def scipy_class_contour(mask, dilate_iters=1):
    """``class_contour`` on scipy's filters, over the whole slice."""
    mask = np.asarray(mask).astype(bool)
    edges = reference_canny(mask.astype(np.float64), 1.0, 0.1, 0.2)
    if dilate_iters > 0:
        cross = ndimage.generate_binary_structure(2, 1)
        edges = ndimage.binary_dilation(edges, structure=cross, iterations=dilate_iters)
    return edges & mask


def reference_region_contour(mask):
    return mask & ~ndimage.binary_erosion(mask, structure=np.ones((3, 3), bool))


def reference_mwt_thickness(lbl_slice, spacing, myo_id=2):
    myo = np.asarray(lbl_slice) == myo_id
    if not myo.any():
        return None
    epi_region = fill_holes(myo)
    cavity = epi_region & ~myo
    if not cavity.any():
        return None
    exterior = reference_region_contour(epi_region)
    interior = reference_region_contour(cavity)
    if not exterior.any() or not interior.any():
        return None
    scale = np.asarray(spacing[:2], dtype=np.float64)
    e_pts = np.argwhere(exterior) * scale
    i_pts = np.argwhere(interior) * scale
    d2 = ((i_pts[:, None, :] - e_pts[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1))


def reference_keep_largest(mask, connectivity):
    comp = connected_components(mask, connectivity)
    if not comp.sizes:
        return np.zeros_like(np.asarray(mask), dtype=bool)
    best_id = max(comp.sizes, key=lambda s: (s[1], -s[0]))[0]
    return comp.labels == best_id


def reference_fill_holes_class_aware(lbl, priority):
    """The class-aware hole fill over the whole slice."""
    out = lbl.copy()
    cross = ndimage.generate_binary_structure(2, 1)
    labels, n = ndimage.label(out == 0, structure=cross)
    enclosed = np.arange(n + 1) > 0
    if n:
        for edge in (labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]):
            enclosed[edge] = False
    for hole_id in np.flatnonzero(enclosed):
        hole = labels == hole_id
        ring = ndimage.binary_dilation(hole, structure=cross) & ~hole
        adjacent = set(int(v) for v in np.unique(out[ring]) if v > 0)
        for cls in priority:
            if cls in adjacent:
                out[hole] = cls
                break
    return out


def reference_locate_roi(v, cfg):
    """locate_roi with Canny and Hough on every whole slice."""
    h1 = roi_mod.temporal_h1(v)
    floor = 1e-12 * v.dims[3] * float(max(v.data.max(), -v.data.min()))
    h1 = H1Volume(magnitudes=np.where(h1.magnitudes <= floor, 0.0, h1.magnitudes),
                  spacing=h1.spacing)
    h1 = roi_mod.denoise_h1(h1, cfg.h1_noise_frac)
    nx, ny, nz = h1.magnitudes.shape
    surface = np.zeros((nx, ny), dtype=np.float64)
    per_slice = []
    for z in range(nz):
        edges = canny_edges(h1.magnitudes[:, :, z], cfg.canny_sigma, cfg.canny_low,
                            cfg.canny_high)
        circles = hough_circles(edges, cfg)
        per_slice.append(circles)
        for c in circles:
            roi_mod._cast_vote(surface, c.center, cfg.vote_sigma, c.score)
    if not any(per_slice):
        raise RoiLocateError("no circles")
    flat = int(np.argmax(surface.T))
    cy, cx = np.unravel_index(flat, (ny, nx))
    return per_slice, surface, (int(cx), int(cy))


# -- inputs ----------------------------------------------------------------

def _masks(max_side=24):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return shapes.flatmap(lambda s: arrays(np.bool_, s))


def _images(max_side=40):
    """Non-negative images that are zero outside a random box, as H1 slices are."""
    @st.composite
    def build(draw):
        nx, ny = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
        x0, y0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        x1, y1 = draw(st.integers(x0, nx - 1)), draw(st.integers(y0, ny - 1))
        values = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.7])
        image = np.zeros((nx, ny))
        image[x0:x1 + 1, y0:y1 + 1] = draw(arrays(np.float64, (x1 + 1 - x0, y1 + 1 - y0),
                                                  elements=values))
        return image
    return build()


def boxed_images(max_side=44):
    """2D images and stacks that are zero outside one small box per slice (or
    empty slices). A box lies on one border or corner of the slice, or at
    least 13 pixels, more than Canny's reach at sigma 2.5, from every border."""
    @st.composite
    def build(draw):
        nx, ny = draw(st.integers(32, max_side)), draw(st.integers(32, max_side))
        nz = draw(st.integers(0, 3))
        image = np.zeros((nx, ny, max(nz, 1)))
        for z in range(image.shape[2]):
            if draw(st.integers(0, 4)) == 0:
                continue
            w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
            x0 = draw(st.sampled_from([0, nx - w, draw(st.integers(13, nx - 13 - w))]))
            y0 = draw(st.sampled_from([0, ny - h, draw(st.integers(13, ny - 13 - h))]))
            image[x0:x0 + w, y0:y0 + h, z] = draw(arrays(
                np.float64, (w, h), elements=st.sampled_from([0.0, 0.25, 1.0, 3.7])))
        return image if nz else image[:, :, 0]
    return build()


def blob_masks(max_side=40):
    """Masks of a few random boxes, often touching the borders (or empty)."""
    @st.composite
    def build(draw):
        nx, ny = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
        mask = np.zeros((nx, ny), dtype=bool)
        for _ in range(draw(st.integers(0, 3))):
            x0, y0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
            x1, y1 = draw(st.integers(x0, nx - 1)), draw(st.integers(y0, ny - 1))
            mask[x0:x1 + 1, y0:y1 + 1] = True
        return mask
    return build()


def ring_slices(max_side=24):
    """Label slices of box outlines of random classes over sparse random
    pixels (or none). Outlines lie on the slice border as often as not, and
    always on the window's edge; some have a gap that opens the box."""
    @st.composite
    def build(draw):
        nx, ny = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
        lbl = np.zeros((nx, ny), dtype=np.uint8)
        if draw(st.booleans()):
            lbl = draw(arrays(np.uint8, (nx, ny), elements=st.sampled_from([0] * 5 + [1, 2, 3])))
        for _ in range(draw(st.integers(0, 3))):
            x0 = draw(st.sampled_from([0, draw(st.integers(0, nx - 1))]))
            y0 = draw(st.sampled_from([0, draw(st.integers(0, ny - 1))]))
            x1 = draw(st.sampled_from([nx - 1, draw(st.integers(x0, nx - 1))]))
            y1 = draw(st.sampled_from([ny - 1, draw(st.integers(y0, ny - 1))]))
            cls = draw(st.integers(1, 3))
            lbl[x0:x1 + 1, [y0, y1]] = cls
            lbl[[x0, x1], y0:y1 + 1] = cls
            if draw(st.booleans()):
                lbl[draw(st.integers(x0, x1)), y0] = 0
        return lbl
    return build()


def edge_touching_masks():
    """Empty, full, 1xN and Nx1 masks, and a blob touching each border."""
    out = [np.zeros((20, 30), bool), np.ones((9, 9), bool), np.ones((1, 17), bool),
           np.ones((13, 1), bool)]
    row = np.zeros((1, 40), bool)
    row[0, 5:9] = True
    out.append(row)
    for box in ((slice(0, 5), slice(10, 20)), (slice(20, 25), slice(10, 20)),
                (slice(8, 15), slice(0, 6)), (slice(8, 15), slice(25, 31))):
        m = np.zeros((25, 31), dtype=bool)
        m[box] = True
        m[10:13, 12:15] = True
        out.append(m)
    return out


def _gradient(image, sigma):
    """canny_edges' gradient magnitude of a whole image."""
    smooth = ndimage.gaussian_filter(image, sigma, mode="nearest")
    return np.hypot(ndimage.sobel(smooth, axis=0, mode="nearest"),
                    ndimage.sobel(smooth, axis=1, mode="nearest"))


# -- the window helper and Canny -------------------------------------------

class TestNonzeroWindow:
    def test_box_grown_and_clipped(self):
        m = np.zeros((30, 40), dtype=bool)
        m[10, 12] = m[14, 35] = True
        assert nonzero_window(m, 3) == (slice(7, 18), slice(9, 39))
        assert nonzero_window(m, 8) == (slice(2, 23), slice(4, 40))

    def test_empty_and_3d(self):
        assert nonzero_window(np.zeros((4, 5)), 2) == (slice(0, 0), slice(0, 0))
        v = np.zeros((10, 12, 3))
        v[2, 3, 0] = v[6, 9, 2] = 1.5
        assert nonzero_window(v, 1) == (slice(1, 8), slice(2, 11))

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_reach_covers_gradient_and_the_ring_nms_reads(self, sigma):
        # the gradient of a zero background is zero beyond reach - 1, so the
        # window also holds the ring of zeros non-maximum suppression reads
        rng = np.random.default_rng(int(10 * sigma))
        for _ in range(20):
            mask = np.zeros((60, 60))
            x, y = rng.integers(18, 42, 2)
            mask[x:x + rng.integers(1, 5), y:y + rng.integers(1, 5)] = rng.random() + 0.1
            outside = np.ones(mask.shape, dtype=bool)
            outside[nonzero_window(mask, canny_reach(sigma) - 1)] = False
            grad = _gradient(mask, sigma)
            assert grad.any() and not grad[outside].any()

    def test_zero_size_image_has_no_edges(self):
        assert canny_edges(np.zeros((0, 0)), 1.0, 0.1, 0.2).shape == (0, 0)

    @PROPERTY
    @given(image=st.one_of(_images(), boxed_images()), sigma=st.sampled_from(SIGMAS),
           thresholds=st.sampled_from([(0.1, 0.2), (0.0, 0.05), (0.3, 0.9)]))
    def test_cropping_canny_equals_scipy_on_the_whole_image(self, image, sigma, thresholds):
        got = canny_edges(image, sigma, *thresholds)
        assert got.shape == image.shape
        for plane, edges in zip(slices_of(image), slices_of(got)):
            assert np.array_equal(edges, reference_canny(plane, sigma, *thresholds))


# -- class-aware hole fill --------------------------------------------------

class TestClassAwareHoleFill:
    def test_holes_on_the_slice_border_and_the_window_edge(self):
        lbl = np.zeros((16, 18), dtype=np.uint8)
        lbl[0:4, 0:5] = 2              # a ring in the slice corner, touching LV
        lbl[1:3, 1:4] = 0
        lbl[2, 2] = 1
        lbl[6:11, 8:13] = 3            # a ring on the window's bottom and right edges
        lbl[7:10, 9:12] = 0
        lbl[8:11, 2:6] = 1             # a box open towards the window's bottom edge
        lbl[9, 3:5] = 0
        lbl[10, 4] = 0
        assert nonzero_window(lbl, 1) == (slice(0, 12), slice(0, 14))
        for priority in ([3, 2, 1], [1, 2, 3]):
            got = _fill_holes_class_aware(lbl, priority)
            assert np.array_equal(got, reference_fill_holes_class_aware(lbl, priority))
            assert got[1, 1] == (1 if priority[0] == 1 else 2)
            assert got[8, 10] == 3 and got[9, 3] == 0

    @PROPERTY
    @given(lbl=ring_slices(), priority=st.permutations([1, 2, 3]))
    def test_windowed_equals_whole_slice(self, lbl, priority):
        assert np.array_equal(_fill_holes_class_aware(lbl, priority),
                              reference_fill_holes_class_aware(lbl, priority))


# -- class_contour ----------------------------------------------------------

class TestClassContourOracle:
    @pytest.mark.parametrize("dilate_iters", [0, 1, 3])
    def test_edge_cases(self, dilate_iters):
        for mask in edge_touching_masks():
            assert np.array_equal(class_contour(mask, dilate_iters),
                                  reference_class_contour(mask, dilate_iters))

    @PROPERTY
    @given(mask=blob_masks(), dilate_iters=st.integers(0, 3))
    def test_random_boxes(self, mask, dilate_iters):
        assert np.array_equal(class_contour(mask, dilate_iters),
                              reference_class_contour(mask, dilate_iters))

    @PROPERTY
    @given(mask=_masks(), dilate_iters=st.integers(0, 2))
    def test_random_masks(self, mask, dilate_iters):
        assert np.array_equal(class_contour(mask, dilate_iters),
                              reference_class_contour(mask, dilate_iters))

    @pytest.mark.parametrize("dilate_iters", [0, 1, 3])
    def test_edge_cases_against_scipy(self, dilate_iters):
        for mask in edge_touching_masks():
            assert np.array_equal(class_contour(mask, dilate_iters),
                                  scipy_class_contour(mask, dilate_iters))

    @PROPERTY
    @given(mask=blob_masks(), dilate_iters=st.integers(0, 3))
    def test_random_boxes_against_scipy(self, mask, dilate_iters):
        assert np.array_equal(class_contour(mask, dilate_iters),
                              scipy_class_contour(mask, dilate_iters))


# -- mwt_per_slice -----------------------------------------------------------

def assert_same_thickness(lbl_slice, spacing):
    got = mwt_per_slice(lbl_slice, spacing)
    want = reference_mwt_thickness(lbl_slice, spacing)
    if want is None:
        assert got is None
    else:
        assert np.array_equal(got.thickness_mm, want)


class TestMwtOracle:
    def test_cohort_slices(self):
        for ed, es, _ in disease_cohort(6, seed=11):
            for phase in (ed, es):
                for z in range(phase.dims[2]):
                    assert_same_thickness(phase.data[:, :, z], (1.37, 1.61))

    @pytest.mark.parametrize("center", [(3.2, 30.5), (60.6, 29.1), (31.4, 2.7),
                                        (30.2, 61.8), (1.5, 1.5)])
    def test_annulus_touching_the_border(self, center):
        sl = np.zeros((64, 64), dtype=np.uint8)
        sl[annulus_mask((64, 64), center, 7, 12)] = 2
        assert_same_thickness(sl, (1.3, 0.7))

    @PROPERTY
    @given(shape=st.tuples(st.integers(12, 48), st.integers(12, 48)),
           cx=st.floats(0, 1), cy=st.floats(0, 1),
           r_in=st.floats(1.0, 8.0), wall=st.floats(0.8, 5.0),
           spacing=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)))
    def test_random_annuli(self, shape, cx, cy, r_in, wall, spacing):
        center = (cx * (shape[0] - 1), cy * (shape[1] - 1))
        sl = np.zeros(shape, dtype=np.uint8)
        sl[annulus_mask(shape, center, r_in, r_in + wall)] = 2
        assert_same_thickness(sl, spacing)


# -- keep_largest and postprocess_labels --------------------------------------

# corners of far-apart boxes (at most 2 voxels a side) in a 12x14x5 volume
ANCHORS = [(0, 0, 0), (0, 10, 3), (8, 0, 3), (8, 10, 0), (4, 5, 2), (0, 5, 0)]


class TestKeepLargestOracle:
    @PROPERTY
    @given(mask=arrays(np.bool_, st.tuples(st.integers(1, 9), st.integers(1, 9),
                                           st.integers(1, 5))),
           connectivity=st.sampled_from([6, 26]))
    def test_random_3d(self, mask, connectivity):
        assert np.array_equal(keep_largest(mask, connectivity),
                              reference_keep_largest(mask, connectivity))

    @PROPERTY
    @given(mask=_masks(max_side=16), connectivity=st.sampled_from([4, 8]))
    def test_random_2d(self, mask, connectivity):
        assert np.array_equal(keep_largest(mask, connectivity),
                              reference_keep_largest(mask, connectivity))

    def test_tied_largest_3d_components(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            vol = np.zeros((12, 14, 5), dtype=bool)
            size = tuple(int(v) for v in rng.integers(1, 3, 3))
            picks = rng.choice(len(ANCHORS), size=3, replace=False)
            for x, y, z in (ANCHORS[i] for i in picks):
                vol[x:x + size[0], y:y + size[1], z:z + size[2]] = True
            got = keep_largest(vol, 26)
            assert np.array_equal(got, reference_keep_largest(vol, 26))
            first = np.argwhere(vol)[0]
            assert got[tuple(first)]  # the tie went to the first in C order
            assert got.sum() == np.prod(size)


class TestPostprocessIdempotent:
    @PROPERTY
    @given(lbl=arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12),
                                          st.integers(1, 4)),
                      elements=st.integers(0, 3)))
    def test_cleanup_is_a_fixed_point(self, lbl):
        once = postprocess_labels(lbl)
        assert np.array_equal(postprocess_labels(once), once)


# -- locate_roi -------------------------------------------------------------

def assert_same_roi(cine, cfg):
    try:
        want = reference_locate_roi(cine, cfg)
    except RoiLocateError:
        with pytest.raises(RoiLocateError):
            locate_roi(cine, cfg)
        return
    got = locate_roi(cine, cfg)
    assert got.circles_per_slice == want[0]
    assert np.array_equal(got.surface, want[1])
    assert got.roi_center == want[2]


def criterion1_cines(count):
    rng = np.random.default_rng(20240801)
    for _ in range(count):
        cx, cy = int(rng.integers(44, 148)), int(rng.integers(44, 148))
        yield pulsating_disk_cine(shape=(192, 192), center=(cx, cy), radius_range=(10, 14),
                                  n_frames=30, seed=int(rng.integers(0, 2**31)))


def stacked_cine(shape, centers, radius_range=(9.0, 13.0), seed=0):
    """One pulsating-disk slice per centre, stacked along z."""
    slices = [
        pulsating_disk_cine(shape=shape, center=c, radius_range=radius_range,
                            n_frames=20, seed=seed + i).data
        for i, c in enumerate(centers)
    ]
    return ScalarVolume(data=np.concatenate(slices, axis=2))


class TestLocateRoiOracle:
    def test_criterion1_phantoms(self):
        for cine in criterion1_cines(12):
            assert_same_roi(cine, RoiConfig())

    def test_heart_touching_the_image_edge(self):
        cine = stacked_cine((72, 90), [(4, 40), (6, 44), (66, 88)])
        result = locate_roi(cine, RoiConfig())
        assert any(result.circles_per_slice)
        assert_same_roi(cine, RoiConfig())

    @pytest.mark.parametrize("noise", [0.005, 0.02, 0.05])
    def test_noisy_cine(self, noise):
        # frame noise spreads the H1 support over the whole slice, while
        # the edges, and so the Hough window, stay near the heart
        cine = stacked_cine((96, 104), [(44, 50), (48, 52), (46, 47)], seed=int(1000 * noise))
        rng = np.random.default_rng(int(1000 * noise))
        peak = float(np.abs(cine.data).max())
        noisy = ScalarVolume(data=cine.data + rng.normal(0.0, noise * peak, cine.data.shape))
        assert_same_roi(noisy, RoiConfig())

    def test_heart_on_the_image_corner(self):
        cine = stacked_cine((80, 70), [(2, 3), (1, 1), (3, 2)])
        result = locate_roi(cine, RoiConfig())
        assert any(result.circles_per_slice)
        assert_same_roi(cine, RoiConfig())

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("radius_max", [20, 60])
    def test_canny_sigma_and_radius_range(self, sigma, radius_max):
        # the window stays inside the 192x200 slice, even at radius_max 60
        cine = stacked_cine((192, 200), [(90, 96), (100, 104)], seed=int(radius_max + 10 * sigma))
        assert_same_roi(cine, RoiConfig(canny_sigma=sigma, radius_min=6, radius_max=radius_max))

    def test_arc_far_from_its_centre(self):
        # a short arc's circle centre lies outside the arc's box grown by
        # Canny's reach; its votes are only kept by the radius_max margin
        xs, ys = np.meshgrid(np.arange(80), np.arange(80), indexing="ij")
        r, angle = np.hypot(xs - 20, ys - 20), np.arctan2(ys - 20, xs - 20)
        band = (r >= 28) & (r <= 31) & (angle >= np.radians(20)) & (angle <= np.radians(70))
        wave = np.cos(2 * np.pi * np.arange(16) / 16)
        cine = ScalarVolume(data=band[:, :, None, None] * wave)
        cfg = RoiConfig(radius_min=10, radius_max=40)
        x0 = nonzero_window(band, canny_reach(cfg.canny_sigma))[0].start
        assert any(c.center[0] < x0 for c in locate_roi(cine, cfg).circles_per_slice[0])
        assert_same_roi(cine, cfg)

    def test_static_cine_still_raises(self):
        frame = np.random.default_rng(2).random((40, 30)).astype(np.float32)
        cine = ScalarVolume(data=np.repeat(frame[:, :, None, None], 8, axis=3))
        with pytest.raises(RoiLocateError):
            locate_roi(cine, RoiConfig())
