"""The numpy kernels against the scipy calls they replace.

scipy stays a test dependency for these oracles. Every comparison is exact:
the same labels, the same booleans and the same floats (``array_equal``,
so a zero of either sign compares equal).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import fft, ndimage

from cardiomr import kernels
from cardiomr.kernels import _NMS_OFFSETS, canny_edges

PROPERTY = settings(max_examples=150, deadline=None)
STRUCTURES = {
    4: ndimage.generate_binary_structure(2, 1),
    8: ndimage.generate_binary_structure(2, 2),
    6: ndimage.generate_binary_structure(3, 1),
    26: ndimage.generate_binary_structure(3, 3),
}


def masks(ndim, max_side=12):
    """Random boolean masks of random density, often empty or full."""
    shapes = st.tuples(*[st.integers(1, max_side)] * ndim)
    density = st.sampled_from([0.0, 0.1, 0.4, 0.7, 1.0])

    @st.composite
    def build(draw):
        shape, p = draw(shapes), draw(density)
        if p in (0.0, 1.0):
            return np.full(shape, bool(p))
        return draw(arrays(np.float64, shape, elements=st.floats(0, 1))) < p
    return build()


def line_masks():
    """One-pixel-wide lines: rows, columns and diagonals, 2D and 3D."""
    out = [np.ones((1, 17), bool), np.ones((13, 1), bool), np.eye(9, dtype=bool),
           np.eye(9, dtype=bool)[::-1], np.ones((1, 1), bool), np.ones((1, 1, 1), bool),
           np.ones((1, 1, 7), bool), np.ones((6, 1, 1), bool)]
    diagonal = np.zeros((5, 5, 5), bool)
    diagonal[np.arange(5), np.arange(5), np.arange(5)] = True
    out.append(diagonal)
    return out


def images(max_side=24):
    """Random images of mixed scale, sign and repeated values, 2D or stacks."""
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side),
                       st.integers(0, 3))
    values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 1.0, 2.5]))

    @st.composite
    def build(draw):
        nx, ny, nz = draw(shapes)
        shape = (nx, ny) if nz == 0 else (nx, ny, nz)
        return draw(arrays(np.float64, shape, elements=values))
    return build()


def slices_of(a):
    return [a] if a.ndim == 2 else [a[:, :, z] for z in range(a.shape[2])]


# -- labelling ---------------------------------------------------------------

def assert_label_matches(mask, connectivity):
    got, n = kernels.label(mask, connectivity)
    if connectivity in (6, 26) or mask.ndim == 2:
        want, want_n = ndimage.label(mask, STRUCTURES[connectivity])
        assert n == want_n and np.array_equal(got, want)
        return
    # a stack: each slice alone, ids continuing from the slice before
    first = 0
    for z, plane in enumerate(slices_of(mask)):
        want, want_n = ndimage.label(plane, STRUCTURES[connectivity])
        assert np.array_equal(got[:, :, z], np.where(want > 0, want + first, 0))
        first += want_n
    assert n == first


class TestLabel:
    @PROPERTY
    @given(mask=masks(2, 20), connectivity=st.sampled_from([4, 8]))
    def test_2d(self, mask, connectivity):
        assert_label_matches(mask, connectivity)

    @PROPERTY
    @given(mask=masks(3, 9), connectivity=st.sampled_from([6, 26]))
    def test_3d(self, mask, connectivity):
        assert_label_matches(mask, connectivity)

    @PROPERTY
    @given(mask=masks(3, 9), connectivity=st.sampled_from([4, 8]))
    def test_stack_labels_each_slice(self, mask, connectivity):
        assert_label_matches(mask, connectivity)

    @pytest.mark.parametrize("connectivity", [4, 8, 6, 26])
    def test_lines_empty_and_full(self, connectivity):
        ndim = 3 if connectivity in (6, 26) else 2
        cases = [m for m in line_masks() if m.ndim == ndim or connectivity in (4, 8)]
        cases += [np.zeros((4,) * ndim, bool), np.ones((5,) * ndim, bool),
                  np.zeros((0,) * ndim, bool)]
        for mask in cases:
            assert_label_matches(mask, connectivity)

    def test_nested_open_rings(self):
        # nested one-pixel rings, each open by one pixel at its top-left
        # corner: the runs of a ring join only the long way round
        mask = np.zeros((21, 21), bool)
        lo, hi = 0, 20
        while lo <= hi:
            mask[lo, lo:hi + 1] = mask[lo:hi + 1, hi] = True
            mask[hi, lo:hi + 1] = True
            mask[lo + 2:hi + 1, lo] = True
            lo, hi = lo + 2, hi - 2
        for connectivity in (4, 8):
            assert_label_matches(mask, connectivity)

    @pytest.mark.parametrize("connectivity", [4, 8, 6, 26])
    def test_large_masks_near_percolation(self, connectivity):
        # big branching components take several rounds of root hooking
        shape = (24, 24, 24) if connectivity in (6, 26) else (96, 96)
        rng = np.random.default_rng(connectivity)
        for density in (0.3, 0.45, 0.6):
            assert_label_matches(rng.random(shape) < density, connectivity)

    @pytest.mark.parametrize("ndim, connectivity", [(2, 6), (2, 26), (3, 5), (1, 4)])
    def test_invalid_connectivity(self, ndim, connectivity):
        with pytest.raises(ValueError):
            kernels.label(np.zeros((3,) * ndim, bool), connectivity)


# -- morphology ----------------------------------------------------------------

class TestMorphology:
    @PROPERTY
    @given(mask=masks(2, 14), square=st.booleans())
    def test_erosion_2d(self, mask, square):
        want = ndimage.binary_erosion(mask, STRUCTURES[8 if square else 4])
        assert np.array_equal(kernels.erode(mask, square), want)

    @PROPERTY
    @given(mask=masks(3, 8), square=st.booleans())
    def test_erosion_3d(self, mask, square):
        want = ndimage.binary_erosion(mask, STRUCTURES[26 if square else 6])
        assert np.array_equal(kernels.erode(mask, square, axes=(0, 1, 2)), want)

    @PROPERTY
    @given(mask=masks(3, 8), square=st.booleans())
    def test_erosion_of_each_slice(self, mask, square):
        got = kernels.erode(mask, square)
        # any memory layout, as a labelled stack's transposed view has
        assert np.array_equal(kernels.erode(np.asfortranarray(mask), square), got)
        for z, plane in enumerate(slices_of(mask)):
            want = ndimage.binary_erosion(plane, STRUCTURES[8 if square else 4])
            assert np.array_equal(got[:, :, z], want)

    @PROPERTY
    @given(mask=st.one_of(masks(2, 14), masks(3, 8)), iterations=st.integers(1, 4))
    def test_cross_dilation_of_each_slice(self, mask, iterations):
        got = kernels.dilate_cross(mask, iterations)
        for z, plane in enumerate(slices_of(mask)):
            want = ndimage.binary_dilation(plane, STRUCTURES[4], iterations=iterations)
            assert np.array_equal(slices_of(got)[z], want)

    def test_border_voxels_erode(self):
        full = np.ones((4, 5, 3), bool)
        inner = np.zeros_like(full)
        inner[1:-1, 1:-1, 1:-1] = True
        assert np.array_equal(kernels.erode(full, False, axes=(0, 1, 2)), inner)
        assert not kernels.erode(np.ones((1, 6), bool), True).any()
        assert np.array_equal(kernels.dilate_cross(np.ones((1, 1), bool), 3), [[True]])


# -- Canny's filters and the FFT length --------------------------------------------

class TestFilters:
    @PROPERTY
    @given(image=images(), sigma=st.sampled_from([0.05, 0.5, 1.0, 1.7, 2.5]))
    def test_gaussian(self, image, sigma):
        got = kernels.gaussian(image, sigma)
        for z, plane in enumerate(slices_of(image)):
            want = ndimage.gaussian_filter(plane, sigma, mode="nearest")
            assert np.array_equal(slices_of(got)[z], want)

    @PROPERTY
    @given(image=images(), axis=st.sampled_from([0, 1]))
    def test_sobel(self, image, axis):
        got = kernels.sobel(image, axis)
        for z, plane in enumerate(slices_of(image)):
            want = ndimage.sobel(plane, axis=axis, mode="nearest")
            assert np.array_equal(slices_of(got)[z], want)

    def test_next_fast_len_up_to_4096(self):
        got = [kernels.next_fast_len(n) for n in range(1, 4097)]
        assert got == [fft.next_fast_len(n, real=True) for n in range(1, 4097)]


def reference_canny(image, sigma, low, high):
    """Canny of one slice on scipy's filters, with dense non-maximum
    suppression and hysteresis by ``binary_dilation`` inside the weak set."""
    img = np.asarray(image, dtype=np.float64)
    smooth = ndimage.gaussian_filter(img, sigma, mode="nearest")
    gx = ndimage.sobel(smooth, axis=0, mode="nearest")
    gy = ndimage.sobel(smooth, axis=1, mode="nearest")
    gmag = np.hypot(gx, gy)
    gmax = gmag.max(initial=0.0)
    if gmax <= 0:
        return np.zeros(img.shape, dtype=bool)
    octant = np.round(np.arctan2(gy, gx) / (np.pi / 4)).astype(int) % 8
    off = _NMS_OFFSETS[octant]
    padded = np.pad(gmag, 1, mode="constant")
    xs, ys = np.meshgrid(np.arange(img.shape[0]), np.arange(img.shape[1]), indexing="ij")
    fwd = padded[xs + 1 + off[..., 0], ys + 1 + off[..., 1]]
    bwd = padded[xs + 1 - off[..., 0], ys + 1 - off[..., 1]]
    tol = 1e-9 * gmax
    ridge = (gmag >= fwd - tol) & (gmag > bwd + tol)
    thinned = np.where(ridge, gmag, 0.0)
    strong, weak = thinned > high * gmax, thinned > low * gmax
    return ndimage.binary_dilation(strong, structure=np.ones((3, 3), bool), iterations=0,
                                   mask=weak)


class TestCanny:
    @PROPERTY
    @given(image=images(32), sigma=st.sampled_from([0.5, 1.0, 2.5]),
           thresholds=st.sampled_from([(0.1, 0.2), (0.0, 0.05), (0.05, 0.6), (0.3, 0.9)]))
    def test_random_images_and_stacks(self, image, sigma, thresholds):
        got = canny_edges(image, sigma, *thresholds)
        for z, plane in enumerate(slices_of(image)):
            assert np.array_equal(slices_of(got)[z], reference_canny(plane, sigma, *thresholds))

    @pytest.mark.parametrize("noise", [0.02, 0.1, 0.5])
    def test_hysteresis_on_noisy_disks(self, noise):
        # noise breaks the edges into weak runs that only hysteresis joins
        rng = np.random.default_rng(int(100 * noise))
        xs, ys = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
        stack = np.stack([(np.hypot(xs - 30 - z, ys - 33) < 12 + 3 * z).astype(float)
                          + rng.normal(0.0, noise, xs.shape) for z in range(4)], axis=2)
        for low, high in [(0.1, 0.2), (0.05, 0.5), (0.2, 0.25)]:
            got = canny_edges(stack, 1.0, low, high)
            for z in range(stack.shape[2]):
                want = reference_canny(stack[:, :, z], 1.0, low, high)
                assert want.any() and np.array_equal(got[:, :, z], want)
