import numpy as np
import pytest

import cardiomr.roi as roi_mod
from cardiomr.phantoms import disk_mask, pulsating_disk_cine
from cardiomr.roi import (
    Circle,
    RoiConfig,
    RoiLocateError,
    canny_edges,
    denoise_h1,
    hough_circles,
    locate_roi,
    temporal_h1,
)
from cardiomr.volume import ScalarVolume, load_volume, save_volume


def cine_from_series(series, shape=(2, 2, 1)):
    data = np.tile(np.asarray(series, dtype=np.float64), shape + (1,))
    return ScalarVolume(data=data)


def ring_edges(n, center, radius):
    xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.round(np.hypot(xs - center[0], ys - center[1])) == radius


class TestTemporalH1:
    def test_constant_series_has_zero_fundamental(self):
        h = temporal_h1(cine_from_series(np.full(24, 3.7)))
        assert np.allclose(h.magnitudes, 0.0, atol=1e-9)

    def test_pure_fundamental_gives_half_period(self):
        nt = 30
        series = np.cos(2 * np.pi * np.arange(nt) / nt)
        h = temporal_h1(cine_from_series(series))
        assert np.allclose(h.magnitudes, nt / 2, rtol=1e-9)

    def test_second_harmonic_vanishes_in_bin_one(self):
        nt = 30
        series = np.cos(4 * np.pi * np.arange(nt) / nt)
        h = temporal_h1(cine_from_series(series))
        assert np.all(h.magnitudes < 1e-9)

    def test_requires_at_least_two_frames(self):
        with pytest.raises(ValueError, match="2 frames"):
            temporal_h1(ScalarVolume(data=np.zeros((2, 2, 1, 1))))

    def test_invariant_to_dc_shift(self):
        rng = np.random.default_rng(0)
        series = rng.random(20)
        a = temporal_h1(cine_from_series(series)).magnitudes
        b = temporal_h1(cine_from_series(series + 123.4)).magnitudes
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9)

    def test_invariant_to_circular_time_shift(self):
        rng = np.random.default_rng(1)
        series = rng.random(20)
        a = temporal_h1(cine_from_series(series)).magnitudes
        b = temporal_h1(cine_from_series(np.roll(series, 7))).magnitudes
        assert np.allclose(a, b, rtol=1e-9)


class TestDenoiseH1:
    def _h1(self, values):
        from cardiomr.roi import H1Volume
        return H1Volume(magnitudes=np.asarray(values, dtype=float).reshape(-1, 1, 1))

    def test_below_threshold_zeroed(self):
        out = denoise_h1(self._h1([100.0, 0.5, 2.0]), 0.01)
        assert out.magnitudes[1, 0, 0] == 0.0
        assert out.magnitudes[2, 0, 0] == 2.0

    def test_value_exactly_at_threshold_kept(self):
        out = denoise_h1(self._h1([100.0, 1.0]), 0.01)
        assert out.magnitudes[1, 0, 0] == 1.0

    def test_all_zero_stays_zero(self):
        out = denoise_h1(self._h1([0.0, 0.0]), 0.01)
        assert np.all(out.magnitudes == 0.0)

    def test_values_up_to_the_residue_zeroed(self):
        from cardiomr.roi import H1Volume
        h = H1Volume(magnitudes=np.array([3.0, 0.5, 0.25, 0.5000001]).reshape(-1, 1, 1),
                     residue=0.5)
        out = denoise_h1(h, 0.0)
        assert out.magnitudes.ravel().tolist() == [3.0, 0.0, 0.0, 0.5000001]

    def test_static_cine_is_all_zero(self):
        # a constant voxel leaves DFT residue far above 1% of the largest
        # residue; only the residue floor takes it out
        rng = np.random.default_rng(2)
        series = np.tile(100 * rng.random((6, 5, 2, 1)), (1, 1, 1, 30))
        h = temporal_h1(ScalarVolume(data=series))
        assert h.magnitudes.any()
        assert not denoise_h1(h, 0.01).magnitudes.any()

    def test_frac_must_be_below_one(self):
        with pytest.raises(ValueError):
            denoise_h1(self._h1([1.0]), 1.0)


class TestCannyEdges:
    def test_constant_slice_has_no_edges(self):
        assert not canny_edges(np.full((16, 16), 2.5), 1.0, 0.1, 0.2).any()

    def test_vertical_step_gives_single_pixel_line(self):
        img = np.zeros((20, 20))
        img[10:, :] = 1.0
        edges = canny_edges(img, 1.0, 0.1, 0.2)
        widths = edges.sum(axis=0)
        assert np.all(widths == 1)
        rows = sorted(set(np.argwhere(edges)[:, 0]))
        assert len(rows) == 1 and rows[0] in (9, 10)

    def test_filled_disk_gives_closed_ring_near_radius(self):
        n = 64
        img = disk_mask((n, n), (32, 32), 10).astype(float)
        edges = canny_edges(img, 1.0, 0.1, 0.2)
        pts = np.argwhere(edges) - 32
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert len(pts) > 30
        assert np.all(np.abs(radii - 10) <= 1.0)
        # closed: all 32 distinct angular bins hit
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        bins = set(np.round(angles / (np.pi / 16)).astype(int) % 32)
        assert len(bins) == 32


class TestHoughCircles:
    def test_single_ideal_circle(self):
        cfg = RoiConfig(radius_min=8, radius_max=20)
        circles = hough_circles(ring_edges(80, (40, 40), 12), cfg)
        best = circles[0]
        assert np.hypot(best.center[0] - 40, best.center[1] - 40) <= 1.0
        assert abs(best.radius - 12) <= 1

    def test_empty_edge_map_gives_empty_list(self):
        assert hough_circles(np.zeros((32, 32), dtype=bool), RoiConfig()) == []

    def test_concentric_rings_share_center(self):
        cfg = RoiConfig(radius_min=8, radius_max=20)
        edges = ring_edges(80, (40, 40), 10) | ring_edges(80, (40, 40), 14)
        circles = hough_circles(edges, cfg)
        c0, c1 = circles[0], circles[1]
        assert np.hypot(c0.center[0] - c1.center[0], c0.center[1] - c1.center[1]) <= 1.0
        assert {c0.radius, c1.radius} == {10, 14}

    def test_scores_translation_invariant(self):
        cfg = RoiConfig(radius_min=8, radius_max=16, top_p=1)
        a = hough_circles(ring_edges(96, (40, 40), 12), cfg)[0]
        b = hough_circles(ring_edges(96, (52, 47), 12), cfg)[0]
        assert a.score == b.score
        assert b.center == (52, 47)


class TestLocateRoi:
    def test_pulsating_disk_found(self):
        cine = pulsating_disk_cine(shape=(128, 128), center=(64, 64), seed=0)
        result = locate_roi(cine)
        assert np.hypot(result.roi_center[0] - 64, result.roi_center[1] - 64) <= 2.0

    def test_translated_phantom_tracks(self):
        cine = pulsating_disk_cine(shape=(128, 128), center=(30, 90), seed=1)
        result = locate_roi(cine)
        assert np.hypot(result.roi_center[0] - 30, result.roi_center[1] - 90) <= 2.0

    def test_static_video_raises_locate_error(self):
        rng = np.random.default_rng(2)
        frame = rng.random((32, 32)).astype(np.float32)
        data = np.repeat(frame[:, :, None, None], 12, axis=3)
        with pytest.raises(RoiLocateError, match="image center"):
            locate_roi(ScalarVolume(data=data))

    def test_vote_surface_mass_matches_scores(self):
        cine = pulsating_disk_cine(shape=(128, 128), center=(64, 64), seed=3)
        result = locate_roi(cine)
        assert np.all(result.surface >= 0)
        total_score = sum(c.score for sl in result.circles_per_slice for c in sl)
        # interior centers: truncated Gaussian keeps ~98.9% of unit mass
        mass = result.surface.sum()
        assert abs(mass - total_score * (1 - np.exp(-4.5))) / total_score < 0.01


def reference_hough_circles(edges, cfg):
    """The per-radius fftconvolve + full argsort transform the FFT rewrite replaced."""
    from scipy import signal

    if not edges.any():
        return []
    emap = edges.astype(np.float64)
    candidates = []
    for radius in range(cfg.radius_min, cfg.radius_max + 1):
        acc = signal.fftconvolve(emap, roi_mod._ring_kernel(radius), mode="same")
        acc = np.where(acc > 0.5, np.round(acc), 0.0)
        candidates += [Circle(center=(x, y), radius=radius, score=score)
                       for x, y, score in reference_select_peaks(acc, cfg.top_p, cfg.radius_min)]
    candidates.sort(key=lambda c: (-c.score, c.center[1], c.center[0], c.radius))
    return candidates[: cfg.top_p]


def reference_select_peaks(votes, top_p, min_dist):
    """Visit every vote by score descending, ties by flat index descending,
    keeping each positive one at least min_dist from those already kept."""
    kept = []
    for flat in np.argsort(votes, axis=None, kind="stable")[::-1]:
        score = votes.flat[flat]
        if score <= 0 or len(kept) >= top_p:
            break
        x, y = np.unravel_index(flat, votes.shape)
        if any(np.hypot(x - kx, y - ky) < min_dist for kx, ky, _ in kept):
            continue
        kept.append((int(x), int(y), float(score)))
    return kept


def criterion1_edge_maps(count):
    """Edge maps of the first `count` phantom cines of acceptance criterion 1."""
    rng = np.random.default_rng(20240801)
    cfg = RoiConfig()
    maps = []
    for _ in range(count):
        cx = int(rng.integers(44, 148))
        cy = int(rng.integers(44, 148))
        cine = pulsating_disk_cine(
            shape=(192, 192), center=(cx, cy), radius_range=(10, 14),
            n_frames=30, seed=int(rng.integers(0, 2**31)),
        )
        h1 = denoise_h1(temporal_h1(cine), cfg.h1_noise_frac)
        maps.append(canny_edges(
            h1.magnitudes[:, :, 0], cfg.canny_sigma, cfg.canny_low, cfg.canny_high
        ))
    return maps


def random_edge_map(n_pixels, shape=(224, 224), seed=0):
    rng = np.random.default_rng(seed)
    edges = np.zeros(shape, dtype=bool)
    edges.flat[rng.choice(edges.size, n_pixels, replace=False)] = True
    return edges


class TestHoughOracle:
    """The FFT transform returns exactly the reference's circles, in order."""

    def test_criterion1_phantom_edge_maps(self):
        cfg = RoiConfig()
        for edges in criterion1_edge_maps(20):
            assert edges.any()
            assert hough_circles(edges, cfg) == reference_hough_circles(edges, cfg)

    @pytest.mark.parametrize("n_pixels", [200, 1000, 3000])
    def test_random_edge_maps(self, n_pixels):
        cfg = RoiConfig()
        edges = random_edge_map(n_pixels, seed=n_pixels)
        assert hough_circles(edges, cfg) == reference_hough_circles(edges, cfg)

    def test_too_few_survivors_grow_the_prefix(self):
        # the tied 9s lie within radius_min of each other, so the last of them
        # suppresses the rest; the two lower votes survive, and still fewer
        # than top_p peaks are kept
        cfg = RoiConfig(top_p=5)
        votes = np.zeros((14, 14))
        votes[0:2, 0:3] = 9.0
        votes[12, 12] = 2.0
        votes[13, 0] = 1.0
        kept = roi_mod._select_peaks(votes, cfg.top_p, cfg.radius_min)
        assert kept == [(1, 2, 9.0), (12, 12, 2.0), (13, 0, 1.0)]
        edges = random_edge_map(12, shape=(14, 14), seed=4)
        assert hough_circles(edges, cfg) == reference_hough_circles(edges, cfg)

    @pytest.mark.parametrize("seed", range(4))
    def test_select_peaks_on_tie_heavy_planes(self, seed):
        # few distinct votes, so most are tied; zeros and negative votes too
        rng = np.random.default_rng(seed)
        for _ in range(100):
            shape = tuple(int(n) for n in rng.integers(1, 40, 2))
            votes = rng.integers(-2, int(rng.integers(1, 6)), shape).astype(np.int32)
            votes[rng.random(shape) < rng.random()] = 0
            top_p, min_dist = int(rng.integers(1, 9)), int(rng.integers(1, 12))
            assert (roi_mod._select_peaks(votes, top_p, min_dist)
                    == reference_select_peaks(votes, top_p, min_dist))

    def test_tie_heavy_symmetric_ring(self):
        cfg = RoiConfig(radius_min=8, radius_max=20, top_p=7)
        edges = ring_edges(81, (40, 40), 12)
        assert np.array_equal(edges, edges[::-1]) and np.array_equal(edges, edges.T)
        assert hough_circles(edges, cfg) == reference_hough_circles(edges, cfg)


def border_edge_map(shape, borders, n_pixels, seed):
    """Random edges, plus a run of edges along each named border."""
    edges = random_edge_map(n_pixels, shape=shape, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for side in borders:
        line = {"x0": (0, slice(None)), "x1": (-1, slice(None)),
                "y0": (slice(None), 0), "y1": (slice(None), -1)}[side]
        edges[line] |= rng.random(edges[line].shape) < 0.5
    return edges


def margin_edge_map(shape, margin, n_pixels, seed):
    """Random edges at least `margin` pixels from every border."""
    edges = np.zeros(shape, dtype=bool)
    inner = (shape[0] - 2 * margin, shape[1] - 2 * margin)
    edges[margin:-margin, margin:-margin] = random_edge_map(n_pixels, inner, seed)
    return edges


class TestHoughGrid:
    """The FFT grid sized by the edge box gives the reference's circles
    wherever the edges sit: a grid without the radius_max term wraps the
    rings of edges near a border onto the other side."""

    @pytest.mark.parametrize("borders", [("x0",), ("y1",), ("x1",), ("x0", "y0"),
                                         ("x1", "y1"), ("x0", "x1"), ("x0", "x1", "y0", "y1")])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_edges_on_the_borders(self, borders, seed):
        cfg = RoiConfig(radius_min=4, radius_max=18, top_p=5)
        edges = border_edge_map((45, 52), borders, 30, seed)
        assert hough_circles(edges, cfg) == reference_hough_circles(edges, cfg)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edges_clear_of_every_border(self, seed):
        cfg = RoiConfig(radius_min=4, radius_max=12, top_p=4)
        edges = margin_edge_map((50, 44), 12, 25, seed)
        assert hough_circles(edges, cfg) == reference_hough_circles(edges, cfg)

    @pytest.mark.parametrize("shape", [(5, 7), (1, 30), (12, 3), (20, 20)])
    def test_map_smaller_than_the_largest_ring(self, shape):
        cfg = RoiConfig(radius_min=2, radius_max=40, top_p=3)
        edges = random_edge_map(max(1, shape[0] * shape[1] // 4), shape=shape, seed=sum(shape))
        edges[-1, -1] = True
        assert hough_circles(edges, cfg) == reference_hough_circles(edges, cfg)

    def test_plane_tied_with_the_cut_still_placed(self):
        # one edge pixel in the corner: every plane's maximum is a 1, and
        # each larger ring's first peak reaches a lower y, so each later
        # plane ties the kept score and wins the (y, x, radius) order
        cfg = RoiConfig(radius_min=3, radius_max=6, top_p=1)
        edges = np.zeros((30, 30), dtype=bool)
        edges[-1, -1] = True
        want = [Circle(center=(29, 23), radius=6, score=1.0)]
        assert hough_circles(edges, cfg) == want == reference_hough_circles(edges, cfg)


class TestTemporalH1Oracle:
    @pytest.mark.parametrize("via_file", [True, False])
    def test_bitwise_equal_to_whole_volume_product(self, via_file, tmp_path):
        rng = np.random.default_rng(7)
        data = (100 * rng.random((37, 29, 3, 30))).astype(np.float32)
        cine = ScalarVolume(data=data)
        if via_file:
            save_volume(cine, tmp_path / "cine.vol")
            cine = load_volume(tmp_path / "cine.vol", "scalar")
        assert cine.data.flags.f_contiguous == via_file
        phase = np.exp(-2j * np.pi * np.arange(30) / 30)
        expected = np.abs(np.tensordot(cine.data.astype(np.float64), phase, axes=([3], [0])))
        assert np.array_equal(temporal_h1(cine).magnitudes, expected)


def test_temporal_h1_records_the_residue():
    # the static-input floor scales with the frames and the peak |value|,
    # taken as temporal_h1 reads each slab rather than in two more passes
    data = np.zeros((5, 4, 3, 6), dtype=np.float32)
    data[1, 2, 0, 3] = 2.5
    data[4, 0, 2, 1] = -7.25
    assert temporal_h1(ScalarVolume(data=data)).residue == 1e-12 * 6 * 7.25
    assert temporal_h1(ScalarVolume(data=-data)).residue == 1e-12 * 6 * 7.25
    assert temporal_h1(ScalarVolume(data=np.zeros((2, 2, 1, 4)))).residue == 0.0


class TestTemporalH1Blocks:
    @pytest.mark.parametrize("block", [None, 1, 2 * 4096 * 30])
    @pytest.mark.parametrize("via_file", [True, False])
    def test_equal_to_the_whole_slice_product(self, block, via_file, tmp_path, monkeypatch):
        # 67 * 65 = 4355 voxel rows: blocks of 136 rows, the last one
        # overlapping; blocks of two rows (the fewest); or one block
        if block is not None:
            monkeypatch.setattr(roi_mod, "_H1_BLOCK", block)
        rng = np.random.default_rng(8)
        cine = ScalarVolume(data=(100 * rng.random((67, 65, 2, 30))).astype(np.float32))
        if via_file:
            save_volume(cine, tmp_path / "cine.vol")
            cine = load_volume(tmp_path / "cine.vol", "scalar")
        phase = np.exp(-2j * np.pi * np.arange(30) / 30)
        expected = np.empty((67, 65, 2))
        for z in range(2):
            rows = np.zeros((65, 67, 30), dtype=np.complex128)
            rows.real = cine.data[:, :, z, :].transpose(1, 0, 2)
            expected[:, :, z] = np.abs(rows.reshape(-1, 30) @ phase).reshape(65, 67).T
        assert np.array_equal(temporal_h1(cine).magnitudes, expected)
