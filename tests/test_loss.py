import numpy as np
import pytest

from cardiomr.loss import (
    LossConfig,
    build_weight_map,
    dice_loss,
    minibatch_class_weights,
    soft_dice_class,
    softmax,
    total_loss,
    total_loss_grad,
    weighted_ce,
)


def random_field(rng, n_classes, shape):
    z = rng.normal(size=(n_classes,) + shape) * 2.0
    t = rng.integers(0, n_classes, shape)
    return z, t


class TestWeightMap:
    def test_two_by_two_block_hand_values(self):
        # 16 voxels, 12 BG + 4 FG; all 4 FG pixels are contour pixels,
        # BG contour comes out empty on this grid, so:
        #   FG weight = 16/4 + 16/4 = 8, BG weight = 16/12
        lbl = np.zeros((4, 4), dtype=int)
        lbl[1:3, 1:3] = 1
        wm = build_weight_map(lbl, dilate_iters=1)
        assert wm.contour_counts[1] == 4
        assert np.all(wm.values[lbl == 1] == 8.0)
        assert np.allclose(wm.values[lbl == 0], 16.0 / 12.0)

    def test_single_class_slice_skips_contour_term(self):
        wm = build_weight_map(np.zeros((6, 6), dtype=int))
        assert wm.contour_counts[0] == 0
        assert np.all(wm.values == 1.0)

    def test_equal_class_frequencies_give_equal_class_terms(self):
        lbl = np.zeros((4, 4), dtype=int)
        lbl[2:, :] = 1  # 8 voxels each
        wm = build_weight_map(lbl)
        assert np.all(wm.class_term[lbl == 0] == wm.class_term[lbl == 1][0])

    def test_weights_positive_and_finite(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lbl = rng.integers(0, 4, (12, 14))
            wm = build_weight_map(lbl)
            assert np.all(wm.values > 0)
            assert np.all(np.isfinite(wm.values))

    def test_class_term_telescopes_per_class(self):
        # every class voxel carries exactly |N| / |T_l|, so the exact
        # rational sum over a class is |N|
        from fractions import Fraction

        rng = np.random.default_rng(1)
        for _ in range(25):
            lbl = rng.integers(0, 4, (9, 11))
            wm = build_weight_map(lbl)
            n = lbl.size
            for cls, t_count in wm.class_counts.items():
                vals = wm.class_term[lbl == cls]
                assert np.all(vals == np.float64(n) / np.float64(t_count))
                assert Fraction(n, t_count) * t_count == n


    @pytest.mark.parametrize("dilate_iters", [-1, -6])
    def test_negative_dilate_iters_is_refused(self, dilate_iters):
        # -6 would shrink the window to the bare foreground box, where
        # Canny's border sees foreground and the contours change
        lbl = np.zeros((20, 20), dtype=int)
        lbl[6:14, 5:15] = 1
        with pytest.raises(ValueError, match=f"dilate_iters must be >= 0, got {dilate_iters}"):
            build_weight_map(lbl, dilate_iters)


class TestSoftmax:
    def test_uniform_logits(self):
        p = softmax(np.zeros((4, 1)))
        assert np.allclose(p, 0.25)

    def test_large_logits_do_not_overflow(self):
        p = softmax(np.array([[1000.0], [0.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)

    def test_closed_form(self):
        z = np.log(np.array([[1.0], [2.0], [3.0], [4.0]]))
        p = softmax(z)
        assert np.allclose(p[:, 0], [0.1, 0.2, 0.3, 0.4])

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(5, 7, 3))
        p = softmax(z)
        assert np.allclose(p.sum(axis=0), 1.0, atol=1e-6)
        assert np.allclose(softmax(z + 3.7), p, atol=1e-12)


class TestWeightedCE:
    def test_perfect_prediction_is_zero(self):
        p = np.array([[0.0], [1.0]])[:, :, None]
        t = np.ones((1, 1), dtype=int)
        assert weighted_ce(p, t, np.ones((1, 1))) == pytest.approx(0.0, abs=1e-9)

    def test_single_voxel_analytic(self):
        p = np.array([[0.5], [0.5]])[:, :, None]
        t = np.zeros((1, 1), dtype=int)
        out = weighted_ce(p, t, 2.0 * np.ones((1, 1)))
        assert out == pytest.approx(2 * np.log(2))

    def test_two_voxel_analytic(self):
        p = np.full((2, 2, 1), np.exp(-1.0))
        p[1] = 1 - np.exp(-1.0)
        t = np.zeros((2, 1), dtype=int)
        assert weighted_ce(p, t, np.ones((2, 1))) == pytest.approx(2.0)

    def test_zero_probability_clamped_and_counted(self):
        p = np.array([[0.0], [1.0]])[:, :, None]
        t = np.zeros((1, 1), dtype=int)
        diag = {}
        out = weighted_ce(p, t, np.ones((1, 1)), diagnostics=diag)
        assert np.isfinite(out)
        assert diag["clamped"] == 1


class TestSoftDice:
    def test_perfect_overlap(self):
        g = np.array([1.0, 0.0, 1.0, 0.0])
        assert soft_dice_class(g, g, eps=1e-5) == pytest.approx(1.0, abs=1e-4)

    def test_half_probability_analytic(self):
        p = np.full(4, 0.5)
        g = np.array([1.0, 1.0, 0.0, 0.0])
        assert soft_dice_class(p, g, eps=1e-12) == pytest.approx(2.0 / 3.0)

    def test_literal_form_drops_factor_two(self):
        p = np.full(4, 0.5)
        g = np.array([1.0, 1.0, 0.0, 0.0])
        assert soft_dice_class(p, g, eps=1e-12, two_factor=False) == pytest.approx(1.0 / 3.0)

    def test_empty_class_scores_one(self):
        z = np.zeros(5)
        assert soft_dice_class(z, z, eps=1e-5) == 1.0

    def test_symmetric_for_binary_inputs(self):
        rng = np.random.default_rng(3)
        p = (rng.random(30) < 0.4).astype(float)
        g = (rng.random(30) < 0.4).astype(float)
        assert soft_dice_class(p, g) == pytest.approx(soft_dice_class(g, p))


class TestMinibatchWeights:
    def test_direct_ratio(self):
        t = np.array([0] * 90 + [3] * 10)
        w = minibatch_class_weights(t)
        assert w[0] == pytest.approx(10 / 9)
        assert w[3] == pytest.approx(10.0)

    def test_uniform_batch(self):
        t = np.repeat(np.arange(4), 25)
        w = minibatch_class_weights(t)
        assert all(v == pytest.approx(4.0) for v in w.values())

    def test_absent_class_omitted(self):
        w = minibatch_class_weights(np.array([0, 0, 2]))
        assert set(w) == {0, 2}


class TestDiceLoss:
    def test_one_hot_prediction_is_near_zero(self):
        rng = np.random.default_rng(4)
        t = rng.integers(0, 3, (6, 6))
        p = np.zeros((3, 6, 6))
        np.put_along_axis(p, t[None], 1.0, axis=0)
        assert dice_loss(p, t) == pytest.approx(0.0, abs=1e-4)

    def test_single_class_two_thirds_dice_gives_one_third_loss(self):
        # only class 1 present; p_1 = [1,1,0,0] against g_1 = [1,1,1,1]
        # gives dice (2*2)/(2+4) = 2/3, so the loss is 1/3
        t = np.ones((1, 4), dtype=int)
        p = np.zeros((2, 1, 4))
        p[1, 0, :2] = 1.0
        p[0, 0, 2:] = 1.0
        cfg = LossConfig(epsilon=1e-12)
        assert dice_loss(p, t, cfg) == pytest.approx(1.0 / 3.0)

    def test_weighted_mean_arithmetic(self):
        # two classes with dice 1.0 and 0.5 under weights 1 and 3:
        # loss = 1 - (1*1 + 3*0.5)/4 = 0.375; construct via direct formula
        from cardiomr.loss import soft_dice_class

        t = np.array([[0] * 3 + [1] * 1])  # weights: N/|T|: 4/3 and 4
        p = np.zeros((2, 1, 4))
        p[0, 0, :3] = 1.0  # class 0 perfectly predicted
        p[1, 0, 3] = 0.5
        p[0, 0, 3] = 0.5
        cfg = LossConfig(epsilon=1e-12)
        d0 = soft_dice_class(p[0], (t == 0).astype(float), 1e-12)
        d1 = soft_dice_class(p[1], (t == 1).astype(float), 1e-12)
        w0, w1 = 4 / 3, 4.0
        expect = 1 - (w0 * d0 + w1 * d1) / (w0 + w1)
        assert dice_loss(p, t, cfg) == pytest.approx(expect)
        assert 0 <= dice_loss(p, t, cfg) < 1


class TestTotalLoss:
    def test_perfect_prediction_near_zero(self):
        t = np.array([[0, 1], [1, 0]])
        z = np.zeros((2, 2, 2))
        np.put_along_axis(z, t[None], 40.0, axis=0)
        w = np.ones((2, 2))
        total, parts = total_loss(z, t, w, LossConfig(), l2_of_weights=0.0)
        assert total == pytest.approx(0.0, abs=1e-3)
        assert set(parts) == {"ce", "dice_loss", "l2", "total"}

    def test_gamma_zero_reduces_to_ce(self):
        rng = np.random.default_rng(5)
        z, t = random_field(rng, 3, (4, 4))
        w = build_weight_map(t).values
        cfg = LossConfig(lam=1.0, gamma=0.0, eta=0.0)
        total, parts = total_loss(z, t, w, cfg)
        assert total == pytest.approx(weighted_ce(softmax(z), t, w))

    def test_l2_term_arithmetic(self):
        rng = np.random.default_rng(6)
        z, t = random_field(rng, 2, (3, 3))
        w = np.ones((3, 3))
        cfg = LossConfig(lam=0.0, gamma=1.0, eta=5e-4)
        total, parts = total_loss(z, t, w, cfg, l2_of_weights=100.0)
        assert parts["l2"] == pytest.approx(0.05)
        assert total == pytest.approx(parts["dice_loss"] + 0.05)

    def test_non_negative(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            z, t = random_field(rng, 4, (5, 5))
            w = build_weight_map(t).values
            total, _ = total_loss(z, t, w, LossConfig(), l2_of_weights=rng.random())
            assert total >= 0


def fd_gradient(z, t, w, cfg, h=1e-4):
    grad = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        zp = z.copy()
        zp[idx] += h
        zm = z.copy()
        zm[idx] -= h
        grad[idx] = (total_loss(zp, t, w, cfg)[0] - total_loss(zm, t, w, cfg)[0]) / (2 * h)
    return grad


class TestTotalLossGrad:
    @pytest.mark.parametrize("loss", [total_loss, total_loss_grad])
    @pytest.mark.parametrize("shape", [(8,), (1, 8), (8, 1), (4, 8, 8)])
    def test_refuses_a_weight_map_the_loss_refuses(self, loss, shape):
        """A weight map that only broadcasts to the targets is refused."""
        z, t = random_field(np.random.default_rng(3), 4, (8, 8))
        with pytest.raises(ValueError, match=r"weight map \(.*\) does not match targets \(8, 8\)"):
            loss(z, t, np.ones(shape))

    def test_saturated_one_hot_prediction_has_tiny_gradient(self):
        t = np.array([[0, 1], [2, 0]])
        z = np.zeros((3, 2, 2))
        np.put_along_axis(z, t[None], 60.0, axis=0)
        g = total_loss_grad(z, t, np.ones((2, 2)), LossConfig())
        assert np.abs(g).max() < 1e-6

    def test_ce_only_gradient_closed_form(self):
        rng = np.random.default_rng(8)
        z, t = random_field(rng, 3, (5, 5))
        w = build_weight_map(t).values
        cfg = LossConfig(lam=1.0, gamma=0.0)
        p = softmax(z)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, t[None], 1.0, axis=0)
        assert np.allclose(total_loss_grad(z, t, w, cfg), w[None] * (p - onehot))

    @pytest.mark.parametrize("cfg", [
        LossConfig(),
        LossConfig(dice_two_factor=False),
        LossConfig(lam=0.4, gamma=1.7),
        LossConfig(lam=0.0, gamma=1.0),
    ])
    def test_matches_central_finite_differences(self, cfg):
        rng = np.random.default_rng(9)
        z, t = random_field(rng, 2, (6, 6))
        w = build_weight_map(t).values
        analytic = total_loss_grad(z, t, w, cfg)
        fd = fd_gradient(z, t, w, cfg)
        scale = np.abs(fd).max()
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6 * scale)
        assert rel.max() < 1e-5
