"""The loss kernels against the plain expressions they replaced, bit for bit.

``build_weight_map`` finds every class's contour in one windowed stack, and
``softmax`` and ``total_loss_grad`` work in place. The references below are
the straightforward forms: one ``class_contour`` call per whole-slice class
mask, and the softmax and gradient written as single expressions. Every
output must have the same bytes. A non-default ``LossConfig`` makes a
regrouped product (``lam * (w * d)`` for ``(lam * w) * d``) show.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardiomr.loss import (
    LossConfig,
    WeightMap,
    build_weight_map,
    class_contour,
    dice_loss,
    minibatch_class_weights,
    softmax,
    total_loss,
    total_loss_grad,
    weighted_ce,
)
from cardiomr.phantoms import heart_slice

DILATE_ITERS = (1, 2, 3, 4)
# a contour reaches dilate_iters + 1 pixels past its class, beyond Canny's
# reach only from 6 iterations on
WIDE_DILATE_ITERS = (6, 8)
CONFIGS = (LossConfig(), LossConfig(lam=0.7, gamma=1.3, epsilon=1e-3, dice_two_factor=False))


# -- references ---------------------------------------------------------------

def reference_weight_map(lbl, dilate_iters=1):
    """The weight map from one ``class_contour`` call per whole-slice mask."""
    lbl = np.asarray(lbl)
    n_total = lbl.size
    class_term = np.zeros(lbl.shape, dtype=np.float64)
    contour_term = np.zeros(lbl.shape, dtype=np.float64)
    class_counts = {}
    contour_counts = {}
    for label in np.unique(lbl):
        label = int(label)
        mask = lbl == label
        t_count = int(mask.sum())
        class_counts[label] = t_count
        class_term[mask] = n_total / t_count
        contour = class_contour(mask, dilate_iters)
        c_count = int(contour.sum())
        contour_counts[label] = c_count
        if c_count > 0:
            contour_term[contour] += n_total / c_count
    return WeightMap(values=class_term + contour_term, class_term=class_term,
                     contour_term=contour_term, class_counts=class_counts,
                     contour_counts=contour_counts)


def reference_softmax(z):
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    shifted = z - z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def reference_total_loss(z, t, w, cfg, diagnostics):
    p = reference_softmax(z)
    ce = weighted_ce(p, t, w, diagnostics)
    dl = dice_loss(p, t, cfg)
    total = cfg.lam * ce + cfg.gamma * dl
    return total, {"ce": ce, "dice_loss": dl, "l2": 0.0, "total": total}


def reference_total_loss_grad(z, t, w, cfg):
    w = np.asarray(w, dtype=np.float64)
    p = reference_softmax(z)
    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, t[np.newaxis], 1.0, axis=0)
    grad = cfg.lam * w[np.newaxis] * (p - onehot)
    if cfg.gamma > 0:
        weights = minibatch_class_weights(t)
        w_sum = sum(weights.values())
        dldp = np.zeros_like(p)
        for label, w_l in weights.items():
            g_l = onehot[label]
            p_l = p[label]
            inter = (p_l * g_l).sum()
            denom = (p_l**2 + g_l**2).sum() + cfg.epsilon
            if cfg.dice_two_factor:
                num = 2.0 * inter + cfg.epsilon
                dnum = 2.0 * g_l
            else:
                num = inter + cfg.epsilon
                dnum = g_l
            dd_dp = (dnum * denom - num * 2.0 * p_l) / denom**2
            dldp[label] = -(w_l / w_sum) * dd_dp
        inner = (dldp * p).sum(axis=0, keepdims=True)
        grad += cfg.gamma * p * (dldp - inner)
    return grad


def assert_same_weight_map(got, want):
    for field in ("values", "class_term", "contour_term"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    # repr: the ids are ints, and in ascending order, whatever the slice's dtype
    assert repr(got.class_counts) == repr(want.class_counts)
    assert repr(got.contour_counts) == repr(want.contour_counts)


# -- slices -------------------------------------------------------------------

def named_slices():
    """Label slices whose windows meet the border, fill the slice or are empty."""
    rv = dict(rv_center=(9, 30), rv_radius=7.0)
    corner = np.zeros((12, 9), dtype=np.uint8)
    corner[:4, :3] = 2
    out = {
        "heart in the middle": heart_slice((128, 128), (64.3, 61.8), 14.0, 3.0,
                                           rv_center=(37, 62), rv_radius=10.0),
        "heart over the top border": heart_slice((40, 36), (2.5, 18.0), 9.0, 2.5, **rv),
        "heart over a corner": heart_slice((30, 34), (27.0, 31.5), 8.0, 3.0),
        "heart filling the slice": heart_slice((24, 22), (12.0, 11.0), 9.0, 8.0,
                                               rv_center=(2, 2), rv_radius=5.0),
        "box in a corner": corner,
        "no background": np.random.default_rng(5).integers(1, 4, (17, 23)),
        "only background": np.zeros((20, 30), dtype=np.uint8),
        "only background, int": np.zeros((7, 5), dtype=int),
        "single class": np.full((15, 11), 3, dtype=np.uint8),
        "single class and background": (heart_slice((32, 32), (16, 16), 6.0, 0.0) > 0) * 2,
        "bool mask": heart_slice((26, 30), (12.0, 14.0), 5.0, 2.0) == 2,
        "float labels": heart_slice((26, 30), (12.0, 14.0), 5.0, 2.0).astype(np.float64),
    }
    for n in (1, 2, 5, 40):
        row = np.zeros((1, n), dtype=np.uint8)
        row[0, n // 3:n // 3 + max(n // 4, 1)] = 1
        out[f"1x{n} row"] = row
        out[f"{n}x1 column"] = row.T.copy()
        out[f"1x{n} foreground"] = np.full((1, n), 2, dtype=np.uint8)
    return out


NAMED = named_slices()


@st.composite
def blob_slices(draw, max_side=40):
    """Label slices of a few random class boxes on a random grid, often
    touching the border, over a background that may be absent."""
    nx, ny = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    lbl = np.full((nx, ny), draw(st.sampled_from([0, 0, 0, 1])), dtype=np.uint8)
    for _ in range(draw(st.integers(0, 4))):
        x0 = draw(st.sampled_from([0, draw(st.integers(0, nx - 1))]))
        y0 = draw(st.sampled_from([0, draw(st.integers(0, ny - 1))]))
        x1, y1 = draw(st.integers(x0, nx - 1)), draw(st.integers(y0, ny - 1))
        lbl[x0:x1 + 1, y0:y1 + 1] = draw(st.integers(0, 3))
    return lbl


def loss_fields():
    """``(logits, targets, weights)`` of heart and random slices, with logits
    large enough that some target probabilities underflow and are clamped."""
    rng = np.random.default_rng(11)
    out = []
    for lbl in (NAMED["heart in the middle"], NAMED["heart over the top border"],
                NAMED["single class"], rng.integers(0, 4, (9, 13))):
        lbl = lbl.astype(np.int64)
        z = rng.normal(size=(4,) + lbl.shape) * 3.0
        np.put_along_axis(z, lbl[np.newaxis], 2.0, axis=0)
        z[:, ::7, ::5] *= 400.0
        out.append((z, lbl, build_weight_map(lbl).values))
    return out


FIELDS = loss_fields()


# -- weight map ---------------------------------------------------------------

class TestWeightMapOracle:
    @pytest.mark.parametrize("dilate_iters", DILATE_ITERS + WIDE_DILATE_ITERS)
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_slices(self, name, dilate_iters):
        lbl = NAMED[name]
        assert_same_weight_map(build_weight_map(lbl, dilate_iters),
                               reference_weight_map(lbl, dilate_iters))

    @settings(max_examples=120, deadline=None)
    @given(lbl=blob_slices(), dilate_iters=st.sampled_from(DILATE_ITERS))
    def test_random_blobs(self, lbl, dilate_iters):
        assert_same_weight_map(build_weight_map(lbl, dilate_iters),
                               reference_weight_map(lbl, dilate_iters))

    def test_middle_heart_has_a_window_inside_the_slice(self):
        """The windowed path, not only the whole-slice one, is compared:
        the heart's contours stay well inside the slice."""
        wm = build_weight_map(NAMED["heart in the middle"])
        assert not wm.contour_term[:20].any() and not wm.contour_term[-20:].any()
        assert all(c > 0 for c in wm.contour_counts.values())


# -- softmax, loss and gradient ------------------------------------------------

class TestLossKernelOracle:
    @pytest.mark.parametrize("field", range(len(FIELDS)))
    def test_softmax(self, field):
        z = FIELDS[field][0]
        assert softmax(z).tobytes() == reference_softmax(z).tobytes()

    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("field", range(len(FIELDS)))
    def test_total_loss(self, field, cfg):
        z, t, w = FIELDS[field]
        got_diag, want_diag = {}, {}
        got = total_loss(z, t, w, cfg, diagnostics=got_diag)
        want = reference_total_loss(z, t, w, cfg, want_diag)
        assert repr(got) == repr(want)
        assert got_diag == want_diag

    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("field", range(len(FIELDS)))
    def test_total_loss_grad(self, field, cfg):
        z, t, w = FIELDS[field]
        got = total_loss_grad(z, t, w, cfg)
        assert got.shape == z.shape and got.dtype == np.float64
        assert got.tobytes() == reference_total_loss_grad(z, t, w, cfg).tobytes()

    def test_fields_clamp_some_voxels(self):
        diag = {}
        for z, t, w in FIELDS:
            total_loss(z, t, w, diagnostics=diag)
        assert diag["clamped"] > 0

    def test_inputs_are_not_modified(self):
        z, t, w = FIELDS[0]
        copies = z.copy(), t.copy(), w.copy()
        softmax(z)
        total_loss_grad(z, t, w, CONFIGS[1])
        for before, after in zip(copies, (z, t, w)):
            assert before.tobytes() == after.tobytes()


class TestSoftmaxRefusesNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 1, 2), (2, 0, 0), (1, 3, 4)])
    def test_raises(self, value, where):
        z = np.random.default_rng(2).normal(size=(3, 4, 5))
        z[where] = value
        with pytest.raises(ValueError, match="logits must be finite"):
            softmax(z)

    def test_minus_inf_below_the_voxel_maximum(self):
        """-inf never reaches a voxel's maximum, so the maxima alone miss it."""
        z = np.zeros((3, 2, 2))
        z[1] = 5.0
        z[2, 1, 0] = -np.inf
        assert np.isfinite(z.max(axis=0)).all()
        with pytest.raises(ValueError, match="logits must be finite"):
            softmax(z)

    def test_empty_field(self):
        assert softmax(np.zeros((3, 0))).shape == (3, 0)
