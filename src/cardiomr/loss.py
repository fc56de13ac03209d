"""Reference kernels for the dual segmentation loss with analytic gradients.

These are oracle-grade numpy implementations of the spatial weight map,
the spatially weighted cross-entropy, the smoothed soft Dice with
mini-batch class weighting, their combination, and the exact gradient of
the combined loss with respect to the logits. Training code of any
framework can be validated against them.

Field conventions: logits and probabilities are ``(C, *spatial)`` float
arrays, targets are integer ``(*spatial)`` arrays, weight maps are float
``(*spatial)`` arrays. All reductions run in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import canny_edges, canny_reach, dilate_cross, nonzero_window
from .volume import present_ids

PROB_FLOOR = 1e-12  # floor inside log(); occurrences are reported


@dataclass(frozen=True)
class LossConfig:
    lam: float = 1.0          # cross-entropy weight
    gamma: float = 1.0        # Dice complement weight
    eta: float = 5e-4         # L2 decay factor
    epsilon: float = 1e-5     # Dice smoothing term
    dice_two_factor: bool = True  # standard 2*intersection numerator

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not (self.lam >= 0 and self.gamma >= 0 and self.eta >= 0):
            raise ValueError("lam, gamma and eta must be non-negative")


@dataclass(frozen=True)
class WeightMap:
    """Per-voxel weights plus the two additive components for auditing."""

    values: np.ndarray
    class_term: np.ndarray
    contour_term: np.ndarray
    class_counts: dict      # label -> |T_l|
    contour_counts: dict    # label -> |C_l| (0 means contour term skipped)


def class_contour(mask: np.ndarray, dilate_iters: int = 1) -> np.ndarray:
    """Contour voxels of a binary class mask, kept inside the mask.

    Canny (sigma=1) on the mask, dilated ``dilate_iters`` times with a 3x3
    cross, intersected with the mask so contour sets stay subsets of their
    class. ``mask`` is a 2D mask or an ``(nx, ny, n)`` stack of them, each
    detected on its own, against its own gradient maximum.
    """
    mask = np.asarray(mask).astype(bool)
    edges = canny_edges(mask.astype(np.float64), 1.0, 0.1, 0.2)
    return dilate_cross(edges, dilate_iters) & mask


def build_weight_map(lbl: np.ndarray, dilate_iters: int = 1) -> WeightMap:
    """Spatial weight map of a 2D label slice.

    Every voxel of class ``l`` receives ``|N| / |T_l|``; contour voxels
    additionally receive ``|N| / |C_l|``. A class with an empty contour
    set contributes no contour term (avoids division by zero).

    The contours come from one :func:`class_contour` call on the masks of
    every present class, stacked over a window: the foreground's box grown
    by ``canny_reach(1.0) + dilate_iters``. This gives the whole slice's
    bits. Outside the window the background mask is constant 1 and every
    other mask is 0; within Canny's reach of a constant region, smoothing
    gives that constant and Sobel gives exact zeros. So no pixel outside
    the window has a gradient, each mask's gradient maximum is unchanged,
    and the window's ``mode="nearest"`` border repeats the values the whole
    slice has beyond it. The ``+ dilate_iters`` keeps the dilation of the
    edges from being clipped at the window's edge. Class counts are taken
    over the whole slice.
    """
    lbl = np.asarray(lbl)
    if lbl.ndim != 2:
        raise ValueError("build_weight_map expects a 2D label slice")
    if dilate_iters < 0:
        raise ValueError(f"dilate_iters must be >= 0, got {dilate_iters}")
    n_total = lbl.size
    class_term = np.zeros(lbl.shape, dtype=np.float64)
    contour_term = np.zeros(lbl.shape, dtype=np.float64)
    labels = present_ids(lbl)
    win = nonzero_window(lbl, canny_reach(1.0) + dilate_iters)
    window = lbl[win]
    masks = window[:, :, np.newaxis] == labels  # every class over the window, stacked
    contours = class_contour(masks, dilate_iters)
    counts = np.count_nonzero(masks, axis=(0, 1))
    counts[labels == 0] += n_total - window.size  # the slice outside the window is background
    ids = [int(label) for label in labels]
    class_counts = dict(zip(ids, counts.tolist()))
    contour_counts = dict(zip(ids, np.count_nonzero(contours, axis=(0, 1)).tolist()))
    if window.size < n_total:
        class_term[:] = n_total / class_counts[0]
    class_in, contour_in = class_term[win], contour_term[win]  # views into the terms
    for k, label in enumerate(class_counts):
        class_in[masks[:, :, k]] = n_total / class_counts[label]
        if contour_counts[label] > 0:
            contour_in[contours[:, :, k]] += n_total / contour_counts[label]
    return WeightMap(
        values=class_term + contour_term,
        class_term=class_term,
        contour_term=contour_term,
        class_counts=class_counts,
        contour_counts=contour_counts,
    )


def weight_map_volume(labels: np.ndarray, dilate_iters: int = 1) -> np.ndarray:
    """Slice-wise :func:`build_weight_map` values of a 3D label array."""
    labels = np.asarray(labels)
    out = np.empty(labels.shape, dtype=np.float64)
    for z in range(labels.shape[2]):
        out[:, :, z] = build_weight_map(labels[:, :, z], dilate_iters).values
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Class-axis softmax of a (C, *spatial) logits field, max-stabilized."""
    z = np.asarray(z, dtype=np.float64)
    peak = z.max(axis=0, keepdims=True)
    # a NaN or +inf reaches the largest maximum, a -inf the minimum
    if not (np.isfinite(peak.max(initial=0.0)) and np.isfinite(z.min(initial=0.0))):
        raise ValueError("logits must be finite")
    e = z - peak
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


def _check_field(p, t, w=None) -> tuple:
    """``p`` and ``w`` as float64 and ``t`` as an array, refused unless they
    fit together; every loss term and the gradient take their fields here."""
    p = np.asarray(p, dtype=np.float64)
    t = np.asarray(t)
    w = None if w is None else np.asarray(w, dtype=np.float64)
    if p.shape[1:] != t.shape:
        raise ValueError(f"probability field {p.shape} does not match targets {t.shape}")
    if t.min() < 0 or t.max() >= p.shape[0]:
        raise ValueError("target labels exceed the class axis")
    if w is not None and w.shape != t.shape:
        raise ValueError(f"weight map {w.shape} does not match targets {t.shape}")
    return p, t, w


def weighted_ce(p: np.ndarray, t: np.ndarray, w: np.ndarray, diagnostics: dict | None = None) -> float:
    """Spatially weighted cross-entropy, summed over voxels.

    Target-class probabilities of exactly zero are floored at
    ``PROB_FLOOR``; the number of floored voxels is reported through the
    optional ``diagnostics`` dict under ``"clamped"``.
    """
    p, t, w = _check_field(p, t, w)
    p_target = np.take_along_axis(p, t[np.newaxis], axis=0)[0]
    clamped = int(np.count_nonzero(p_target < PROB_FLOOR))
    if diagnostics is not None:
        diagnostics["clamped"] = diagnostics.get("clamped", 0) + clamped
    p_target = np.maximum(p_target, PROB_FLOOR)
    return float(-(w * np.log(p_target)).sum())


def soft_dice_class(p_l: np.ndarray, g_l: np.ndarray, eps: float = 1e-5, two_factor: bool = True) -> float:
    """Smoothed soft Dice of one class.

    ``two_factor=True`` uses the standard form with the factor 2 in the
    numerator; ``False`` drops that factor.
    """
    p_l = np.asarray(p_l, dtype=np.float64)
    g_l = np.asarray(g_l, dtype=np.float64)
    inter = (p_l * g_l).sum()
    denom = (p_l**2 + g_l**2).sum()
    num = 2.0 * inter if two_factor else inter
    return float((num + eps) / (denom + eps))


def minibatch_class_weights(t: np.ndarray) -> dict:
    """Inverse-frequency weights |M| / |M_l| for classes present in ``t``.

    Absent classes are omitted (their weight would be undefined).
    """
    t = np.asarray(t)
    return {int(l): t.size / int(np.count_nonzero(t == l)) for l in present_ids(t)}


def dice_loss(p: np.ndarray, t: np.ndarray, cfg: LossConfig | None = None) -> float:
    """One minus the class-weighted mean soft Dice over classes present in t."""
    cfg = cfg or LossConfig()
    p, t, _ = _check_field(p, t)
    weights = minibatch_class_weights(t)
    num = 0.0
    den = 0.0
    for label, w_l in weights.items():
        d_l = soft_dice_class(p[label], (t == label), cfg.epsilon, cfg.dice_two_factor)
        num += w_l * d_l
        den += w_l
    return float(1.0 - num / den)


def total_loss(
    z: np.ndarray,
    t: np.ndarray,
    w: np.ndarray,
    cfg: LossConfig | None = None,
    l2_of_weights: float = 0.0,
    diagnostics: dict | None = None,
):
    """Combined loss lam*CE + gamma*(1 - weighted Dice) + eta*L2.

    Returns ``(total, breakdown)`` where breakdown holds the three terms.
    """
    cfg = cfg or LossConfig()
    p = softmax(z)
    ce = weighted_ce(p, t, w, diagnostics)
    dl = dice_loss(p, t, cfg)
    l2 = cfg.eta * float(l2_of_weights)
    total = cfg.lam * ce + cfg.gamma * dl + l2
    breakdown = {"ce": ce, "dice_loss": dl, "l2": l2, "total": total}
    return total, breakdown


def total_loss_grad(
    z: np.ndarray,
    t: np.ndarray,
    w: np.ndarray,
    cfg: LossConfig | None = None,
) -> np.ndarray:
    """Analytic d(total_loss)/d(logits); the L2 term does not depend on z.

    The CE part reduces to ``w * (softmax(z) - onehot(t))``; the Dice part
    is differentiated through the smoothed quotient and the softmax.
    """
    cfg = cfg or LossConfig()
    p, t, w = _check_field(softmax(z), t, w)

    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, t[np.newaxis], 1.0, axis=0)

    grad = p - onehot
    grad *= cfg.lam * w  # (lam * w) * (p - onehot)

    if cfg.gamma > 0:
        weights = minibatch_class_weights(t)
        w_sum = sum(weights.values())
        # dL_dice/dp, nonzero only for classes present in the batch
        dldp = np.zeros_like(p)
        scratch = np.empty(p.shape[1:])
        for label, w_l in weights.items():
            g_l = onehot[label]
            p_l = p[label]
            inter = np.multiply(p_l, g_l, out=scratch).sum()
            np.square(p_l, out=scratch)
            scratch += g_l  # g_l**2 == g_l: its values are 0 and 1
            denom = scratch.sum() + cfg.epsilon
            if cfg.dice_two_factor:
                num = 2.0 * inter + cfg.epsilon
                dnum = np.multiply(2.0, g_l, out=scratch)
            else:
                num = inter + cfg.epsilon
                dnum = g_l
            # quotient rule for d_l = num / denom, with the row of dldp as
            # its buffer: -(w_l / w_sum) * (dnum * denom - num * 2.0 * p_l) / denom**2
            row = np.multiply(dnum, denom, out=dldp[label])
            row -= np.multiply(num * 2.0, p_l, out=scratch)
            row /= denom**2
            row *= -(w_l / w_sum)
        # back through softmax: dz_k = p_k * (dP_k - sum_c dP_c p_c)
        inner = (dldp * p).sum(axis=0, keepdims=True)
        dldp -= inner
        p *= cfg.gamma
        dldp *= p  # (gamma * p) * (dldp - inner)
        grad += dldp
    return grad
