"""Supervision stack: BCE, soft IoU, boundary targets, combined objectives.

Losses take probability maps (post-sigmoid) and binary ground truth.
Pixel terms are averaged per image and then over the batch, so the loss
scale does not grow with resolution.  Boundary ground truth is the mask
minus its erosion, giving a thin band around every object.

:func:`bce_loss` and :func:`iou_loss` each record one graph node with a
closed-form backward.  Their forward keeps the operation order of the
plain elementwise formula, so loss values are bit-identical to it, and a
node keeps no per-pixel array beyond its inputs: the backward rebuilds
what it needs from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .layers import erode
from .tensor import Tensor, ShapeError, as_tensor, make_node

__all__ = [
    "LossConfig",
    "bce_loss",
    "iou_loss",
    "make_edge_gt",
    "multilevel_edge_loss",
    "multilevel_saliency_loss",
    "saliency_term",
    "total_loss_rgb",
    "total_loss_rgbd",
]

PROB_EPS = 1e-7
NUM_LEVELS = 4


@dataclass
class LossConfig:
    """Ablation switches over the loss stack."""

    use_bce: bool = True
    use_iou: bool = True
    use_edge: bool = True
    use_multilevel: bool = True

    def __post_init__(self):
        if not (self.use_bce or self.use_iou):
            raise ValueError("at least one of BCE / IoU must stay enabled")


def _pair(pred, target) -> tuple[Tensor, Tensor]:
    pred = as_tensor(pred)
    target = as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    return pred, target


def _per_image_axes(t: Tensor):
    """Reduce over everything but the leading batch axis (if 4-D)."""
    if t.ndim == 4:
        return (1, 2, 3)
    return None


def bce_loss(pred: Tensor, target) -> Tensor:
    """Mean binary cross entropy; probabilities clamped at 1e-7.

    The clamp passes gradient only where ``pred`` lies inside
    ``[PROB_EPS, 1 - PROB_EPS]``, both bounds included."""
    pred, target = _pair(pred, target)
    pd, td = pred.data, target.data
    lo, hi = PROB_EPS, 1.0 - PROB_EPS
    p = np.clip(pd, lo, hi)
    pix = td * np.log(p) + (1.0 - td) * np.log(1.0 - p)
    np.negative(pix, out=pix)
    axes = _per_image_axes(pred)
    value = pix.mean(axis=axes).mean() if axes else pix.mean()
    batch = pd.shape[0] if axes else 1
    count = pd.size // batch
    need_gp, need_gt = pred.requires_grad, target.requires_grad

    def bwd(g):
        # Scaled in the order of the elementwise chain (batch mean,
        # per-image mean, negation), which keeps the gradient bit-identical.
        gm = g * (1.0 / batch) * (1.0 / count) * -1.0
        p = np.clip(pd, lo, hi)
        q = 1.0 - p
        gp = gt = None
        if need_gp:
            gp = gm * td / p - gm * (1.0 - td) / q
            gp *= (pd >= lo) & (pd <= hi)
        if need_gt:
            gt = gm * np.log(p) - gm * np.log(q)
        return gp, gt

    return make_node(value, (pred, target), bwd)


def iou_loss(pred: Tensor, target) -> Tensor:
    """1 - smoothed soft IoU, computed per image and batch-averaged."""
    pred, target = _pair(pred, target)
    pd, td = pred.data, target.data
    axes = _per_image_axes(pred)
    inter = (pd * td).sum(axis=axes) + 1.0
    union = (pd + td - pd * td).sum(axis=axes) + 1.0
    loss = 1.0 - inter / union
    value = loss.mean() if axes else loss
    batch = pd.shape[0] if axes else 1
    need_gp, need_gt = pred.requires_grad, target.requires_grad

    def bwd(g):
        # d(1 - I/U) = -dI/U + I dU/U^2, per image, with dI = t dp and
        # dU = (1 - t) dp (and the same with p and t swapped).
        gr = -(g * (1.0 / batch))
        g_inter = gr / union
        g_union = -gr * inter / (union * union)
        if axes:
            g_inter = g_inter.reshape(-1, 1, 1, 1)
            g_union = g_union.reshape(-1, 1, 1, 1)

        def side(other):
            return g_inter * other + g_union * (1.0 - other)

        return (
            side(td) if need_gp else None,
            side(pd) if need_gt else None,
        )

    return make_node(value, (pred, target), bwd)


def make_edge_gt(mask: np.ndarray, radius: int = 1) -> np.ndarray:
    """Boundary band: mask minus its erosion, still binary."""
    mask = np.asarray(mask, dtype=np.float64)
    return mask - erode(mask, radius)


def saliency_term(pred: Tensor, target, use_bce: bool = True, use_iou: bool = True) -> Tensor:
    """Single-level saliency loss: BCE + IoU (either droppable for ablation)."""
    parts = []
    if use_bce:
        parts.append(bce_loss(pred, target))
    if use_iou:
        parts.append(iou_loss(pred, target))
    if not parts:
        raise ValueError("at least one of BCE / IoU must stay enabled")
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


def _check_levels(preds: Sequence[Tensor]) -> None:
    if len(preds) != NUM_LEVELS:
        raise ShapeError(f"expected {NUM_LEVELS} prediction levels, got {len(preds)}")


def multilevel_saliency_loss(
    preds: Sequence[Tensor],
    target,
    use_bce: bool = True,
    use_iou: bool = True,
) -> Tensor:
    """Saliency supervision summed over all four decoder levels."""
    _check_levels(preds)
    total = None
    for pred in preds:
        term = saliency_term(pred, target, use_bce, use_iou)
        total = term if total is None else total + term
    return total


def multilevel_edge_loss(preds: Sequence[Tensor], edge_target) -> Tensor:
    """Boundary supervision (BCE form) summed over all four levels."""
    _check_levels(preds)
    total = None
    for pred in preds:
        term = bce_loss(pred, edge_target)
        total = term if total is None else total + term
    return total


def total_loss_rgb(saliency_loss: Tensor, edge_loss: Tensor) -> Tensor:
    return (as_tensor(saliency_loss) + as_tensor(edge_loss)) / 2.0


def total_loss_rgbd(saliency_loss: Tensor, depth_loss: Tensor, edge_loss: Tensor) -> Tensor:
    return (as_tensor(saliency_loss) + as_tensor(depth_loss) + as_tensor(edge_loss)) / 3.0
