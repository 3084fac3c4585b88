"""Supervision stack: BCE, soft IoU, boundary targets, combined objectives.

Losses take probability maps (post-sigmoid) and binary ground truth.
Pixel terms are averaged per image and then over the batch, so the loss
scale does not grow with resolution; a 4-D input is a batch of images,
any other input one image.  Boundary ground truth is the mask minus its
erosion, giving a thin band around every object.  The objective,
:func:`total_loss`, is the mean of the saliency, depth-head and boundary
terms, for RGB and RGB-D alike.

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
    "total_loss",
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


def _pair(pred, target) -> tuple[Tensor, Tensor, int]:
    """Both as tensors of one shape, and their image count: the leading
    axis of a 4-D input; any other input is one image."""
    pred = as_tensor(pred)
    target = as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    return pred, target, pred.shape[0] if pred.ndim == 4 else 1


def bce_loss(pred: Tensor, target) -> Tensor:
    """Mean binary cross entropy; probabilities clamped at 1e-7.

    The clamp passes gradient only where ``pred`` lies inside
    ``[PROB_EPS, 1 - PROB_EPS]``, both bounds included."""
    pred, target, images = _pair(pred, target)
    pd, td = pred.data, target.data
    lo, hi = PROB_EPS, 1.0 - PROB_EPS
    p = np.clip(pd, lo, hi)
    pix = td * np.log(p) + (1.0 - td) * np.log(1.0 - p)
    np.negative(pix, out=pix)
    value = pix.reshape(images, -1).mean(axis=1).mean()
    count = pd.size // images
    need_gp, need_gt = pred.requires_grad, target.requires_grad

    def bwd(g):
        # Scaled in the order of the elementwise chain (batch mean,
        # per-image mean, negation), which keeps the gradient bit-identical.
        gm = g * (1.0 / images) * (1.0 / count) * -1.0
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
    pred, target, images = _pair(pred, target)
    pd, td = pred.data, target.data
    pf, tf = pd.reshape(images, -1), td.reshape(images, -1)
    inter = (pf * tf).sum(axis=1) + 1.0
    union = (pf + tf - pf * tf).sum(axis=1) + 1.0
    value = (1.0 - inter / union).mean()
    need_gp, need_gt = pred.requires_grad, target.requires_grad

    def bwd(g):
        # d(1 - I/U) = -dI/U + I dU/U^2, per image, with dI = t dp and
        # dU = (1 - t) dp (and the same with p and t swapped).
        gr = -(g * (1.0 / images))
        g_inter = (gr / union)[:, None]
        g_union = (-gr * inter / (union * union))[:, None]

        def side(other):
            other = other.reshape(images, -1)
            return (g_inter * other + g_union * (1.0 - other)).reshape(pd.shape)

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
    return _sum(parts)


def _sum(terms: Sequence[Tensor]) -> Tensor:
    """Sum of ``terms`` in the order given."""
    total = as_tensor(terms[0])
    for term in terms[1:]:
        total = total + term
    return total


def multilevel_saliency_loss(
    preds: Sequence[Tensor],
    target,
    use_bce: bool = True,
    use_iou: bool = True,
) -> Tensor:
    """Saliency supervision summed over all four decoder levels."""
    if len(preds) != NUM_LEVELS:
        raise ShapeError(f"expected {NUM_LEVELS} prediction levels, got {len(preds)}")
    return _sum([saliency_term(pred, target, use_bce, use_iou) for pred in preds])


def multilevel_edge_loss(preds: Sequence[Tensor], edge_target) -> Tensor:
    """Boundary supervision (BCE form) summed over all four levels."""
    return multilevel_saliency_loss(preds, edge_target, use_bce=True, use_iou=False)


def total_loss(*terms: Tensor) -> Tensor:
    """The objective: the mean of ``terms``, summed in the order given and
    divided once by their count."""
    if not terms:
        raise ValueError("total_loss needs at least one term")
    return _sum(terms) / float(len(terms))


def total_loss_rgb(saliency_loss: Tensor, edge_loss: Tensor) -> Tensor:
    return total_loss(saliency_loss, edge_loss)


def total_loss_rgbd(saliency_loss: Tensor, depth_loss: Tensor, edge_loss: Tensor) -> Tensor:
    return total_loss(saliency_loss, depth_loss, edge_loss)
