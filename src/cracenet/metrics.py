"""Saliency evaluation suite: PR curves, F-measures, MAE, Sm, Em.

Conventions (documented because the literature varies):

* Thresholding.  The 256-point PR curve binarizes at ``pred > t/256`` for
  t = 0..255, i.e. thresholds sample [0, 1) uniformly.  This keeps a
  prediction identical to its ground truth perfect at every threshold, so
  maxF and mean F are exactly 1 on identical maps.
* Aggregation.  PR counts accumulate dataset-wide per threshold, and the
  mean F-measure averages F over that curve.  maxF and mean F use
  beta^2 = 0.3.  Every other metric is the sorted-order mean of one
  per-image score.
* Weighted F uses beta^2 = 1 and a 7x7 Gaussian dependency kernel
  (sigma 5) whose border truncation is renormalized, so an all-miss
  prediction scores exactly 0 (Margolin et al. 2014).
  Its nearest-foreground search is separable: a pass down each column,
  then a minimum over the columns that hold foreground, so it costs
  O(H * W * #foreground columns) per image.
* Sm weights its object and region terms equally (Fan et al. 2017).
* Ground-truth maps with no foreground are skipped (and counted) by the
  F-family metrics; MAE, Sm and Em include them.
* ``evaluate_pairs`` evaluates each image once and aggregates the
  per-image rows, with the same values as the separate public functions.

All functions take equally long lists of float maps in [0, 1] and binary
masks (bool, integer or float) of the same shapes; each list pair is
checked once and converted to float64.  A non-finite or out-of-range
prediction, or a mask value other than 0 and 1, raises ``ValueError``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "MetricReport",
    "e_measure",
    "evaluate_dataset",
    "evaluate_pairs",
    "f_beta",
    "mae",
    "max_f",
    "mean_f",
    "pr_curve",
    "s_measure",
    "weighted_f",
]

NUM_THRESHOLDS = 256
THRESHOLDS = np.arange(NUM_THRESHOLDS) / NUM_THRESHOLDS
F_BETA_SQ = 0.3


class DatasetMismatchError(ValueError):
    """Prediction and ground-truth directories do not pair up."""


def _ordered_mean(values) -> float:
    """Mean accumulated in sorted order, so image order cannot perturb it."""
    return float(np.mean(np.sort(np.asarray(values, dtype=np.float64))))


@dataclass
class MetricReport:
    max_f: float
    mean_f: float
    weighted_f: float
    mae: float
    s_measure: float
    e_measure: float
    pr: np.ndarray  # (256, 2) precision/recall pairs
    per_image: list = field(default_factory=list)
    skipped_empty_gt: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "maxF": self.max_f,
            "mF": self.mean_f,
            "wF": self.weighted_f,
            "MAE": self.mae,
            "Sm": self.s_measure,
            "Em": self.e_measure,
        }

    def text_table(self) -> str:
        vals = self.as_dict()
        head = "  ".join(f"{k:>8s}" for k in vals)
        row = "  ".join(f"{v:8.4f}" for v in vals.values())
        return head + "\n" + row

    def delimited(self) -> str:
        lines = [f"{k}\t{v:.6f}" for k, v in self.as_dict().items()]
        lines.append(f"skipped_empty_gt\t{self.skipped_empty_gt}")
        return "\n".join(lines) + "\n"

    def pr_rows(self) -> str:
        return "\n".join(f"{p:.6f}\t{r:.6f}" for p, r in self.pr) + "\n"


def _checked_pairs(preds, gts) -> list[tuple[np.ndarray, np.ndarray]]:
    """Float64 (pred, gt) pairs after the empty, count, shape and value
    checks; every map is 2-D with at least one pixel."""
    if len(preds) == 0:
        raise ValueError("empty dataset")
    if len(preds) != len(gts):
        raise ValueError(f"{len(preds)} predictions vs {len(gts)} ground truths")
    pairs = [
        (np.asarray(p, dtype=np.float64), np.asarray(g, dtype=np.float64))
        for p, g in zip(preds, gts)
    ]
    for i, (p, g) in enumerate(pairs):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch: pred {p.shape} vs gt {g.shape}")
        if p.ndim != 2:
            raise ValueError(f"map {i} has shape {p.shape}, not (H, W)")
        if p.size == 0:
            raise ValueError(f"map {i} has no pixels: shape {p.shape}")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError(f"prediction {i} has values that are not finite or not in [0, 1]")
        if not np.all((g == 0.0) | (g == 1.0)):
            raise ValueError(f"ground truth {i} has values other than 0 and 1")
    return pairs


def _counts_per_threshold(pred: np.ndarray, fg: np.ndarray):
    """(TP, FP) at each threshold via sorted-value search; strict >."""
    fg_vals = np.sort(pred[fg], kind="stable")
    bg_vals = np.sort(pred[~fg], kind="stable")
    tp = fg_vals.size - np.searchsorted(fg_vals, THRESHOLDS, side="right")
    fp = bg_vals.size - np.searchsorted(bg_vals, THRESHOLDS, side="right")
    return tp.astype(np.float64), fp.astype(np.float64)


def _pr(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Precision and recall per threshold from dataset-wide counts."""
    # Integer-valued accumulators: exact, so image order is irrelevant, and
    # TP + FN is the foreground total at every threshold.
    tp_acc = np.zeros(NUM_THRESHOLDS)
    fp_acc = np.zeros(NUM_THRESHOLDS)
    n_fg = 0
    for pred, gt in pairs:
        fg = gt == 1
        if fg.any():
            tp, fp = _counts_per_threshold(pred, fg)
            tp_acc += tp
            fp_acc += fp
            n_fg += int(fg.sum())
    if n_fg == 0:
        raise ValueError("no ground-truth map contains foreground")
    denom = tp_acc + fp_acc
    precision = np.where(denom > 0, tp_acc / np.maximum(denom, 1), 1.0)
    return precision, tp_acc / n_fg


def pr_curve(preds, gts) -> tuple[np.ndarray, np.ndarray]:
    """256-point precision/recall arrays over the dataset."""
    return _pr(_checked_pairs(preds, gts))


def f_beta(precision, recall, beta_sq: float = F_BETA_SQ):
    """Precision-weighted F-score; 0 wherever the denominator vanishes."""
    precision = np.asarray(precision, dtype=np.float64)
    recall = np.asarray(recall, dtype=np.float64)
    denom = beta_sq * precision + recall
    num = (1.0 + beta_sq) * precision * recall
    out = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)
    return out if out.ndim else float(out)


def max_f(curve: tuple[np.ndarray, np.ndarray]) -> float:
    """Best F (beta^2 = 0.3) over the thresholds of a ``pr_curve``."""
    return float(np.max(f_beta(*curve)))


def mean_f(preds, gts) -> float:
    """F (beta^2 = 0.3) averaged over the 256-point threshold curve."""
    return float(np.mean(f_beta(*pr_curve(preds, gts))))


def _mae_single(pred: np.ndarray, gt: np.ndarray) -> float:
    return float(np.abs(pred - gt).mean())


def mae(preds, gts) -> float:
    """Mean over images of the per-image mean absolute error."""
    return _ordered_mean([_mae_single(p, g) for p, g in _checked_pairs(preds, gts)])


# -- weighted F-measure ---------------------------------------------------


def _gauss_kernel(size: int, sigma: float) -> np.ndarray:
    half = size // 2
    ax = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * sigma * sigma))
    return k / k.sum()


_WF_KERNEL = _gauss_kernel(7, 5.0)


def _conv_same(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    half = kernel.shape[0] // 2
    padded = np.pad(img, half)
    out = np.zeros_like(img)
    H, W = img.shape
    for i in range(kernel.shape[0]):
        for j in range(kernel.shape[1]):
            out += kernel[i, j] * padded[i : i + H, j : j + W]
    return out


@lru_cache(maxsize=16)
def _border_norm(shape: tuple[int, int]) -> np.ndarray:
    """``_conv_same`` of ones with the wF kernel: the kernel mass inside the
    image at each pixel.  Cached per shape, read-only."""
    norm = _conv_same(np.ones(shape), _WF_KERNEL)
    norm.flags.writeable = False
    return norm


def _nearest_fg(fg: np.ndarray):
    """Distance to and row-major-first index of the nearest foreground pixel.

    Squared distances are exact integers; ties resolve to the smallest
    (row, col) foreground pixel, keeping the result convention-stable.
    Separable: a column pass finds each column's nearest foreground row,
    then each pixel takes the best of the columns that hold foreground,
    which costs O(H * W * #foreground columns).
    """
    H, W = fg.shape
    rows = np.arange(H)[:, None]
    # Nearest foreground row in the same column, above and below; a missing
    # side reads as farther away than any real one.  The upper row wins ties.
    up = np.maximum.accumulate(np.where(fg, rows, -H), axis=0)
    down = np.minimum.accumulate(np.where(fg, rows, 2 * H)[::-1], axis=0)[::-1]
    col_r = np.where(rows - up <= down - rows, up, down)
    cols = np.flatnonzero(fg.any(axis=0))
    cand_r = col_r[:, cols]
    # One integer key orders by squared distance, then row, then column,
    # because row * W + col < H * W; its minimum decodes to all three.
    area = H * W
    row_key = (rows - cand_r) ** 2 * area + cand_r * W + cols
    col_key = (np.arange(W)[:, None] - cols) ** 2 * area
    key = np.empty((H, W), dtype=np.int64)
    chunk = max(1, 2_000_000 // (W * len(cols)))
    for start in range(0, H, chunk):
        block = row_key[start : start + chunk, None, :] + col_key
        key[start : start + chunk] = block.min(axis=2)
    d2, rest = np.divmod(key, area)
    near_r, near_c = np.divmod(rest, W)
    return np.sqrt(d2.astype(np.float64)), near_r, near_c


def _weighted_f_single(pred: np.ndarray, gt: np.ndarray) -> float | None:
    """wF of one image; None when its ground truth has no foreground."""
    fg = gt == 1
    if not fg.any():
        return None
    err = np.abs(pred - gt)
    dist, near_r, near_c = _nearest_fg(fg)
    dep_err = err.copy()
    dep_err[~fg] = err[near_r[~fg], near_c[~fg]]
    # Renormalized smoothing: rows of the dependency matrix sum to 1 even at
    # the border, so a uniformly missed object stays a full miss.
    smoothed = _conv_same(dep_err, _WF_KERNEL) / _border_norm(dep_err.shape)
    adjusted = err.copy()
    take = fg & (smoothed < err)
    adjusted[take] = smoothed[take]
    weight = np.ones_like(err)
    weight[~fg] = 2.0 - np.exp(np.log(0.5) / 5.0 * dist[~fg])
    weighted_err = adjusted * weight
    n_fg = fg.sum()
    tp = n_fg - weighted_err[fg].sum()
    fp = weighted_err[~fg].sum()
    recall = 1.0 - weighted_err[fg].mean()
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    return f_beta(precision, recall, 1.0)


def _fg_mean(scores: list[float | None]) -> tuple[float, int]:
    """Ordered mean of the wF scores and the number of empty-GT images
    (``None`` scores), which are skipped; at least one must have foreground."""
    kept = [s for s in scores if s is not None]
    skipped = len(scores) - len(kept)
    if skipped:
        logger.info("weighted F skipped %d empty-GT images", skipped)
    if not kept:
        raise ValueError("no ground-truth map contains foreground")
    return _ordered_mean(kept), skipped


def weighted_f(preds, gts) -> float:
    """Weighted F-measure averaged over images with foreground."""
    return _fg_mean([_weighted_f_single(p, g) for p, g in _checked_pairs(preds, gts)])[0]


# -- structure measure ------------------------------------------------------


def _s_object_half(region_vals: np.ndarray) -> float:
    x_mean = float(region_vals.mean())
    x_std = float(region_vals.std(ddof=1)) if region_vals.size > 1 else 0.0
    return 2.0 * x_mean / (x_mean * x_mean + 1.0 + x_std)


def _s_object(pred: np.ndarray, gt: np.ndarray) -> float:
    fg = gt == 1
    u = float(gt.mean())
    fg_score = _s_object_half(pred[fg]) if fg.any() else 0.0
    bg_score = _s_object_half(1.0 - pred[~fg]) if (~fg).any() else 0.0
    return u * fg_score + (1.0 - u) * bg_score


def _gt_centroid(gt: np.ndarray) -> tuple[int, int]:
    H, W = gt.shape
    total = gt.sum()
    rows = np.arange(H)
    cols = np.arange(W)
    cy = int(round(float((gt.sum(axis=1) * rows).sum() / total)))
    cx = int(round(float((gt.sum(axis=0) * cols).sum() / total)))
    return cy, cx


def _quadrants(arr: np.ndarray, cy: int, cx: int):
    # Centroid row/column belong to the top/left blocks.
    return (
        arr[: cy + 1, : cx + 1],
        arr[: cy + 1, cx + 1 :],
        arr[cy + 1 :, : cx + 1],
        arr[cy + 1 :, cx + 1 :],
    )


def _region_ssim(x: np.ndarray, y: np.ndarray) -> float:
    n = x.size
    if n == 0:
        return 0.0
    mx, my = float(x.mean()), float(y.mean())
    if n > 1:
        vx = float(((x - mx) ** 2).sum() / (n - 1))
        vy = float(((y - my) ** 2).sum() / (n - 1))
        cov = float(((x - mx) * (y - my)).sum() / (n - 1))
    else:
        vx = vy = cov = 0.0
    alpha = 4.0 * mx * my * cov
    beta = (mx * mx + my * my) * (vx + vy)
    if alpha != 0.0:
        return alpha / beta if beta != 0.0 else 0.0
    return 1.0 if beta == 0.0 else 0.0


def _s_region(pred: np.ndarray, gt: np.ndarray) -> float:
    cy, cx = _gt_centroid(gt)
    H, W = gt.shape
    gt_parts = _quadrants(gt, cy, cx)
    pred_parts = _quadrants(pred, cy, cx)
    total = float(H * W)
    score = 0.0
    for gp, pp in zip(gt_parts, pred_parts):
        score += (gp.size / total) * _region_ssim(pp, gp)
    return score


def _s_measure_single(pred: np.ndarray, gt: np.ndarray) -> float:
    mean_gt = float(gt.mean())
    if mean_gt == 0.0:  # no foreground: reward empty predictions
        return 1.0 - float(pred.mean())
    if mean_gt == 1.0:  # all foreground: reward full predictions
        return float(pred.mean())
    score = 0.5 * _s_object(pred, gt) + 0.5 * _s_region(pred, gt)
    return float(min(max(score, 0.0), 1.0))


def s_measure(preds, gts) -> float:
    """Structure measure: object- plus region-aware similarity."""
    return _ordered_mean([_s_measure_single(p, g) for p, g in _checked_pairs(preds, gts)])


# -- enhanced-alignment measure ----------------------------------------------


def _e_measure_single(pred: np.ndarray, gt: np.ndarray) -> float:
    if not (gt == 1).any():
        enhanced = 1.0 - pred
    elif (gt == 1).all():
        enhanced = pred
    else:
        bias_gt = gt - gt.mean()
        bias_pred = pred - pred.mean()
        align = 2.0 * bias_gt * bias_pred / (bias_gt**2 + bias_pred**2)
        enhanced = (align + 1.0) ** 2 / 4.0
    return float(enhanced.mean())


def e_measure(preds, gts) -> float:
    """Enhanced-alignment measure on bias-removed maps, mean over pixels."""
    return _ordered_mean([_e_measure_single(p, g) for p, g in _checked_pairs(preds, gts)])


# -- dataset-level aggregation ---------------------------------------------------


def evaluate_pairs(preds, gts, ids=None) -> MetricReport:
    """Full metric bundle over paired prediction / ground-truth lists.

    The inputs are checked once and each image is scored once; the
    dataset-level wF, MAE, Sm and Em are the ordered means of the per-image
    rows, which is exactly what ``weighted_f``, ``mae``, ``s_measure`` and
    ``e_measure`` return.  ``ids`` names the rows, one per pair (default
    ``"0"``, ``"1"``, ...); any other count raises ``ValueError``.
    """
    pairs = _checked_pairs(preds, gts)
    if ids is None:
        ids = [str(i) for i in range(len(pairs))]
    elif len(ids) != len(pairs):
        raise ValueError(f"evaluate_pairs: {len(ids)} ids for {len(pairs)} pairs")
    precision, recall = _pr(pairs)
    curve_f = f_beta(precision, recall)
    per_image_rows = []
    for name, (pred, gt) in zip(ids, pairs):
        row = {
            "id": name,
            "mae": _mae_single(pred, gt),
            "sm": _s_measure_single(pred, gt),
            "em": _e_measure_single(pred, gt),
        }
        wf = _weighted_f_single(pred, gt)
        if wf is not None:
            row["wf"] = wf
        per_image_rows.append(row)
    weighted, skipped = _fg_mean([row.get("wf") for row in per_image_rows])
    return MetricReport(
        max_f=float(np.max(curve_f)),
        mean_f=float(np.mean(curve_f)),
        weighted_f=weighted,
        mae=_ordered_mean([row["mae"] for row in per_image_rows]),
        s_measure=_ordered_mean([row["sm"] for row in per_image_rows]),
        e_measure=_ordered_mean([row["em"] for row in per_image_rows]),
        pr=np.stack([precision, recall], axis=1),
        per_image=per_image_rows,
        skipped_empty_gt=skipped,
    )


def evaluate_dataset(pred_dir, gt_dir) -> MetricReport:
    """Load matching grayscale maps from two directories and evaluate.

    Filenames (stems) must match exactly; any unmatched file on either
    side is an error, never silently skipped.
    """
    from .data import _load_gt, load_gray

    pred_dir, gt_dir = Path(pred_dir), Path(gt_dir)
    pred_files = {p.stem: p for p in sorted(pred_dir.glob("*.pgm"))}
    gt_files = {p.stem: p for p in sorted(gt_dir.glob("*.pgm"))}
    missing_gt = sorted(set(pred_files) - set(gt_files))
    missing_pred = sorted(set(gt_files) - set(pred_files))
    if missing_gt or missing_pred:
        raise DatasetMismatchError(
            f"unmatched files: no ground truth for {missing_gt}, "
            f"no prediction for {missing_pred}"
        )
    if not pred_files:
        raise ValueError("empty dataset")
    ids = sorted(pred_files)
    preds = [load_gray(pred_files[i]) for i in ids]
    gts = [_load_gt(gt_files[i]) for i in ids]
    return evaluate_pairs(preds, gts, ids)
