"""Independent oracles: brute-force and dense-formula reference code.

Everything here is deliberately slow and literal (explicit loops, no
shared helpers with the library) so it can referee the fast paths.
"""

import json
import zlib

import numpy as np

from cracenet.tensor import as_tensor, backward, concat_channels, make_node, zero_grads


# -- finite differences -------------------------------------------------------


def central_diff(f, tensor, flat_idx: int, h: float) -> float:
    orig = tensor.data.flat[flat_idx]
    tensor.data.flat[flat_idx] = orig + h
    fp = f().item()
    tensor.data.flat[flat_idx] = orig - h
    fm = f().item()
    tensor.data.flat[flat_idx] = orig
    return (fp - fm) / (2.0 * h)


def check_gradients(
    f,
    tensors,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    h: float = 1e-5,
    max_coords: int = 150,
    rng: np.random.Generator | None = None,
) -> None:
    """Assert autodiff grads of the scalar ``f()`` match central differences.

    Checks every coordinate up to ``max_coords`` per tensor (beyond that a
    seeded random subset).  Coordinates that fail at the base step size are
    retried at smaller h: a genuine gradient bug persists, while a ReLU
    kink crossing inside the stencil disappears.
    """
    rng = rng or np.random.default_rng(0)
    loss = f()
    zero_grads(tensors)
    backward(loss)
    grads = [t.grad.copy() for t in tensors]
    for tensor, grad in zip(tensors, grads):
        n = tensor.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, max_coords, replace=False)
        for idx in coords:
            ad = grad.flat[idx]
            ok = False
            for step in (h, h / 10.0, h / 33.0):
                fd = central_diff(f, tensor, idx, step)
                if abs(ad - fd) <= atol + rtol * abs(fd):
                    ok = True
                    break
            assert ok, (
                f"gradient mismatch at coord {idx}: autodiff {ad!r} vs fd {fd!r} "
                f"(|diff|={abs(ad - fd):.3e})"
            )


def assert_rel_close(got, want, rtol=1e-12, scale=None):
    """Largest deviation within ``rtol`` of ``scale``, by default the largest
    reference magnitude."""
    assert got.shape == want.shape
    if scale is None:
        scale = np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= rtol * scale, (
        np.abs(got - want).max(), scale
    )


def backward_every_node(loss):
    """d(loss)/d(node) for every graph node that requires grad, keyed by node.

    The reverse-mode walk as it was before ``backward`` kept gradients on
    leaves only: every node, interior or leaf, receives a copy of its full
    upstream gradient, and every extra contribution is summed into a fresh
    array.  It touches no ``grad`` field.
    """
    root = loss._node
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p is not None and p not in seen:
                stack.append((p, False))
    grads = {}
    upstream = {root: np.ones_like(loss.data)}
    for node in reversed(order):
        g = upstream.pop(node, None)
        if g is None:
            continue
        grads[node] = g.copy()
        if node.backward_fn is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if pg is None or parent is None:
                continue
            upstream[parent] = upstream[parent] + pg if parent in upstream else pg
    return grads


# -- convolution by direct summation -------------------------------------------


def conv2d_bruteforce(x, w, b=None, stride=1, dilation=1):
    B, C, H, W = x.shape
    O, _, k, _ = w.shape
    pad = dilation * (k - 1) // 2
    eff = dilation * (k - 1) + 1
    Ho = (H + 2 * pad - eff) // stride + 1
    Wo = (W + 2 * pad - eff) // stride + 1
    out = np.zeros((B, O, Ho, Wo))
    for bi in range(B):
        for o in range(O):
            for y in range(Ho):
                for xx in range(Wo):
                    acc = 0.0
                    for c in range(C):
                        for i in range(k):
                            for j in range(k):
                                yy = y * stride + i * dilation - pad
                                xj = xx * stride + j * dilation - pad
                                if 0 <= yy < H and 0 <= xj < W:
                                    acc += w[o, c, i, j] * x[bi, c, yy, xj]
                    out[bi, o, y, xx] = acc + (b[o] if b is not None else 0.0)
    return out


def conv2d_grad_bruteforce(x, w, g, stride=1, dilation=1):
    """(gx, gw, gb) of ``conv2d_bruteforce`` for the upstream gradient ``g``,
    each output position handing its gradient to every tap it read."""
    B, C, H, W = x.shape
    O, _, k, _ = w.shape
    pad = dilation * (k - 1) // 2
    _, _, Ho, Wo = g.shape
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    gb = np.zeros(O)
    for bi in range(B):
        for o in range(O):
            for y in range(Ho):
                for xx in range(Wo):
                    go = g[bi, o, y, xx]
                    gb[o] += go
                    for c in range(C):
                        for i in range(k):
                            for j in range(k):
                                yy = y * stride + i * dilation - pad
                                xj = xx * stride + j * dilation - pad
                                if 0 <= yy < H and 0 <= xj < W:
                                    gx[bi, c, yy, xj] += w[o, c, i, j] * go
                                    gw[o, c, i, j] += x[bi, c, yy, xj] * go
    return gx, gw, gb


# -- ReLU by selection --------------------------------------------------------------


def relu_where(x):
    """ReLU as a selection: ``x`` where ``x > 0``, +0.0 everywhere else, so
    NaN and -0.0 give +0.0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, 0.0)


# -- batch norm as a composition of elementwise nodes -----------------------------


def batchnorm_train_composed(bn, x):
    """Train-mode batch norm of ``x`` as a graph of elementwise and
    reduction nodes: mean, centre, biased variance, ``(var+eps)**-0.5``,
    ``x_hat*gamma + beta``.

    Returns (output, new running mean, new running variance) and leaves
    ``bn`` unchanged.
    """
    C = x.shape[1]
    gamma = bn.gamma.reshape(1, C, 1, 1)
    beta = bn.beta.reshape(1, C, 1, 1)
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
    xhat = centered * (var + bn.epsilon) ** -0.5
    m = bn.momentum
    running_mean = (1 - m) * bn.running_mean + m * mu.data.reshape(C)
    running_var = (1 - m) * bn.running_var + m * var.data.reshape(C)
    return xhat * gamma + beta, running_mean, running_var


# -- channel attention as pooling, product, concat and 1x1 conv ------------------


def channel_attention_composed(module, fused):
    """CRACE stage 2 of ``module`` as the paper states it, one node per step:
    per-image channel means ``p``, ``p * fused``, the concatenation
    ``[p * fused, fused]`` and ``module.channel_reduce`` over it (the graph
    ``CraceModule.channel_attention`` replaced with one node)."""
    pooled = fused.mean(axis=(2, 3), keepdims=True)
    return module.channel_reduce.forward(concat_channels([pooled * fused, fused]))


# -- logistic by sign masks ---------------------------------------------------------


def sigmoid_masked(x):
    """The logistic as two masked branches, ``1/(1+exp(-x))`` where x >= 0
    and ``exp(x)/(1+exp(x))`` elsewhere, clamped to [tiny, 1 - 2**-53]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    y[~pos] = e / (1.0 + e)
    return np.clip(y, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))


# -- saliency losses as compositions of elementwise nodes ------------------------


def _clip_node(x, lo, hi):
    inside = (x.data >= lo) & (x.data <= hi)
    return make_node(np.clip(x.data, lo, hi), (x,), lambda g: (g * inside,))


def _log_node(x):
    xd = x.data
    return make_node(np.log(xd), (x,), lambda g: (g / xd,))


def bce_composed(pred, target, eps):
    """Mean BCE as a chain of clip, log, arithmetic and mean nodes, each
    averaging per image first when 4-D (the graph ``losses.bce_loss``
    replaced with one node)."""
    pred, target = as_tensor(pred), as_tensor(target)
    p = _clip_node(pred, eps, 1.0 - eps)
    pix = target * _log_node(p) + (1.0 - target) * _log_node(1.0 - p)
    if pred.ndim == 4:
        return (-pix).mean(axis=(1, 2, 3)).mean()
    return (-pix).mean()


def iou_composed(pred, target):
    """1 - (intersection + 1) / (union + 1) as a chain of arithmetic and sum
    nodes, per image and batch-averaged when 4-D."""
    pred, target = as_tensor(pred), as_tensor(target)
    axes = (1, 2, 3) if pred.ndim == 4 else None
    inter = (pred * target).sum(axis=axes)
    union = (pred + target - pred * target).sum(axis=axes)
    loss = 1.0 - (inter + 1.0) / (union + 1.0)
    return loss.mean() if axes else loss


# -- morphology -----------------------------------------------------------------


def erode_bruteforce(mask, radius=1):
    H, W = mask.shape
    out = np.zeros((H, W))
    for i in range(H):
        for j in range(W):
            keep = True
            for di in range(-radius, radius + 1):
                for dj in range(-radius, radius + 1):
                    y, x = i + di, j + dj
                    if not (0 <= y < H and 0 <= x < W) or mask[y, x] != 1:
                        keep = False
                        break
                if not keep:
                    break
            out[i, j] = 1.0 if keep else 0.0
    return out


def erode_windows(mask, radius=1):
    """``layers.erode`` as it was: the minimum of every (2r+1)^2 sliding
    window of the zero-padded mask."""
    side = 2 * radius + 1
    padded = np.pad(mask, radius)
    return np.lib.stride_tricks.sliding_window_view(padded, (side, side)).min(axis=(2, 3))


# -- bilinear interpolation, evaluated from the formula ----------------------------


def bilinear_point(img, y, x):
    """Sample (H, W) image at a continuous coordinate, edge-clamped."""
    H, W = img.shape
    y = min(max(y, 0.0), H - 1.0)
    x = min(max(x, 0.0), W - 1.0)
    y0, x0 = int(np.floor(y)), int(np.floor(x))
    y0, x0 = min(y0, H - 2) if H > 1 else 0, min(x0, W - 2) if W > 1 else 0
    y1, x1 = min(y0 + 1, H - 1), min(x0 + 1, W - 1)
    ty, tx = y - y0, x - x0
    top = img[y0, x0] * (1 - tx) + img[y0, x1] * tx
    bot = img[y1, x0] * (1 - tx) + img[y1, x1] * tx
    return top * (1 - ty) + bot * ty


def upsample_bruteforce(img, factor, align_corners):
    H, W = img.shape
    Ho, Wo = H * factor, W * factor
    out = np.zeros((Ho, Wo))
    for yo in range(Ho):
        for xo in range(Wo):
            if align_corners and Ho > 1:
                y = yo * (H - 1) / (Ho - 1)
                x = xo * (W - 1) / (Wo - 1)
            else:
                y = (yo + 0.5) / factor - 0.5
                x = (xo + 0.5) / factor - 0.5
            out[yo, xo] = bilinear_point(img, y, x)
    return out


# -- PR curve by exhaustive counting ---------------------------------------------


def pr_bruteforce(preds, gts):
    precision = np.zeros(256)
    recall = np.zeros(256)
    for t in range(256):
        tau = t / 256.0
        tp = fp = fn = 0
        for pred, gt in zip(preds, gts):
            if not (gt == 1).any():
                continue
            H, W = gt.shape
            for i in range(H):
                for j in range(W):
                    pos = pred[i, j] > tau
                    if gt[i, j] == 1:
                        if pos:
                            tp += 1
                        else:
                            fn += 1
                    elif pos:
                        fp += 1
        precision[t] = tp / (tp + fp) if tp + fp > 0 else 1.0
        recall[t] = tp / (tp + fn)
    return precision, recall


def f_beta_scalar(p, r, beta_sq=0.3):
    den = beta_sq * p + r
    return (1 + beta_sq) * p * r / den if den > 0 else 0.0


# -- weighted F-measure, dense transcription ----------------------------------------


def nearest_fg_bruteforce(fg):
    """Nearest foreground pixel by scanning every foreground pixel.

    Returns (dist, near_r, near_c) with the conventions of
    ``metrics._nearest_fg``: exact integer squared distances, ties to the
    row-major-first foreground pixel, foreground pixels pointing at
    themselves.
    """
    H, W = fg.shape
    fr, fc = np.nonzero(fg)
    br, bc = np.nonzero(~fg)
    dist = np.zeros((H, W))
    near_r = np.zeros((H, W), dtype=np.intp)
    near_c = np.zeros((H, W), dtype=np.intp)
    near_r[fg], near_c[fg] = fr, fc
    d2 = (br[:, None] - fr[None, :]) ** 2 + (bc[:, None] - fc[None, :]) ** 2
    idx = np.argmin(d2, axis=1)  # first minimum = row-major-first winner
    dist[br, bc] = np.sqrt(d2[np.arange(len(br)), idx].astype(np.float64))
    near_r[br, bc] = fr[idx]
    near_c[br, bc] = fc[idx]
    return dist, near_r, near_c


def weighted_f_bruteforce(pred, gt, sigma=5.0, ksize=7, beta_sq=1.0):
    H, W = gt.shape
    fg = [(i, j) for i in range(H) for j in range(W) if gt[i, j] == 1]
    err = np.abs(pred - gt)

    # substitute each background error with the error at its nearest
    # foreground pixel (ties: first in row-major order)
    dep = err.copy()
    dist = np.zeros((H, W))
    for i in range(H):
        for j in range(W):
            if gt[i, j] == 1:
                continue
            best_d2, best = None, None
            for (fi, fj) in fg:
                d2 = (i - fi) ** 2 + (j - fj) ** 2
                if best_d2 is None or d2 < best_d2:
                    best_d2, best = d2, (fi, fj)
            dep[i, j] = err[best]
            dist[i, j] = np.sqrt(best_d2)

    # dense row-normalized Gaussian dependency smoothing
    half = ksize // 2
    smoothed = np.zeros((H, W))
    for i in range(H):
        for j in range(W):
            num = den = 0.0
            for di in range(-half, half + 1):
                for dj in range(-half, half + 1):
                    y, x = i + di, j + dj
                    if 0 <= y < H and 0 <= x < W:
                        wgt = np.exp(-(di * di + dj * dj) / (2 * sigma * sigma))
                        num += wgt * dep[y, x]
                        den += wgt
            smoothed[i, j] = num / den

    adjusted = err.copy()
    for i, j in fg:
        if smoothed[i, j] < err[i, j]:
            adjusted[i, j] = smoothed[i, j]

    weight = np.ones((H, W))
    for i in range(H):
        for j in range(W):
            if gt[i, j] != 1:
                weight[i, j] = 2.0 - np.exp(np.log(0.5) / 5.0 * dist[i, j])

    ew = adjusted * weight
    n_fg = len(fg)
    tp = n_fg - sum(ew[i, j] for i, j in fg)
    fp = sum(ew[i, j] for i in range(H) for j in range(W) if gt[i, j] != 1)
    recall = 1.0 - sum(ew[i, j] for i, j in fg) / n_fg
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    if precision + recall <= 0:
        return 0.0
    return (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)


# -- structure measure, transcription -------------------------------------------------


def s_measure_bruteforce(pred, gt, alpha=0.5):
    H, W = gt.shape
    mean_gt = gt.mean()
    if mean_gt == 0.0:
        return 1.0 - pred.mean()
    if mean_gt == 1.0:
        return pred.mean()

    def object_half(vals):
        m = vals.mean()
        s = vals.std(ddof=1) if vals.size > 1 else 0.0
        return 2.0 * m / (m * m + 1.0 + s)

    fg = gt == 1
    so = mean_gt * object_half(pred[fg]) + (1 - mean_gt) * object_half(1.0 - pred[~fg])

    rows, cols = np.arange(H), np.arange(W)
    cy = int(round((gt.sum(axis=1) * rows).sum() / gt.sum()))
    cx = int(round((gt.sum(axis=0) * cols).sum() / gt.sum()))

    def ssim(x, y):
        n = x.size
        if n == 0:
            return 0.0
        mx, my = x.mean(), y.mean()
        if n > 1:
            vx = ((x - mx) ** 2).sum() / (n - 1)
            vy = ((y - my) ** 2).sum() / (n - 1)
            cov = ((x - mx) * (y - my)).sum() / (n - 1)
        else:
            vx = vy = cov = 0.0
        a = 4 * mx * my * cov
        b = (mx * mx + my * my) * (vx + vy)
        if a != 0:
            return a / b if b != 0 else 0.0
        return 1.0 if b == 0 else 0.0

    sr = 0.0
    for gslice, pslice in (
        (gt[: cy + 1, : cx + 1], pred[: cy + 1, : cx + 1]),
        (gt[: cy + 1, cx + 1 :], pred[: cy + 1, cx + 1 :]),
        (gt[cy + 1 :, : cx + 1], pred[cy + 1 :, : cx + 1]),
        (gt[cy + 1 :, cx + 1 :], pred[cy + 1 :, cx + 1 :]),
    ):
        sr += (gslice.size / (H * W)) * ssim(pslice, gslice)
    return min(max(alpha * so + (1 - alpha) * sr, 0.0), 1.0)


# -- enhanced-alignment measure, transcription ------------------------------------------


def e_measure_bruteforce(pred, gt):
    H, W = gt.shape
    if not (gt == 1).any():
        enhanced = 1.0 - pred
    elif (gt == 1).all():
        enhanced = pred
    else:
        mg, mp = gt.mean(), pred.mean()
        enhanced = np.zeros((H, W))
        for i in range(H):
            for j in range(W):
                bg = gt[i, j] - mg
                bp = pred[i, j] - mp
                align = 2.0 * bg * bp / (bg * bg + bp * bp)
                enhanced[i, j] = (align + 1.0) ** 2 / 4.0
    return enhanced.mean()


# -- checkpoint bytes -----------------------------------------------------------


def checkpoint_bytes(config, arrays):
    """The CRACEv1 file for ``config`` and ``arrays``, chunk by chunk and
    joined, as ``data.save_checkpoint`` first wrote it."""
    chunks = []
    cfg = json.dumps(config, sort_keys=True).encode()
    chunks.append(int(len(cfg)).to_bytes(4, "little"))
    chunks.append(cfg)
    chunks.append(int(len(arrays)).to_bytes(4, "little"))
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        nb = name.encode()
        chunks.append(len(nb).to_bytes(2, "little"))
        chunks.append(nb)
        chunks.append(bytes([arr.ndim]))
        for dim in arr.shape:
            chunks.append(int(dim).to_bytes(4, "little"))
        chunks.append(arr.astype("<f8").tobytes())
    payload = b"".join(chunks)
    crc = zlib.crc32(payload)
    return b"CRACEv1\x00" + payload + int(crc).to_bytes(4, "little")
