"""Layer vocabulary: convolution, batch norm, sampling ops, and erosion.

Convolutions use "same" zero padding (pad = dilation*(kernel-1)/2 per
side), so stride-1 layers preserve spatial dims and stride-s layers emit
ceil(H/s).  Forward passes never mutate parameters; updates are the
trainer's job.

A 1x1 stride-1 convolution is one batched matrix product on the NCHW
input.  A larger stride-1 convolution is a flat-shift implicit GEMM
(Chetlur et al., 2014): the input is copied once into a zero-padded
(B, C, Hp*Wp + slack) buffer whose rows lie end to end, where kernel tap
(i, j) is the contiguous slice at offset i*d*Wp + j*d, so the output is
the sum over taps of the tap's (O, C) weight times its slice, over H*Wp
columns of which the 2*pad past each row's end are dropped.  Its input
gradient is the same convolution of the upstream gradient by the
transposed taps in reverse order, and the weight gradient of a tap is the
upstream gradient, zero in the dropped columns, times the tap's slice.  A
tap that reads only padding (a small map under a large dilation) adds
exact zeros; it is skipped and its weight gradient is 0.  No array larger
than the padded input or the padded output is built.

A strided convolution works channels last: the input is copied once into
a zero-padded (B, Hp, Wp, C) buffer, and the patch matrix is copied out of
its sliding windows with columns in (kh, kw, C) order, so the copy moves
contiguous runs of C values.  The weight, stored (O, C, kh, kw), is
multiplied as its (O, kh*kw*C) reordering, giving the NCHW output
directly, and the backward pass adds the column gradient back into a
channels-last buffer one kernel tap at a time.

Backward keeps neither padded buffer nor patch matrix, which is kh*kw
times the input: it rebuilds them from the input, with the forward's copy,
for the weight gradient and frees them before the input gradient.  The
input gradient is computed only when the input requires one, so the stem
convs on the image and depth map skip it.

Train-mode batch norm is one graph node that keeps only the per-channel
mean and 1/sqrt(var + eps); its backward recomputes x_hat from the input,
in the forward's operation order, and applies the closed form
``gx = gamma*rstd*(g - mean(g) - x_hat*mean(g*x_hat))``.  Asked for a
following ReLU, it emits ``relu(bn(x))`` from the same node, whose backward
first masks the upstream by ``out > 0``; so conv -> BN -> ReLU keeps the
conv output and the block output and nothing else per pixel.

Upsampling is half-pixel bilinear by an integer factor; average pooling
by an integer factor is its downsampling counterpart.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import Tensor, ShapeError, make_node, relu

_relu = relu  # BatchNormLayer.forward's ``relu`` flag shadows the op

__all__ = [
    "BatchNormLayer",
    "Conv2dLayer",
    "ConvBnRelu",
    "DegenerateStatisticsError",
    "Module",
    "check_arrays",
    "conv2d",
    "downsample_avg",
    "erode",
    "resize_bilinear_np",
    "resize_nearest_np",
    "upsample",
]


class DegenerateStatisticsError(RuntimeError):
    """Train-mode batch norm was asked to normalize a single element."""


def _kaiming_std(fan_in: int) -> float:
    return float(np.sqrt(2.0 / fan_in))


class Module:
    """Base of every layer and block: derives parameters, buffers and
    checkpoint names from the instance's attributes.

    Attributes are walked in assignment order.  A ``Tensor`` that requires
    gradients is a parameter, an ``np.ndarray`` is a buffer (the batch-norm
    running statistics), and a ``Module`` is a child whose members are named
    ``attribute.member``.  Anything else, such as a config or ``None``, is
    skipped.  A class that keeps modules in a list names them in
    :meth:`_list_items`.
    """

    def _list_items(self, attr: str, items: list):
        """(name, module) for each module in list attribute ``attr``."""
        raise TypeError(f"{type(self).__name__}.{attr}: no names for list items")

    def _members(self, prefix: str = ""):
        """(name, owner, attribute, value) of every parameter and buffer."""
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._members(f"{prefix}{attr}.")
            elif isinstance(value, list):
                for name, item in self._list_items(attr, value):
                    yield from item._members(f"{prefix}{name}.")
            elif isinstance(value, np.ndarray) or (
                isinstance(value, Tensor) and value.requires_grad
            ):
                yield prefix + attr, self, attr, value

    def parameters(self, prefix: str = ""):
        """(name, tensor) of every trainable parameter, in walk order."""
        return ((n, v) for n, _, _, v in self._members(prefix) if isinstance(v, Tensor))

    def buffers(self, prefix: str = ""):
        """(name, array) of every non-trainable state array, in walk order."""
        return ((n, v) for n, _, _, v in self._members(prefix) if isinstance(v, np.ndarray))

    def param_dict(self) -> dict[str, Tensor]:
        return dict(self.parameters())

    def param_count(self) -> int:
        return sum(t.size for _, t in self.parameters())

    def export_arrays(self) -> dict[str, np.ndarray]:
        """Copies of every parameter, then every buffer, by checkpoint name."""
        arrays = {name: t.data.copy() for name, t in self.parameters()}
        arrays.update({name: arr.copy() for name, arr in self.buffers()})
        return arrays

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every parameter and buffer from ``arrays``, all or nothing.

        Every name and shape is checked before anything is assigned, so a
        ``KeyError`` or ``ShapeError`` leaves the module unchanged.
        """
        members = list(self._members())
        check_arrays(arrays, {name: value.shape for name, _, _, value in members})
        for name, owner, attr, value in members:
            loaded = np.array(arrays[name], dtype=np.float64, order="C")
            if isinstance(value, Tensor):
                value.data = loaded
            else:
                setattr(owner, attr, loaded)


def check_arrays(arrays: dict[str, np.ndarray], shapes: dict[str, tuple]) -> None:
    """``KeyError`` for a name in ``shapes`` that ``arrays`` lacks,
    ``ShapeError`` for an array whose shape differs."""
    for name, shape in shapes.items():
        if name not in arrays:
            raise KeyError(f"checkpoint missing {name!r}")
        if arrays[name].shape != shape:
            raise ShapeError(
                f"{name!r}: checkpoint shape {arrays[name].shape} != model shape {shape}"
            )


class Conv2dLayer(Module):
    """2-D convolution with odd kernel, same padding, stride and dilation."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        dilation: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        if kernel % 2 != 1 or kernel < 1:
            raise ValueError(f"kernel must be odd and positive, got {kernel}")
        if stride < 1 or dilation < 1:
            raise ValueError("stride and dilation must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.dilation = dilation
        rng = rng or np.random.default_rng(0)
        std = _kaiming_std(in_channels * kernel * kernel)
        self.weight = Tensor(
            rng.normal(0.0, std, (out_channels, in_channels, kernel, kernel)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self)


def conv2d(x: Tensor, layer: Conv2dLayer) -> Tensor:
    B, C, H, W = x.shape
    if C != layer.in_channels:
        raise ShapeError(
            f"conv2d: input has {C} channels, layer expects {layer.in_channels}"
        )
    k, s, d = layer.kernel, layer.stride, layer.dilation
    w, b = layer.weight, layer.bias

    if k == 1 and s == 1:
        return _conv1x1(x, w, b)
    if s == 1:
        return _conv_flat(x, w, b, k, d)

    O = layer.out_channels
    pad = d * (k - 1) // 2
    Hp, Wp = H + 2 * pad, W + 2 * pad
    Ho = (H - 1) // s + 1
    Wo = (W - 1) // s + 1
    wmat = w.data.transpose(0, 2, 3, 1).reshape(O, k * k * C)
    out = np.matmul(wmat, _patch_matrix(x.data, k, s, d).transpose(0, 2, 1))
    if b is not None:
        out += b.data[:, None]

    parents = (x, w) if b is None else (x, w, b)
    xd, need_gx, has_bias = x.data, x.requires_grad, b is not None

    def bwd(g):
        gm = g.reshape(B, O, Ho * Wo)
        # The patch matrix is rebuilt from the input rather than kept from
        # the forward pass: it is kh*kw times the input's size.
        cols = _patch_matrix(xd, k, s, d)
        gw = np.matmul(gm, cols).sum(axis=0).reshape(O, k, k, C).transpose(0, 3, 1, 2)
        del cols
        gx = None
        if need_gx:
            gcols = np.matmul(gm.transpose(0, 2, 1), wmat).reshape(B, Ho, Wo, k, k, C)
            gxp = np.zeros((B, Hp, Wp, C))
            for i in range(k):
                for j in range(k):
                    gxp[
                        :,
                        i * d : i * d + (Ho - 1) * s + 1 : s,
                        j * d : j * d + (Wo - 1) * s + 1 : s,
                    ] += gcols[:, :, :, i, j, :]
            gx = gxp[:, pad : pad + H, pad : pad + W, :].transpose(0, 3, 1, 2)
            gx = np.ascontiguousarray(gx)
        if not has_bias:
            return gx, gw
        return gx, gw, gm.sum(axis=(0, 2))

    return make_node(out.reshape(B, O, Ho, Wo), parents, bwd)


def _flat_padded(xd: np.ndarray, pad: int) -> np.ndarray:
    """(B, C, Hp*Wp + 2*pad) copy of the NCHW array ``xd`` under "same" zero
    padding, rows of width Wp laid end to end; the 2*pad slack columns let
    every tap's slice run over H*Wp columns."""
    B, C, H, W = xd.shape
    Hp, Wp = H + 2 * pad, W + 2 * pad
    xf = np.zeros((B, C, Hp * Wp + 2 * pad))
    xf[:, :, : Hp * Wp].reshape(B, C, Hp, Wp)[:, :, pad : pad + H, pad : pad + W] = xd
    return xf


def _live_taps(H: int, W: int, k: int, d: int) -> list[tuple[int, int, int]]:
    """(i, j, i*d*Wp + j*d) of every kernel tap that reads at least one
    input pixel; a tap whose rows or columns all fall in the padding adds
    exact zeros, so the flat-shift products skip it."""
    pad = d * (k - 1) // 2
    Wp = W + 2 * pad
    rows = [i for i in range(k) if abs(i * d - pad) < H]
    cols = [j for j in range(k) if abs(j * d - pad) < W]
    return [(i, j, i * d * Wp + j * d) for i in rows for j in cols]


def _shift_gemm(xd: np.ndarray, wt: np.ndarray, d: int) -> np.ndarray:
    """Stride-1 "same" convolution of the NCHW array ``xd`` by the
    (kh, kw, O, C) taps ``wt``, bias-free, as a flat-shift implicit GEMM.

    In the flat padded buffer, output pixel (r, c) sits at column r*Wp + c
    and tap (i, j) reads it at offset i*d*Wp + j*d, so each tap is one
    matrix product of its (O, C) weight with a contiguous slice of H*Wp
    columns, summed into the output one tap at a time.  The 2*pad columns
    of each row that fall past W are junk and are dropped.
    """
    B, C, H, W = xd.shape
    k, _, O, _ = wt.shape
    pad = d * (k - 1) // 2
    Wp = W + 2 * pad
    n = H * Wp
    (i0, j0, off0), *rest = _live_taps(H, W, k, d)
    xf = _flat_padded(xd, pad)
    acc = np.empty((B, O, n))
    tmp = np.empty((O, n))
    for bi in range(B):
        np.matmul(wt[i0, j0], xf[bi, :, off0 : off0 + n], out=acc[bi])
        for i, j, off in rest:
            np.matmul(wt[i, j], xf[bi, :, off : off + n], out=tmp)
            acc[bi] += tmp
    del xf, tmp
    return np.ascontiguousarray(acc.reshape(B, O, H, Wp)[:, :, :, :W])


def _conv_flat(x: Tensor, w: Tensor, b: Tensor | None, k: int, d: int) -> Tensor:
    """Stride-1 k x k convolution without a patch matrix (``_shift_gemm``).

    The input gradient is the same kind of convolution of the upstream
    gradient, by the transposed taps in reverse order.  The weight gradient
    of tap (i, j) is the upstream gradient, flattened to rows of width Wp
    with zeros in the junk columns, times the tap's slice of the input's
    flat buffer, which is rebuilt from the input rather than kept.
    """
    B, C, H, W = x.shape
    O = w.shape[0]
    pad = d * (k - 1) // 2
    Wp = W + 2 * pad
    n = H * Wp
    wt = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1))  # (kh, kw, O, C)
    out = _shift_gemm(x.data, wt, d)
    if b is not None:
        out += b.data[:, None, None]

    parents = (x, w) if b is None else (x, w, b)
    xd, need_gx, has_bias = x.data, x.requires_grad, b is not None

    def bwd(g):
        gf = np.zeros((B, O, H, Wp))
        gf[:, :, :, :W] = g
        gf = gf.reshape(B, O, n)
        xf = _flat_padded(xd, pad)
        gw = np.zeros((k, k, O, C))
        for i, j, off in _live_taps(H, W, k, d):
            gw[i, j] = np.matmul(gf, xf[:, :, off : off + n].transpose(0, 2, 1)).sum(axis=0)
        del gf, xf
        gw = np.ascontiguousarray(gw.transpose(2, 3, 0, 1))
        gx = None
        if need_gx:
            gx = _shift_gemm(g, wt[::-1, ::-1].transpose(0, 1, 3, 2), d)
        if not has_bias:
            return gx, gw
        return gx, gw, g.reshape(B, O, H * W).sum(axis=(0, 2))

    return make_node(out, parents, bwd)


def _patch_matrix(xd: np.ndarray, k: int, s: int, d: int) -> np.ndarray:
    """(B, Ho*Wo, k*k*C) patch matrix of the NCHW array ``xd`` under "same"
    zero padding, columns in (kh, kw, C) order."""
    B, C, H, W = xd.shape
    pad = d * (k - 1) // 2
    xp = np.zeros((B, H + 2 * pad, W + 2 * pad, C))
    xp[:, pad : pad + H, pad : pad + W, :] = xd.transpose(0, 2, 3, 1)
    eff = d * (k - 1) + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, (eff, eff), axis=(1, 2))
    # (B, Ho, Wo, C, kh, kw) windows -> (B, Ho, Wo, kh, kw, C) columns in one
    # copy that moves contiguous runs of C (of kw*C when dilation is 1).
    win = win[:, ::s, ::s, :, ::d, ::d].transpose(0, 1, 2, 4, 5, 3)
    Ho, Wo = win.shape[1:3]
    return np.ascontiguousarray(win).reshape(B, Ho * Wo, k * k * C)


def _conv1x1(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    B, C, H, W = x.shape
    O = w.shape[0]
    wmat = w.data.reshape(O, C)
    xd = x.data.reshape(B, C, H * W)
    out = np.matmul(wmat, xd)
    if b is not None:
        out += b.data[:, None]
    out = out.reshape(B, O, H, W)
    parents = (x, w) if b is None else (x, w, b)
    need_gx, has_bias = x.requires_grad, b is not None

    def bwd(g):
        gm = g.reshape(B, O, H * W)
        gx = np.matmul(wmat.T, gm).reshape(B, C, H, W) if need_gx else None
        gw = np.matmul(gm, xd.transpose(0, 2, 1)).sum(axis=0).reshape(O, C, 1, 1)
        if not has_bias:
            return gx, gw
        return gx, gw, gm.sum(axis=(0, 2))

    return make_node(np.ascontiguousarray(out), parents, bwd)


class BatchNormLayer(Module):
    """Per-channel batch normalization over (B, H, W).

    Train mode normalizes with batch statistics (biased variance) and
    updates the running estimates; eval mode uses the running estimates
    only, so its output is deterministic for a fixed input.  Either mode
    records one graph node.
    """

    epsilon = 1e-5
    momentum = 0.1

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: Tensor, training: bool, relu: bool = False) -> Tensor:
        """``bn(x)``, or ``relu(bn(x))`` when ``relu`` is set.

        In train mode the ReLU is part of the batch-norm node, whose
        backward masks its upstream by ``out > 0`` before the batch-norm
        closed form.  In eval mode it is a separate node.
        """
        B, C, H, W = x.shape
        if C != self.channels:
            raise ShapeError(f"batchnorm: {C} channels, layer has {self.channels}")
        if not training:
            out = self._eval_forward(x)
            return _relu(out) if relu else out
        if B * H * W < 2:
            raise DegenerateStatisticsError(
                "train-mode batch norm needs >= 2 elements per channel"
            )
        xd = x.data
        gamma = self.gamma.data.reshape(1, C, 1, 1)
        mu = xd.mean(axis=(0, 2, 3), keepdims=True)
        out = xd - mu
        var = (out * out).mean(axis=(0, 2, 3), keepdims=True)
        rstd = (var + self.epsilon) ** -0.5
        out *= rstd
        out *= gamma
        out += self.beta.data.reshape(1, C, 1, 1)
        if relu:
            # Byte-equal to tensor.relu: everything not > 0, NaN too, is +0.
            np.copyto(out, 0.0, where=~(out > 0))
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * mu.reshape(C)
        self.running_var = (1 - m) * self.running_var + m * var.reshape(C)
        inv_n = 1.0 / (B * H * W)

        def bwd(g):
            if relu:
                g = g * (out > 0)
            # x_hat is recomputed from the input, in the forward's order.
            xhat = xd - mu
            xhat *= rstd
            gbeta = g.sum(axis=(0, 2, 3))
            ggamma = (g * xhat).sum(axis=(0, 2, 3))
            gx = g - (gbeta * inv_n).reshape(1, C, 1, 1)
            xhat *= (ggamma * inv_n).reshape(1, C, 1, 1)
            gx -= xhat
            gx *= gamma * rstd
            return gx, ggamma, gbeta

        return make_node(out, (x, self.gamma, self.beta), bwd)

    def _eval_forward(self, x: Tensor) -> Tensor:
        """``((x - mean) * rstd) * gamma + beta`` with the running statistics,
        as one node computed in place on one buffer."""
        C = self.channels
        rm = self.running_mean.reshape(1, C, 1, 1)
        rstd = 1.0 / np.sqrt(self.running_var + self.epsilon).reshape(1, C, 1, 1)
        xd, gamma, beta = x.data, self.gamma.data, self.beta.data
        out = xd - rm
        out *= rstd
        out *= gamma.reshape(1, C, 1, 1)
        out += beta.reshape(1, C, 1, 1)

        def bwd(g):
            xhat = (xd - rm) * rstd
            gx = (g * gamma.reshape(1, C, 1, 1)) * rstd
            return gx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))

        return make_node(out, (x, self.gamma, self.beta), bwd)


class ConvBnRelu(Module):
    """conv -> batch norm -> ReLU, the basic projection block."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        dilation: int = 1,
        rng: np.random.Generator | None = None,
    ):
        self.conv = Conv2dLayer(
            in_channels, out_channels, kernel, stride, dilation, bias=False, rng=rng
        )
        self.bn = BatchNormLayer(out_channels)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return self.bn.forward(self.conv.forward(x), training, relu=True)


# -- resampling ----------------------------------------------------------


# The 1-D grids and matrices depend only on (n_in, n_out), so they are built
# once per size pair and shared read-only by every caller.


def _read_only(*arrays: np.ndarray):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=256)
def _interp_grid(n_in: int, n_out: int):
    """Source taps (i0, i1) and blend factor t for 1-D linear resampling
    with half-pixel centers."""
    if n_in == 1:
        z = np.zeros(n_out, dtype=np.intp)
        return _read_only(z, z, np.zeros(n_out))
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.intp)
    i0 = np.minimum(i0, n_in - 2)
    i1 = i0 + 1
    return _read_only(i0, i1, src - i0)


@lru_cache(maxsize=256)
def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    i0, i1, t = _interp_grid(n_in, n_out)
    m = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    np.add.at(m, (rows, i0), 1.0 - t)
    np.add.at(m, (rows, i1), t)
    m.flags.writeable = False
    return m


def upsample(x: Tensor, factor: int) -> Tensor:
    """Bilinear scaling of the spatial dims by an integer factor, with
    half-pixel centers; constants stay constant."""
    if factor < 1:
        raise ValueError("upsample factor must be >= 1")
    if factor == 1:
        return x
    B, C, H, W = x.shape
    Ho, Wo = H * factor, W * factor

    data = resize_bilinear_np(x.data, (Ho, Wo))

    def bwd(g):
        wr = _interp_matrix(H, Ho)
        wc = _interp_matrix(W, Wo)
        gz = np.tensordot(g, wc, axes=([3], [0]))          # (B, C, Ho, W)
        gx = np.tensordot(gz, wr, axes=([2], [0]))          # (B, C, W, H)
        return (np.ascontiguousarray(gx.transpose(0, 1, 3, 2)),)

    return make_node(np.ascontiguousarray(data), (x,), bwd)


def downsample_avg(x: Tensor, factor: int) -> Tensor:
    """Average pooling by an integer factor; dims must divide evenly."""
    if factor < 1:
        raise ValueError("downsample factor must be >= 1")
    if factor == 1:
        return x
    B, C, H, W = x.shape
    if H % factor or W % factor:
        raise ShapeError(f"downsample_avg: dims ({H}, {W}) not divisible by {factor}")
    Ho, Wo = H // factor, W // factor
    win = x.data.reshape(B, C, Ho, factor, Wo, factor)
    if factor & (factor - 1) == 0:
        # Pairwise halving: windows of equal values pool exactly.
        pooled = win
        while pooled.shape[3] > 1:
            pooled = 0.5 * (pooled[:, :, :, 0::2] + pooled[:, :, :, 1::2])
        while pooled.shape[5] > 1:
            pooled = 0.5 * (pooled[:, :, :, :, :, 0::2] + pooled[:, :, :, :, :, 1::2])
        data = pooled.reshape(B, C, Ho, Wo)
    else:
        data = win.mean(axis=(3, 5))
    inv = 1.0 / (factor * factor)

    def bwd(g):
        gw = np.broadcast_to(
            g[:, :, :, None, :, None] * inv, (B, C, Ho, factor, Wo, factor)
        )
        return (gw.reshape(B, C, H, W),)

    return make_node(np.ascontiguousarray(data), (x,), bwd)


# -- morphology ----------------------------------------------------------


def erode(mask: np.ndarray, radius: int = 1) -> np.ndarray:
    """Morphological erosion of a binary (H, W) mask.

    Structuring element is the (2*radius+1)^2 square; pixels outside the
    image count as 0, so a full-frame mask loses a radius-wide border.  The
    square's minimum is separable: a running minimum down the rows of the
    padded mask, then across its columns.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2:
        raise ShapeError("erode expects an (H, W) mask")
    if radius < 1:
        raise ValueError("erode radius must be >= 1")
    vals = np.unique(mask)
    if not np.all(np.isin(vals, (0.0, 1.0))):
        raise ValueError("erode expects a binary mask with values in {0, 1}")
    H, W = mask.shape
    padded = np.pad(mask, radius)
    rows = padded[:H].copy()
    for k in range(1, 2 * radius + 1):
        np.minimum(rows, padded[k : k + H], out=rows)
    out = rows[:, :W].copy()
    for k in range(1, 2 * radius + 1):
        np.minimum(out, rows[:, k : k + W], out=out)
    return out


# -- plain-numpy resizing (data pipeline, not autodiff) -------------------


def resize_bilinear_np(arr: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Bilinear resize of an (..., H, W) array to (..., Ho, Wo)."""
    H, W = arr.shape[-2:]
    Ho, Wo = out_hw
    if (H, W) == (Ho, Wo):
        return arr.copy()
    r0, r1, tr = _interp_grid(H, Ho)
    c0, c1, tc = _interp_grid(W, Wo)
    # a + t*(b - a) keeps constant inputs bit-exact.
    rows = arr[..., r0, :] + tr[:, None] * (arr[..., r1, :] - arr[..., r0, :])
    return rows[..., c0] + tc * (rows[..., c1] - rows[..., c0])


def resize_nearest_np(arr: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize; keeps binary masks binary."""
    H, W = arr.shape[-2:]
    Ho, Wo = out_hw
    if (H, W) == (Ho, Wo):
        return arr.copy()
    ri = np.clip(np.floor((np.arange(Ho) + 0.5) * H / Ho), 0, H - 1).astype(np.intp)
    ci = np.clip(np.floor((np.arange(Wo) + 0.5) * W / Wo), 0, W - 1).astype(np.intp)
    return arr[..., ri, :][..., ci]
