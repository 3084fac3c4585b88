"""Layer vocabulary: convolution, batch norm, sampling ops, and erosion.

Convolutions use "same" zero padding (pad = dilation*(kernel-1)/2 per
side), so stride-1 layers preserve spatial dims and stride-s layers emit
ceil(H/s).  Forward passes never mutate parameters; updates are the
trainer's job.

A 1x1 stride-1 convolution is one batched matrix product on the NCHW
input.  Every other convolution works channels last: the input is copied
once into a zero-padded (B, Hp, Wp, C) buffer, and the patch matrix is
copied out of its sliding windows with columns in (kh, kw, C) order, so
the copy moves contiguous runs of C values.  The weight, stored
(O, C, kh, kw), is multiplied as its (O, kh*kw*C) reordering, giving the
NCHW output directly, and the backward pass adds the column gradient back
into a channels-last buffer one kernel tap at a time.  Backward keeps
neither the padded buffer nor the patch matrix, which is kh*kw times the
input: it rebuilds the matrix from the input for the weight gradient, with
the same copy as the forward pass, and frees it before the input gradient.
The input gradient is computed only when the input requires one, so the
stem convs on the image and depth map skip it.

Train-mode batch norm is one graph node that keeps only the normalized
input x_hat and the per-channel 1/sqrt(var + eps); its backward is the
closed form ``gx = gamma*rstd*(g - mean(g) - x_hat*mean(g*x_hat))``.

Upsampling is half-pixel bilinear by an integer factor; average pooling
by an integer factor is its downsampling counterpart.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import Tensor, ShapeError, make_node, relu

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
    need_gx = x.requires_grad

    def bwd(g):
        gm = g.reshape(B, O, Ho * Wo)
        # The patch matrix is rebuilt from the input rather than kept from
        # the forward pass: it is kh*kw times the input's size.
        cols = _patch_matrix(x.data, k, s, d)
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
        if b is None:
            return gx, gw
        return gx, gw, gm.sum(axis=(0, 2))

    return make_node(out.reshape(B, O, Ho, Wo), parents, bwd)


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
    need_gx = x.requires_grad

    def bwd(g):
        gm = g.reshape(B, O, H * W)
        gx = np.matmul(wmat.T, gm).reshape(B, C, H, W) if need_gx else None
        gw = np.matmul(gm, xd.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        if b is None:
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

    def forward(self, x: Tensor, training: bool) -> Tensor:
        B, C, H, W = x.shape
        if C != self.channels:
            raise ShapeError(f"batchnorm: {C} channels, layer has {self.channels}")
        if not training:
            return self._eval_forward(x)
        if B * H * W < 2:
            raise DegenerateStatisticsError(
                "train-mode batch norm needs >= 2 elements per channel"
            )
        gamma = self.gamma.data.reshape(1, C, 1, 1)
        mu = x.data.mean(axis=(0, 2, 3), keepdims=True)
        xhat = x.data - mu
        var = (xhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
        rstd = (var + self.epsilon) ** -0.5
        xhat *= rstd
        out = xhat * gamma
        out += self.beta.data.reshape(1, C, 1, 1)
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * mu.reshape(C)
        self.running_var = (1 - m) * self.running_var + m * var.reshape(C)
        inv_n = 1.0 / (B * H * W)

        def bwd(g):
            gbeta = g.sum(axis=(0, 2, 3))
            ggamma = (g * xhat).sum(axis=(0, 2, 3))
            gx = g - (gbeta * inv_n).reshape(1, C, 1, 1)
            gx -= xhat * (ggamma * inv_n).reshape(1, C, 1, 1)
            gx *= gamma * rstd
            return gx, ggamma, gbeta

        return make_node(out, (x, self.gamma, self.beta), bwd)

    def _eval_forward(self, x: Tensor) -> Tensor:
        """``((x - mean) * rstd) * gamma + beta`` with the running statistics,
        as one node computed in place on one buffer."""
        C = self.channels
        rm = self.running_mean.reshape(1, C, 1, 1)
        rstd = 1.0 / np.sqrt(self.running_var + self.epsilon).reshape(1, C, 1, 1)
        gamma, beta = self.gamma.data, self.beta.data
        out = x.data - rm
        out *= rstd
        out *= gamma.reshape(1, C, 1, 1)
        out += beta.reshape(1, C, 1, 1)

        def bwd(g):
            xhat = (x.data - rm) * rstd
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
        return relu(self.bn.forward(self.conv.forward(x), training))


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
    image count as 0, so a full-frame mask loses a radius-wide border.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2:
        raise ShapeError("erode expects an (H, W) mask")
    if radius < 1:
        raise ValueError("erode radius must be >= 1")
    vals = np.unique(mask)
    if not np.all(np.isin(vals, (0.0, 1.0))):
        raise ValueError("erode expects a binary mask with values in {0, 1}")
    side = 2 * radius + 1
    padded = np.pad(mask, radius)
    win = np.lib.stride_tricks.sliding_window_view(padded, (side, side))
    return win.min(axis=(2, 3))


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
