"""Layer vocabulary: convolution, batch norm, sampling ops, and erosion.

Convolutions use "same" zero padding (pad = dilation*(kernel-1)/2 per
side), so stride-1 layers preserve spatial dims and stride-s layers emit
ceil(H/s).  Forward passes never mutate parameters; updates are the
trainer's job.

A 1x1 stride-1 convolution is one batched matrix product on the NCHW
input.  Every other convolution is a flat-shift implicit GEMM (Chetlur et
al., 2014) over a polyphase copy of the zero-padded input.  With
R = (k-1)*d // s, phase (a, b) holds the padded pixels [a::s, b::s] as
rows of width Wq = Wo + R laid end to end, followed by R slack columns.
Output pixel (r, c) sits at column r*Wq + c, and kernel tap (i, j) reads
it from phase (i*d % s, j*d % s) at offset (i*d // s)*Wq + j*d // s, so
the output is the sum over taps of the tap's (O, C) weight times a
contiguous slice of Ho*Wq columns, of which the R past each row's end are
dropped.  Stride 1 is the one-phase case, and only the phases some tap
reads are copied: a 1x1 stride-2 convolution reads one of four.  A tap
that reads only padding (a small map under a large dilation) adds exact
zeros; it is skipped and its weight gradient is 0.

The weight gradient of a tap is the upstream gradient, zero in the
dropped columns, times the tap's slice.  The input gradient adds each
tap's transposed weight times that gradient into the tap's slice of a
phase-gradient buffer, in reverse tap order, and gathers the image
pixels back out.  Backward does not keep the polyphase copy: it rebuilds
it from the input for the weight gradient and frees it before the input
gradient, which is computed only when the input requires one, so the stem
convs on the image and depth map skip it.  No array larger than the
padded input or the padded output is built.

Batch norm is one graph node in train and eval mode alike; the mode picks
the statistics and nothing else.  Train mode uses the batch mean and
``(var + eps) ** -0.5`` and updates the running estimates; eval mode uses
the running estimates and ``1 / sqrt(running_var + eps)``.  The node keeps
only the per-channel mean and rstd; its backward recomputes x_hat from the
input, in the forward's operation order.  In train mode it applies the
closed form ``gx = gamma*rstd*(g - mean(g) - x_hat*mean(g*x_hat))``; in
eval mode the statistics are constants, and ``gx = (g*gamma)*rstd``.
Asked for a following ReLU, it emits ``relu(bn(x))`` from the same node,
through the one ReLU kernel of ``tensor``, and its backward first masks the
upstream by ``out > 0``; so conv -> BN -> ReLU keeps the conv output and
the block output and nothing else per pixel.

Upsampling is half-pixel bilinear by an integer factor; average pooling
by an integer factor is its downsampling counterpart.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import Tensor, ShapeError, _relu_, make_node

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
    C = x.shape[1]
    if C != layer.in_channels:
        raise ShapeError(
            f"conv2d: input has {C} channels, layer expects {layer.in_channels}"
        )
    if layer.kernel == 1 and layer.stride == 1:
        return _conv1x1(x, layer.weight, layer.bias)
    return _conv_flat(x, layer.weight, layer.bias, layer.kernel, layer.stride, layer.dilation)


def _live_taps(H: int, W: int, k: int, s: int, d: int):
    """(phases, taps): the (a, b) phases that live taps read, and (i, j, p,
    offset) of every tap that reads at least one input pixel, from phase
    ``phases[p]`` at ``offset``.

    Tap row i reads image rows o + s*r for r < Ho, o = i*d - pad; the first
    of them not above the image is max(o, o % s), so the row is live when
    that one is read and inside the image; likewise for columns.
    """
    pad = d * (k - 1) // 2
    Ho, Wo = (H - 1) // s + 1, (W - 1) // s + 1
    Wq = Wo + (k - 1) * d // s

    def live(o: int, n: int, n_out: int) -> bool:
        first = max(o, o % s)
        return first < n and first <= o + s * (n_out - 1)

    rows = [i for i in range(k) if live(i * d - pad, H, Ho)]
    cols = [j for j in range(k) if live(j * d - pad, W, Wo)]
    phases: dict[tuple[int, int], int] = {}
    taps = []
    for i in rows:
        for j in cols:
            p = phases.setdefault((i * d % s, j * d % s), len(phases))
            taps.append((i, j, p, (i * d // s) * Wq + j * d // s))
    return list(phases), taps


def _phase_slices(a: int, s: int, pad: int, n: int, nq: int) -> tuple[slice, slice]:
    """(phase rows, image rows) of phase ``a``, whose row u < ``nq`` is
    padded row a + s*u, image row a + s*u - pad if that is in [0, n)."""
    u0 = max(0, -((a - pad) // s))
    u1 = min(nq, max(u0, (n - 1 + pad - a) // s + 1))
    r0 = a + s * u0 - pad
    return slice(u0, u1), slice(r0, r0 + s * (u1 - u0), s)


class _Polyphase:
    """Shape of the (B, P, C, Hq*Wq + R) polyphase copy of a (B, C, H, W)
    input, P the number of phases that live taps read."""

    def __init__(self, shape: tuple, k: int, s: int, d: int):
        self.B, self.C, self.H, self.W = shape
        self.s, self.pad = s, d * (k - 1) // 2
        R = (k - 1) * d // s
        self.Ho, self.Wo = (self.H - 1) // s + 1, (self.W - 1) // s + 1
        self.Hq, self.Wq = self.Ho + R, self.Wo + R
        self.length = self.Hq * self.Wq + R
        self.phases, self.taps = _live_taps(self.H, self.W, k, s, d)

    def zeros(self) -> np.ndarray:
        return np.zeros((self.B, len(self.phases), self.C, self.length))

    def _pairs(self, buf: np.ndarray):
        """(phase view, phase index, image index) of each phase of ``buf``."""
        B, C, Hq, Wq = self.B, self.C, self.Hq, self.Wq
        for p, (a, b) in enumerate(self.phases):
            ru, rx = _phase_slices(a, self.s, self.pad, self.H, Hq)
            cv, cx = _phase_slices(b, self.s, self.pad, self.W, Wq)
            yield buf[:, p, :, : Hq * Wq].reshape(B, C, Hq, Wq), (ru, cv), (rx, cx)

    def copy_in(self, xd: np.ndarray) -> np.ndarray:
        buf = self.zeros()
        for view, phase_idx, image_idx in self._pairs(buf):
            view[(..., *phase_idx)] = xd[(..., *image_idx)]
        return buf

    def gather(self, buf: np.ndarray) -> np.ndarray:
        """The image pixels of ``buf``; those of phases no tap reads are 0."""
        out = np.zeros((self.B, self.C, self.H, self.W))
        for view, phase_idx, image_idx in self._pairs(buf):
            out[(..., *image_idx)] = view[(..., *phase_idx)]
        return out


def _conv_flat(x: Tensor, w: Tensor, b: Tensor | None, k: int, s: int, d: int) -> Tensor:
    """Flat-shift implicit GEMM over the polyphase copy of the input."""
    geo = _Polyphase(x.shape, k, s, d)
    B, C, O = geo.B, geo.C, w.shape[0]
    Ho, Wo, Wq, taps = geo.Ho, geo.Wo, geo.Wq, geo.taps
    n = Ho * Wq
    wt = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1))  # (kh, kw, O, C)

    xq = geo.copy_in(x.data)
    (i0, j0, p0, off0), *rest = taps
    acc = np.empty((B, O, n))
    tmp = np.empty((O, n))
    for bi in range(B):
        np.matmul(wt[i0, j0], xq[bi, p0, :, off0 : off0 + n], out=acc[bi])
        for i, j, p, off in rest:
            np.matmul(wt[i, j], xq[bi, p, :, off : off + n], out=tmp)
            acc[bi] += tmp
    del xq, tmp
    out = np.ascontiguousarray(acc.reshape(B, O, Ho, Wq)[:, :, :, :Wo])
    del acc
    if b is not None:
        out += b.data[:, None, None]

    parents = (x, w) if b is None else (x, w, b)
    # Backward repacks the weights only for the input gradient.  It may read
    # w.data then: parameters get new arrays, never in-place writes.
    xd, wd, need_gx, has_bias = x.data, w.data, x.requires_grad, b is not None

    def bwd(g):
        gf = np.zeros((B, O, Ho, Wq))
        gf[:, :, :, :Wo] = g
        gf = gf.reshape(B, O, n)
        xq = geo.copy_in(xd)
        gw = np.zeros((k, k, O, C))
        for i, j, p, off in taps:
            gw[i, j] = np.matmul(gf, xq[:, p, :, off : off + n].transpose(0, 2, 1)).sum(axis=0)
        del xq
        gw = np.ascontiguousarray(gw.transpose(2, 3, 0, 1))
        gx = None
        if need_gx:
            # Each tap's (C, n) product goes into rows of gq's length L whose
            # tails stay 0, so it is added to gq as one contiguous run: numpy
            # would copy a strided (C, n) target before adding in place.
            L = geo.length
            wt = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))
            gq = geo.zeros()
            gq_runs = gq.reshape(B, -1, C * L)
            tmp = np.zeros((C, L))
            run = (C - 1) * L + n
            for bi in range(B):
                for i, j, p, off in reversed(taps):
                    np.matmul(wt[i, j].T, gf[bi], out=tmp[:, :n])
                    gq_runs[bi, p, off : off + run] += tmp.reshape(-1)[:run]
            del gf, tmp, wt
            gx = geo.gather(gq)
        if not has_bias:
            return gx, gw
        return gx, gw, g.reshape(B, O, Ho * Wo).sum(axis=(0, 2))

    return make_node(out, parents, bwd)


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
        """``bn(x)``, or ``relu(bn(x))`` when ``relu`` is set, as one node.

        The mode picks the statistics and nothing else.  With ``relu`` set,
        the node's backward masks its upstream by ``out > 0`` before the
        batch-norm closed form.
        """
        B, C, H, W = x.shape
        if C != self.channels:
            raise ShapeError(f"batchnorm: {C} channels, layer has {self.channels}")
        xd = x.data
        gamma = self.gamma.data.reshape(1, C, 1, 1)
        if training:
            if B * H * W < 2:
                raise DegenerateStatisticsError(
                    "train-mode batch norm needs >= 2 elements per channel"
                )
            mu = xd.mean(axis=(0, 2, 3), keepdims=True)
            out = xd - mu
            var = (out * out).mean(axis=(0, 2, 3), keepdims=True)
            rstd = (var + self.epsilon) ** -0.5
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mu.reshape(C)
            self.running_var = (1 - m) * self.running_var + m * var.reshape(C)
        else:
            mu = self.running_mean.reshape(1, C, 1, 1)
            out = xd - mu
            rstd = 1.0 / np.sqrt(self.running_var + self.epsilon).reshape(1, C, 1, 1)
        out *= rstd
        out *= gamma
        out += self.beta.data.reshape(1, C, 1, 1)
        if relu:
            _relu_(out)

        def bwd(g):
            if relu:
                g = g * (out > 0)
            # x_hat is recomputed from the input, in the forward's order.
            xhat = xd - mu
            xhat *= rstd
            gbeta = g.sum(axis=(0, 2, 3))
            ggamma = (g * xhat).sum(axis=(0, 2, 3))
            if not training:
                # The running statistics are constants: no batch-mean terms.
                return (g * gamma) * rstd, ggamma, gbeta
            inv_n = 1.0 / (B * H * W)
            gx = g - (gbeta * inv_n).reshape(1, C, 1, 1)
            xhat *= (ggamma * inv_n).reshape(1, C, 1, 1)
            gx -= xhat
            gx *= gamma * rstd
            return gx, ggamma, gbeta

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

    return make_node(data, (x,), bwd)


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
    # a + t*(b - a) keeps constant inputs bit-exact.  ``np.take`` returns C
    # order, where fancy indexing on the last axis gives a transposed layout.
    a, b = np.take(arr, r0, axis=-2), np.take(arr, r1, axis=-2)
    rows = a + tr[:, None] * (b - a)
    a, b = np.take(rows, c0, axis=-1), np.take(rows, c1, axis=-1)
    return a + tc * (b - a)


def resize_nearest_np(arr: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize; keeps binary masks binary."""
    H, W = arr.shape[-2:]
    Ho, Wo = out_hw
    if (H, W) == (Ho, Wo):
        return arr.copy()
    ri = np.clip(np.floor((np.arange(Ho) + 0.5) * H / Ho), 0, H - 1).astype(np.intp)
    ci = np.clip(np.floor((np.arange(Wo) + 0.5) * W / Wo), 0, W - 1).astype(np.intp)
    return np.take(np.take(arr, ri, axis=-2), ci, axis=-1)
