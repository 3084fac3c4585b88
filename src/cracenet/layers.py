"""Layer vocabulary: convolution, batch norm, sampling ops, and erosion.

Convolutions use "same" zero padding (pad = dilation*(kernel-1)/2 per
side), so stride-1 layers preserve spatial dims and stride-s layers emit
ceil(H/s).  Forward passes never mutate parameters; updates are the
trainer's job.

Every convolution is a flat-shift implicit GEMM (Chetlur et al., 2014)
over a polyphase copy of the zero-padded input.  With R = (k-1)*d // s,
phase (a, b) holds the padded pixels [a::s, b::s] as rows of width
Wq = Wo + R laid end to end, followed by R slack columns.  Output pixel
(r, c) sits at column r*Wq + c, and kernel tap (i, j) reads it from phase
(i*d % s, j*d % s) at offset (i*d // s)*Wq + j*d // s, so the output is
the sum over taps of the tap's (O, C) weight times a contiguous slice of
Ho*Wq columns, of which the R past each row's end are dropped.  Stride 1
is the one-phase case, and only the phases some tap reads are copied: a
1x1 stride-2 convolution reads one of four, and a 1x1 stride-1 one, with
no padding, reads the input itself, uncopied.  A tap that reads only
padding (a small map under a large dilation) adds exact zeros; it is
skipped and its weight gradient is 0.

The live taps are summed in tap groups, and the group rule depends on the
shape alone: all live taps form one group when there are several and
O >= 4*C, and each tap is its own group otherwise.  Each pass is one loop
over (image, block of whole output rows, group) with one product per
group.  A group of T taps multiplies its (O, T*C) weights, a view of one
pack of the live taps' weights made once per call, by its (T*C, rows*Wq)
operand: a lone tap's slice of the image's polyphase copy, read in place,
or a stacked group's slices copied side by side into a workspace, the
row-wise lowering of MEC (Cho & Brand, 2017) applied to the flat shift.
The first group's product goes into an accumulator of the block's columns
and each later one is added to it, so lone taps are summed tap by tap, to
the bit as always.  When R = 0 (every 1x1 convolution) the block's columns
are its output rows, which are the accumulator; otherwise the block's sum
is copied into them.  Lone taps copy nothing, so each image is one block.
A stacked group's rows are cut into the fewest blocks that keep its
workspace within one image's polyphase copy, so one padded input, and
within 2**16 values, which stay in a core's L2 cache; a block holds at
least one row.  Stacking reorders each output's sum, which moves its last
bits.  In fresh processes on one core with OpenBLAS, stacking took the
batch-2 depth stem (C1 -> O16, 256x256, stride 2) forward from 13-21 to
about 1 ms, the RGB stem (C3) from 9-11 to about 2 ms and C16 -> O64 at
64x64 from 10-12 to 4-6 ms; on C16 -> O16, C32 -> O64 and C64 -> O64 it
did not pay reliably (``BENCH_conv.json``).  Everything derived from the
shapes alone (sizes, live taps, phases and their slices, tap groups and
row blocks) is a ``_ConvPlan``, built once per (input shape, output
channels, kernel, stride, dilation) and cached, as the resampling grids
are.

Backward runs the same loop twice.  The weight gradient of a group sums,
over images and blocks, the block's upstream gradient, zero in the dropped
columns (a view of the upstream gradient when R = 0), times the group's
operand.  The input gradient multiplies each group's transposed weights by
the same blocks, in reverse group order, and adds each tap's rows of the
product into the tap's slice of a phase-gradient buffer, in reverse tap
order, then gathers the image pixels back out; a single live tap's product
is written into its slice, which no two blocks share.  Backward does not
keep the polyphase copy: it rebuilds it from the input for the weight
gradient and frees it before the input gradient, which is computed only
when the input requires one, so the stem convs on the image and depth map
skip it.  No array larger than the padded input or the padded output is
built, and the accumulator and the zero-padded upstream gradient exist one
block at a time.  The weight gradient of a run of input channels reads only
those channels, so an input marked with a recipe (:class:`_Rebuild`) is not
kept at all: backward rebuilds it one channel piece at a time.  The CRACE
module marks the summed projections that feed its cross-attention conv,
the upsampled global map that feeds ``proj_global`` and the gated global
half of ``fuse_reduce``'s concatenation.

Batch norm is one graph node in train and eval mode alike; the mode picks
the statistics and nothing else.  Train mode uses the batch mean and
``(var + eps) ** -0.5`` and updates the running estimates; eval mode uses
the running estimates and ``1 / sqrt(running_var + eps)``.  The node keeps
only the per-channel mean and rstd; its backward rebuilds x_hat from the
input, in the forward's operation order.  In train mode it applies the
closed form ``gx = gamma*rstd*(g - mean(g) - x_hat*mean(g*x_hat))``; in
eval mode the statistics are constants, and ``gx = (g*gamma)*rstd``.
Asked for a following ReLU, it emits ``relu(bn(x))`` from the same node,
through the one ReLU kernel of ``tensor``, and its backward first masks the
upstream by ``out > 0``; so conv -> BN -> ReLU keeps the conv output and
the block output and nothing else per pixel.  Only that mask reads the
output, so without the ReLU (``bn2`` and ``skip_bn`` of a residual block)
the node keeps the input alone.

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


# Values in a stacked group's workspace at most: 512 KiB of float64, which
# stays in a core's L2 cache.
_WORKSPACE_VALUES = 1 << 16


def _stacks_taps(C: int, O: int, live: int) -> bool:
    """The group rule: all ``live`` taps of a C -> O convolution form one
    group when there are several and O >= 4*C; otherwise each tap is its
    own group.  Stacking paid on the few-channel classes of
    ``BENCH_conv.json`` (C1 and C3 -> O16, C16 -> O64) and not reliably on
    any class with O < 4*C (C16 -> O16, C32 -> O64, C64 -> O64)."""
    return live > 1 and O >= 4 * C


class _ConvPlan:
    """What a flat-shift convolution of a (B, C, H, W) input to O channels
    derives from the shapes alone: output and polyphase sizes, live taps,
    the phases they read with each phase's (phase, image) slices, the tap
    groups as (first tap, tap count) and the row blocks every group runs
    over.  Built once per shape by :func:`_conv_plan` and shared read-only
    by every call."""

    def __init__(self, shape: tuple, O: int, k: int, s: int, d: int):
        B, C, H, W = self.B, self.C, self.H, self.W = shape
        pad, R = d * (k - 1) // 2, (k - 1) * d // s
        self.Ho, self.Wo = (H - 1) // s + 1, (W - 1) // s + 1
        self.Hq, self.Wq = self.Ho + R, self.Wo + R
        self.length = self.Hq * self.Wq + R
        phases, self.taps = _live_taps(H, W, k, s, d)
        self.phases = len(phases)
        # With no padding and stride 1 the one phase is the input itself.
        self.in_place = pad == 0 and s == 1
        # The live taps' columns of a (O, C, k*k) weight.
        self.columns = [i * k + j for i, j, _, _ in self.taps]
        # Per phase p: the (rows, cols) index of its (B, C, Hq, Wq) view and
        # of the image pixels it holds.
        self.copies = []
        for p, (a, b) in enumerate(phases):
            ru, rx = _phase_slices(a, s, pad, H, self.Hq)
            cv, cx = _phase_slices(b, s, pad, W, self.Wq)
            self.copies.append((p, (..., ru, cv), (..., rx, cx)))
        T = len(self.taps)
        self.stacked = _stacks_taps(C, O, T)
        self.groups = [(0, T)] if self.stacked else [(t, 1) for t in range(T)]
        # Rows of the workspace that a stacked group copies its slices into;
        # a lone tap's slice is read in place.
        self.copied = T * C if self.stacked else 0
        # Every group runs over blocks of whole output rows, so that each
        # block's product lands in its rows of the output.  Lone taps copy
        # nothing, so each image is one block.  A stacked group's workspace
        # of (T*C, rows*Wq) values is at most one image's polyphase copy and
        # at most _WORKSPACE_VALUES; the rows are cut into the fewest blocks
        # that allows, of near-equal height, and a block holds at least one
        # row.
        count = 1
        if self.stacked:
            budget = min(self.phases * C * self.length, _WORKSPACE_VALUES)
            count = -(-self.Ho // max(1, budget // (T * C * self.Wq)))
        rows = -(-self.Ho // count)
        self.blocks = [(r0, min(r0 + rows, self.Ho)) for r0 in range(0, self.Ho, rows)]
        self.block_rows = rows

    def zeros(self, C: int | None = None) -> np.ndarray:
        return np.zeros((self.B, self.phases, C or self.C, self.length))

    def _view(self, buf: np.ndarray, p: int) -> np.ndarray:
        return buf[:, p, :, : self.Hq * self.Wq].reshape(self.B, -1, self.Hq, self.Wq)

    def copy_in(self, xd: np.ndarray) -> np.ndarray:
        """The polyphase copy of ``xd``, all of the input's channels or a
        run of them."""
        C = xd.shape[1]
        if self.in_place:
            return xd.reshape(self.B, 1, C, self.length)
        buf = self.zeros(C)
        for p, phase_idx, image_idx in self.copies:
            self._view(buf, p)[phase_idx] = xd[image_idx]
        return buf

    def gather(self, buf: np.ndarray) -> np.ndarray:
        """The image pixels of ``buf``; those of phases no tap reads are 0."""
        if self.in_place:
            return buf.reshape(self.B, self.C, self.H, self.W)
        out = np.zeros((self.B, self.C, self.H, self.W))
        for p, phase_idx, image_idx in self.copies:
            out[image_idx] = self._view(buf, p)[phase_idx]
        return out

    def group_weights(self, wd: np.ndarray) -> list:
        """Each group's (O, T*C) weight matrix, in group order: a view of
        one (O, taps*C) pack of the live taps' weights, in a layout BLAS
        reads in place.  Each output channel's (C, k*k) block is transposed
        where it lies, in cache."""
        O, C = wd.shape[:2]
        w3 = wd.reshape(O, C, -1)
        if len(self.columns) < w3.shape[2]:
            w3 = w3[:, :, self.columns]
        flat = np.ascontiguousarray(w3.transpose(0, 2, 1)).reshape(O, -1)
        return [flat[:, t0 * C : (t0 + T) * C] for t0, T in self.groups]

    def operands(self, ws: np.ndarray, xq_b: np.ndarray, r0: int, r1: int):
        """Each group's (T*C, (r1-r0)*Wq) operand for output rows [r0, r1)
        of one image's polyphase copy ``xq_b`` of C channels, in group
        order: a lone tap's slice, read in place, or a stacked group's
        slices copied into ``ws`` as it is reached."""
        C, c0, c1 = xq_b.shape[1], r0 * self.Wq, r1 * self.Wq
        for t0, T in self.groups:
            if T == 1:
                _, _, p, off = self.taps[t0]
                yield xq_b[p, :, off + c0 : off + c1]
                continue
            for t, (_, _, p, off) in enumerate(self.taps[t0 : t0 + T]):
                ws[t * C : (t + 1) * C, : c1 - c0] = xq_b[p, :, off + c0 : off + c1]
            yield ws[: T * C, : c1 - c0]

    def workspace(self, rows: int) -> np.ndarray:
        return np.empty((rows, self.block_rows * self.Wq))

    def upstream_blocks(self, g: np.ndarray, buf: np.ndarray | None):
        """(image, r0, r1, (O, (r1-r0)*Wq) block of the upstream gradient
        ``g`` laid out as the product's columns, 0 in the dropped ones), for
        each image and row block.  With R = 0 there are no dropped columns
        and a block is a view of ``g``; otherwise it is written into
        ``buf``, an (O, block_rows, Wq) array whose columns past Wo are 0."""
        O, Wo = g.shape[1], self.Wo
        for bi in range(self.B):
            for r0, r1 in self.blocks:
                if buf is None:
                    yield bi, r0, r1, g[bi, :, r0:r1].reshape(O, -1)
                    continue
                buf[:, : r1 - r0, :Wo] = g[bi, :, r0:r1]
                yield bi, r0, r1, buf[:, : r1 - r0].reshape(O, -1)


@lru_cache(maxsize=512)
def _conv_plan(shape: tuple, O: int, k: int, s: int, d: int) -> _ConvPlan:
    return _ConvPlan(shape, O, k, s, d)


def _conv_flat(x: Tensor, w: Tensor, b: Tensor | None, k: int, s: int, d: int) -> Tensor:
    """Flat-shift implicit GEMM over the polyphase copy of the input: per
    image and row block, one product per tap group."""
    plan = _conv_plan(x.shape, w.shape[0], k, s, d)
    B, C, O = plan.B, plan.C, w.shape[0]
    Ho, Wo, Wq, taps = plan.Ho, plan.Wo, plan.Wq, plan.taps

    # The first group's product goes straight into the block's accumulator;
    # each later group's is added to it.  With R = 0 (Wq = Wo) a block's
    # columns are its output rows, which are the accumulator; otherwise the
    # block's sum is copied into them.
    xq = plan.copy_in(x.data)
    w0, *rest = plan.group_weights(w.data)
    ws = plan.workspace(plan.copied)
    acc = None if Wq == Wo else np.empty((O, plan.block_rows * Wq))
    tmp = np.empty((O, plan.block_rows * Wq)) if rest else None
    out = np.empty((B, O, Ho, Wo))
    for bi in range(B):
        for r0, r1 in plan.blocks:
            m = (r1 - r0) * Wq
            a = out[bi, :, r0:r1].reshape(O, m) if acc is None else acc[:, :m]
            t = tmp[:, :m] if rest else None
            operands = plan.operands(ws, xq[bi], r0, r1)
            np.matmul(w0, next(operands), out=a)
            for wg, operand in zip(rest, operands):
                a += np.matmul(wg, operand, out=t)
            if acc is not None:
                out[bi, :, r0:r1] = a.reshape(O, r1 - r0, Wq)[:, :, :Wo]
    if b is not None:
        out += b.data[:, None, None]

    parents = (x, w) if b is None else (x, w, b)
    # Backward repacks the weights only for the input gradient.  It may read
    # w.data then: parameters get new arrays, never in-place writes.
    source, wd, need_gx, has_bias = _kept(x), w.data, x.requires_grad, b is not None

    def bwd(g):
        # The workspace also holds each group's (T*C, columns) product of the
        # input gradient, so it has room for a lone tap's C rows.
        ws = plan.workspace(max(plan.copied, C))
        ub = None if Wq == Wo else np.zeros((O, plan.block_rows, Wq))
        # The weight gradient of input channels [c0, c1) reads only them, so
        # the input is copied in one piece at a time.  A group's columns are
        # (tap, channel) pairs; ``gwp`` holds those of the piece's channels.
        gws = [np.zeros((O, T * C)) for _, T in plan.groups]
        for c0, c1, piece in _parts(source):
            xq = plan.copy_in(piece)
            gwps = gws if c1 - c0 == C else [
                gwg.reshape(O, T, C)[:, :, c0:c1] for (_, T), gwg in zip(plan.groups, gws)
            ]
            for bi, r0, r1, gb in plan.upstream_blocks(g, ub):
                for gwp, operand in zip(gwps, plan.operands(ws, xq[bi], r0, r1)):
                    gwp += np.matmul(gb, operand.T).reshape(gwp.shape)
            del xq, piece, operand  # a lone tap's operand is a view of xq
        gw = np.zeros((k * k, O, C))
        for (t0, T), gwg in zip(plan.groups, gws):
            gw[plan.columns[t0 : t0 + T]] = gwg.reshape(O, T, C).transpose(1, 0, 2)
        del gws
        gw = np.ascontiguousarray(gw.reshape(k, k, O, C).transpose(2, 3, 0, 1))
        gx = None
        if need_gx:
            # Each tap's rows of its group's product are added into its slice
            # of gq, in reverse tap order.  The slice of a plan's only tap is
            # written by no other block, so the product goes straight there;
            # in an in-place plan that slice is all of gq.
            groups = list(zip(plan.groups, [wg.T for wg in plan.group_weights(wd)]))[::-1]
            gq = np.empty((B, 1, C, plan.length)) if plan.in_place else plan.zeros()
            for bi, r0, r1, gb in plan.upstream_blocks(g, ub):
                c0, c1 = r0 * Wq, r1 * Wq
                for (t0, T), wgT in groups:
                    if len(taps) == 1:
                        _, _, p, off = taps[0]
                        np.matmul(wgT, gb, out=gq[bi, p, :, off + c0 : off + c1])
                        continue
                    prod = np.matmul(wgT, gb, out=ws[: T * C, : c1 - c0])
                    for t in reversed(range(T)):
                        _, _, p, off = taps[t0 + t]
                        gq[bi, p, :, off + c0 : off + c1] += prod[t * C : (t + 1) * C]
            del groups
            gx = plan.gather(gq)
        if not has_bias:
            return gx, gw
        return gx, gw, g.reshape(B, O, Ho * Wo).sum(axis=(0, 2))

    return make_node(out, parents, bwd)


# -- inputs rebuilt in backward ---------------------------------------------


class _Rebuild:
    """How backward rebuilds a recorded (B, C, H, W) input instead of
    keeping it: its channel pieces, in order, as (channels, source).  A
    source is an array the graph keeps anyway, or a function ``fn(out)``
    that recomputes the piece from such arrays with the forward's own numpy
    operations, in their order, so that every byte is the same; it writes
    into ``out`` when given one and returns the piece.  This is the
    rematerialisation trade of Chen et al., 2016: a few elementwise passes
    in backward for an array the graph no longer holds."""

    __slots__ = ("shape", "pieces")

    def __init__(self, shape: tuple, pieces: list):
        self.shape = shape
        self.pieces = pieces

    def parts(self):
        """(c0, c1, piece) for each piece in channel order.  Several rebuilt
        pieces share one buffer, so only one of them exists at a time and
        each is valid until the next is asked for."""
        B, _, H, W = self.shape
        rebuilt = [c for c, src in self.pieces if callable(src)]
        buf = np.empty(B * max(rebuilt) * H * W) if len(rebuilt) > 1 else None
        c0 = 0
        for c, src in self.pieces:
            if callable(src):
                src = src(None if buf is None else buf[: B * c * H * W].reshape(B, c, H, W))
            yield c0, c0 + c, src
            c0 += c


def _rebuilt(t: Tensor, *pieces) -> Tensor:
    """``t``, marked so that the convolution or pooled reduction reading it
    rebuilds its data from ``pieces`` (see :class:`_Rebuild`) in backward
    instead of keeping it.  Only a recorded result is marked: with no graph
    there is no backward to rebuild for."""
    if t.requires_grad:
        t._rebuild = _Rebuild(t.shape, list(pieces))
    return t


def _kept(x: Tensor):
    """What a backward rule keeps of its input ``x``: the recipe ``x`` was
    marked with, or else its data."""
    return x._rebuild or x.data


def _parts(kept):
    """(c0, c1, piece) of an input as :func:`_kept` returned it: a recipe's
    pieces in turn, or the whole array as one piece."""
    if isinstance(kept, _Rebuild):
        return kept.parts()
    return [(0, kept.shape[1], kept)]


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
        # Only the ReLU mask reads the output, so only then is it kept.
        masked = _relu_(out) if relu else None

        def bwd(g):
            if masked is not None:
                g = g * (masked > 0)
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
    """Bilinear resize of an (..., H, W) array to a float64 (..., Ho, Wo) one."""
    arr = np.asarray(arr, dtype=np.float64)
    H, W = arr.shape[-2:]
    Ho, Wo = out_hw
    if (H, W) == (Ho, Wo):
        return arr.copy()
    r0, r1, tr = _interp_grid(H, Ho)
    c0, c1, tc = _interp_grid(W, Wo)
    # a + t*(b - a) keeps constant inputs bit-exact; it is computed in place
    # in b, in the same order.  ``np.take`` returns C order, where fancy
    # indexing on the last axis gives a transposed layout; the grid's taps
    # are in range, so mode "clip" only skips its bounds check.
    a = np.take(arr, r0, axis=-2, mode="clip")
    b = np.take(arr, r1, axis=-2, mode="clip")
    b -= a
    b *= tr[:, None]
    b += a
    a = np.take(b, c0, axis=-1, mode="clip")
    rows = np.take(b, c1, axis=-1, mode="clip")
    rows -= a
    rows *= tc
    rows += a
    return rows


def resize_nearest_np(arr: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize; keeps binary masks binary."""
    H, W = arr.shape[-2:]
    Ho, Wo = out_hw
    if (H, W) == (Ho, Wo):
        return arr.copy()
    ri = np.clip(np.floor((np.arange(Ho) + 0.5) * H / Ho), 0, H - 1).astype(np.intp)
    ci = np.clip(np.floor((np.arange(Wo) + 0.5) * W / Wo), 0, W - 1).astype(np.intp)
    return np.take(np.take(arr, ri, axis=-2, mode="clip"), ci, axis=-1, mode="clip")
