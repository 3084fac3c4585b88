"""Cross-attention context extraction (CRACE): the decoder fusion block.

A CRACE module fuses a fine local feature with a coarser global feature,
and with a depth feature when it is built with ``in_depth`` (the RGB-D
network), in four stages, each independently switchable for ablations:

1. cross attention   - a shared single-channel sigmoid map computed from
                       the summed projections re-weights every stream in
                       residual form (stream + A * stream).
2. channel attention - channel re-weighting by the global average pool,
                       concatenated with the unweighted streams and reduced
                       to ``n`` channels by a 1x1 conv.  As the concat feeds
                       a linear map, the re-weighting folds into per-image
                       1x1 weights: with ``[W_a | W_b]`` the two column
                       halves of ``channel_reduce.weight`` and ``p_b`` the
                       per-channel mean of image b,
                       ``out_b = (W_a diag(p_b) + W_b) x_b + bias``, one
                       graph node (the squeeze-and-excitation scaling of
                       Hu et al., 2018, absorbed into the 1x1 layer).
3. multi-scale       - parallel downsample / dilated 3x3 conv / upsample
                       branches summed at full resolution.
4. attentive fusion  - the projected global stream, gated by its own
                       sigmoid map, is concatenated back in and reduced.

With every toggle off the module degenerates to a channel-projected
concatenation of its inputs followed by a 1x1 reduction (the ablation
baseline).  Output always has ``n`` channels at the local resolution.
``forward`` runs the four stage methods in order and keeps, of stage 1, only
the fused output and the projected global stream that stage 4 gates; the
attention maps and projections come from the stage methods' ``return_parts``.

Every input is projected by a 3x3 conv-BN-ReLU, and every resampling is
half-pixel bilinear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Conv2dLayer, ConvBnRelu, Module, downsample_avg, upsample
from .tensor import (
    Tensor,
    ShapeError,
    concat_channels,
    crop2d,
    make_node,
    pad_bottom_right,
    sigmoid,
)

__all__ = ["CraceConfig", "CraceModule", "ConfigError"]


class ConfigError(ValueError):
    """Module invoked inconsistently with its configuration."""


@dataclass
class CraceConfig:
    """Width, branch plan, and ablation switches for one CRACE module."""

    n: int = 64
    enable_cross_attention: bool = True
    enable_channel_attention: bool = True
    enable_multiscale: bool = True
    enable_attentive_fusion: bool = True
    sampling_rates: tuple[int, ...] = (1, 2, 4, 8)
    dilation_rates: tuple[int, ...] = (1, 4, 6)

    def __post_init__(self):
        self.sampling_rates = tuple(int(r) for r in self.sampling_rates)
        self.dilation_rates = tuple(int(d) for d in self.dilation_rates)
        if self.n < 1:
            raise ConfigError("channel width n must be >= 1")
        if any(r < 1 for r in self.sampling_rates):
            raise ConfigError("sampling rates must be >= 1")
        if any(d < 1 for d in self.dilation_rates):
            raise ConfigError("dilation rates must be >= 1")

    def branch_plan(self) -> tuple[tuple[int, int], ...]:
        """(sampling rate, dilation) per multi-scale branch.

        With one fewer dilation than rates, the finest two branches share
        the first dilation: coarser scales get the larger receptive fields.
        """
        rates, dils = self.sampling_rates, self.dilation_rates
        if len(dils) == len(rates):
            return tuple(zip(rates, dils))
        if len(dils) == len(rates) - 1:
            return tuple(zip(rates, (dils[0],) + dils))
        raise ConfigError(
            f"cannot pair {len(rates)} sampling rates with {len(dils)} dilations"
        )


class CraceModule(Module):
    """Parameters and forward logic for one fusion stage.

    ``in_local`` / ``in_global`` (/ ``in_depth``) are the channel counts of
    the incoming feature maps; the module has a depth stream exactly when
    ``in_depth`` is given.  Every 1x1 conv is sized from the config at
    construction, so ablation toggles change values but never shapes.
    """

    def __init__(
        self,
        in_local: int,
        in_global: int,
        config: CraceConfig,
        rng: np.random.Generator | None = None,
        in_depth: int | None = None,
    ):
        self.config = config
        rng = rng or np.random.default_rng(0)
        n = config.n

        self.proj_local = ConvBnRelu(in_local, n, 3, rng=rng)
        self.proj_global = ConvBnRelu(in_global, n, 3, rng=rng)
        self.proj_depth = (
            ConvBnRelu(in_depth, n, 3, rng=rng) if in_depth is not None else None
        )
        self.streams = 2 if self.proj_depth is None else 3

        # Attention logits use bias-enabled 1x1 convs without batch norm;
        # normalizing a single-channel logit destabilizes small batches.
        self.att_cross = (
            Conv2dLayer(n, 1, kernel=1, rng=rng)
            if config.enable_cross_attention
            else None
        )
        ca_in = self.streams * n * (2 if config.enable_channel_attention else 1)
        self.channel_reduce = Conv2dLayer(ca_in, n, kernel=1, rng=rng)
        plan = config.branch_plan() if config.enable_multiscale else ()
        self.branch_convs = [Conv2dLayer(n, n, kernel=3, dilation=d, rng=rng) for _, d in plan]
        if config.enable_attentive_fusion:
            self.att_global = Conv2dLayer(n, 1, kernel=1, rng=rng)
            self.fuse_reduce = Conv2dLayer(2 * n, n, kernel=1, rng=rng)
        else:
            self.att_global = self.fuse_reduce = None

    def _list_items(self, attr: str, items: list):
        return ((f"branch{i}", conv) for i, conv in enumerate(items))

    # -- projections ----------------------------------------------------

    def project(
        self,
        f_local: Tensor,
        f_global: Tensor,
        depth: Tensor | None = None,
        training: bool = False,
    ) -> tuple[Tensor, Tensor, Tensor | None]:
        """Channel-project all inputs to ``n``, upsampling the global map."""
        if (depth is None) != (self.proj_depth is None):
            raise ConfigError("give a depth feature exactly when the module has in_depth")
        Bl, _, Hl, Wl = f_local.shape
        Bg, _, Hg, Wg = f_global.shape
        if Bl != Bg:
            raise ShapeError("local/global batch sizes differ")
        if (Hl, Wl) == (Hg, Wg):
            factor = 1
        elif Hl == 2 * Hg and Wl == 2 * Wg:
            factor = 2
        else:
            raise ShapeError(
                f"global dims {(Hg, Wg)} must equal or be half of local dims {(Hl, Wl)}"
            )
        if depth is not None and depth.shape[2:] != (Hl, Wl):
            raise ShapeError("depth feature must match local spatial dims")
        pl = self.proj_local.forward(f_local, training)
        pg = self.proj_global.forward(upsample(f_global, factor), training)
        pd = self.proj_depth.forward(depth, training) if depth is not None else None
        return pl, pg, pd

    # -- stage 1: cross attention ----------------------------------------

    def cross_attention(
        self,
        f_local: Tensor,
        f_global: Tensor,
        depth: Tensor | None = None,
        training: bool = False,
        return_parts: bool = False,
    ):
        """Fuse the projected streams under a shared sigmoid attention map."""
        pl, pg, pd = self.project(f_local, f_global, depth, training)
        parts = {"proj_local": pl, "proj_global": pg, "proj_depth": pd}
        streams = [s for s in (pl, pg, pd) if s is not None]
        if self.att_cross is not None:
            attn = sigmoid(self.att_cross.forward(sum(streams[1:], streams[0])))
            parts["attention"] = attn
            streams = [s + attn * s for s in streams]
        parts["streams"] = streams
        fused = concat_channels(streams)
        return (fused, parts) if return_parts else fused

    # -- stage 2: channel attention ---------------------------------------

    def channel_attention(self, fused: Tensor) -> Tensor:
        """1x1 reduction to n channels of ``[p * fused, fused]``, where ``p``
        is each image's per-channel mean; with the stage off, of ``fused``.

        The enabled stage never builds the concatenation: it is one node
        computing ``out_b = (W_a diag(p_b) + W_b) x_b + bias``, where
        ``[W_a | W_b]`` are the column halves of ``channel_reduce.weight``
        (see :func:`_pooled_reduce`).
        """
        if fused.shape[1] != self.streams * self.config.n:
            raise ShapeError(
                f"channel_attention expects {self.streams * self.config.n} channels, "
                f"got {fused.shape[1]}"
            )
        if self.config.enable_channel_attention:
            return _pooled_reduce(fused, self.channel_reduce.weight, self.channel_reduce.bias)
        return self.channel_reduce.forward(fused)

    # -- stage 3: multi-scale ----------------------------------------------

    def multi_scale(self, x: Tensor) -> Tensor:
        """Sum of downsample -> dilated conv -> upsample branches."""
        if not self.config.enable_multiscale:
            return x
        B, C, H, W = x.shape
        if C != self.config.n:
            raise ShapeError(f"multi_scale expects {self.config.n} channels, got {C}")
        out = None
        for (rate, _), conv in zip(self.config.branch_plan(), self.branch_convs):
            # At rate 1 the pad, pooling, upsampling and crop return their input.
            branch = pad_bottom_right(x, (-H) % rate, (-W) % rate)
            branch = upsample(conv.forward(downsample_avg(branch, rate)), rate)
            branch = crop2d(branch, H, W)
            out = branch if out is None else out + branch
        return out

    # -- stage 4: attentive fusion -------------------------------------------

    def attentive_fusion(
        self,
        x: Tensor,
        global_proj: Tensor,
        return_parts: bool = False,
    ):
        """Gate the projected global stream and fold it back in."""
        if not self.config.enable_attentive_fusion:
            return (x, {}) if return_parts else x
        attn = sigmoid(self.att_global.forward(global_proj))
        gated = attn * global_proj + global_proj
        out = self.fuse_reduce.forward(concat_channels([gated, x]))
        if return_parts:
            return out, {"attention": attn, "gated_global": gated}
        return out

    # -- full module ------------------------------------------------------------

    def forward(
        self,
        f_local: Tensor,
        f_global: Tensor,
        depth: Tensor | None = None,
        training: bool = False,
    ) -> Tensor:
        x, parts = self.cross_attention(
            f_local, f_global, depth, training, return_parts=True
        )
        global_proj = parts["proj_global"]
        del parts  # the streams, the other projections and the attention map
        x = self.channel_attention(x)
        x = self.multi_scale(x)
        return self.attentive_fusion(x, global_proj)


def _pooled_reduce(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """1x1 conv of ``concat([p * x, x])`` with weight ``w`` (O, 2C, 1, 1) and
    bias ``b``, where ``p`` (B, C) is each image's per-channel mean of ``x``.

    Per image b the two halves fold into one (O x C) matrix,
    ``W_eff,b = W_a diag(p_b) + W_b``.  With ``G_b = g_b x_b^T`` the
    backward is ``gW = [sum_b G_b * p_b | sum_b G_b]``,
    ``gx_b = W_eff,b^T g_b + (sum_o W_a * G_b) / (H W)`` (the second term,
    through the mean, broadcast over pixels) and ``gbias = sum g``.  The
    node keeps ``x`` and (B, O, C) arrays, never the concatenation.
    """
    B, C, H, W = x.shape
    O = w.shape[0]
    wa, wb = np.split(w.data.reshape(O, 2 * C), 2, axis=1)
    xd = x.data.reshape(B, C, H * W)
    p = xd.mean(axis=2)
    w_eff = wa * p[:, None, :] + wb
    out = np.matmul(w_eff, xd)
    out += b.data[:, None]

    def bwd(g):
        gm = g.reshape(B, O, H * W)
        G = np.matmul(gm, xd.transpose(0, 2, 1))
        gw = np.concatenate([(G * p[:, None, :]).sum(axis=0), G.sum(axis=0)], axis=1)
        gx = np.matmul(w_eff.transpose(0, 2, 1), gm)
        gx += ((wa * G).sum(axis=1) / (H * W))[:, :, None]
        return gx.reshape(B, C, H, W), gw.reshape(O, 2 * C, 1, 1), gm.sum(axis=(0, 2))

    return make_node(out.reshape(B, O, H, W), (x, w, b), bwd)
