"""FPN-like saliency network: encoder, context flow, prediction heads.

A small 4-stage residual encoder produces feature maps at strides
4/8/16/32.  The deepest map is channel-projected, then three chained
fusion modules carry context from deep to shallow.  Each refined level
feeds a 1x1 saliency head and a 1x1 boundary head whose logits are
upsampled to the input resolution.  ``infer`` serves the final map only:
it records no graph and evaluates just the level-2 saliency head.

In RGB-D mode a second encoder (same architecture, separate weights,
native 1-channel stem) provides depth features to the fusion modules
plus per-level 1x1 depth saliency heads.  The network mode is the only
depth switch: it alone decides whether the fusion modules take a depth
stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crace import CraceConfig, CraceModule
from .layers import BatchNormLayer, Conv2dLayer, ConvBnRelu, Module, upsample
from .tensor import Tensor, ShapeError, no_grad, relu, sigmoid

__all__ = ["EncoderConfig", "NetworkConfig", "SodNetwork", "InputSizeError", "ModeError"]


class InputSizeError(ValueError):
    """Input spatial dims are not divisible by the encoder stride."""


class ModeError(ValueError):
    """Depth input given to an RGB network, or missing in RGB-D mode."""


@dataclass
class EncoderConfig:
    widths: tuple[int, int, int, int] = (16, 32, 64, 128)

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if len(self.widths) != 4:
            raise ValueError("encoder needs exactly 4 stage widths")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"encoder widths must be >= 1, got {self.widths}")


@dataclass
class NetworkConfig:
    encoder: EncoderConfig
    crace: CraceConfig
    mode: str = "rgb"

    def __post_init__(self):
        if self.mode not in ("rgb", "rgbd"):
            raise ValueError(f"mode must be 'rgb' or 'rgbd', got {self.mode!r}")

    @staticmethod
    def default(mode: str = "rgb") -> "NetworkConfig":
        return NetworkConfig(EncoderConfig(), CraceConfig(), mode)


def _upsample_to(t: Tensor, height: int) -> Tensor:
    """Head logits upsampled to the input resolution."""
    return upsample(t, height // t.shape[2])


class ResidualBlock(Module):
    """conv-bn-relu-conv-bn plus (projected) skip, ReLU on the sum."""

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng):
        self.conv1 = Conv2dLayer(in_ch, out_ch, 3, stride=stride, bias=False, rng=rng)
        self.bn1 = BatchNormLayer(out_ch)
        self.conv2 = Conv2dLayer(out_ch, out_ch, 3, bias=False, rng=rng)
        self.bn2 = BatchNormLayer(out_ch)
        if stride != 1 or in_ch != out_ch:
            self.skip = Conv2dLayer(in_ch, out_ch, 1, stride=stride, bias=False, rng=rng)
            self.skip_bn = BatchNormLayer(out_ch)
        else:
            self.skip = None
            self.skip_bn = None

    def forward(self, x: Tensor, training: bool) -> Tensor:
        y = self.bn1.forward(self.conv1.forward(x), training, relu=True)
        y = self.bn2.forward(self.conv2.forward(y), training)
        if self.skip is not None:
            x = self.skip_bn.forward(self.skip.forward(x), training)
        return relu(y + x)


class Encoder(Module):
    """Four residual stages, one block each, at strides 4/8/16/32 relative
    to the input."""

    def __init__(self, in_channels: int, config: EncoderConfig, rng):
        self.in_channels = in_channels
        self.config = config
        w = config.widths
        self.stem = ConvBnRelu(in_channels, w[0], 3, stride=2, rng=rng)
        self.stages = [
            ResidualBlock(prev, width, stride=2, rng=rng)
            for prev, width in zip((w[0],) + w[:3], w)
        ]

    def forward(self, x: Tensor, training: bool) -> list[Tensor]:
        B, C, H, W = x.shape
        if C != self.in_channels:
            raise ShapeError(f"encoder expects {self.in_channels} channels, got {C}")
        if H % 32 or W % 32:
            raise InputSizeError(
                f"input dims ({H}, {W}) must be divisible by 32; resize first"
            )
        y = self.stem.forward(x, training)
        features = []
        for block in self.stages:
            y = block.forward(y, training)
            features.append(y)
        return features

    def _list_items(self, attr: str, items: list):
        return ((f"stage{s + 2}.block0", block) for s, block in enumerate(items))


class _Undrawn:
    """Weight source of a network whose every array is loaded right after
    construction: it allocates the weights and draws none of them."""

    def normal(self, loc, scale, size):
        return np.empty(size)


class SodNetwork(Module):
    """The unified RGB / RGB-D saliency detector."""

    def __init__(self, config: NetworkConfig, seed: int = 0, *, _rng=None):
        self.config = config
        self.mode = config.mode
        rng = _rng or np.random.default_rng(np.random.SeedSequence(entropy=seed))
        w = config.encoder.widths
        n = config.crace.n

        self.rgb_encoder = Encoder(3, config.encoder, rng)
        if self.mode == "rgbd":
            self.depth_encoder = Encoder(1, config.encoder, rng)
        else:
            self.depth_encoder = None

        self.top_proj = ConvBnRelu(w[3], n, 3, rng=rng)

        def module_for(level: int) -> CraceModule:
            in_depth = w[level - 2] if self.mode == "rgbd" else None
            return CraceModule(w[level - 2], n, config.crace, rng=rng, in_depth=in_depth)

        # Context flows deep to shallow through exactly three fusion modules.
        self.crace4 = module_for(4)
        self.crace3 = module_for(3)
        self.crace2 = module_for(2)

        self.saliency_heads = [Conv2dLayer(n, 1, 1, rng=rng) for _ in range(4)]
        self.edge_heads = [Conv2dLayer(n, 1, 1, rng=rng) for _ in range(4)]
        if self.mode == "rgbd":
            self.depth_heads = [Conv2dLayer(w[i], 1, 1, rng=rng) for i in range(4)]
        else:
            self.depth_heads = None

    # -- encoders ---------------------------------------------------------

    def encode(self, image: Tensor, training: bool = False) -> list[Tensor]:
        return self.rgb_encoder.forward(image, training)

    def encode_depth(self, depth: Tensor, training: bool = False) -> list[Tensor]:
        if self.depth_encoder is None:
            raise ModeError("RGB-mode network does not accept depth input")
        return self.depth_encoder.forward(depth, training)

    # -- decoder -----------------------------------------------------------

    def context_flow(
        self,
        features: list[Tensor],
        depth_features: list[Tensor] | None = None,
        training: bool = False,
    ) -> list[Tensor]:
        """[f2..f5] (+ [d2..d5]) -> [F2..F5], deep to shallow."""
        f2, f3, f4, f5 = features
        if (depth_features is not None) != (self.mode == "rgbd"):
            raise ModeError("depth features must be given in rgbd mode and only there")
        d2, d3, d4, _ = depth_features or (None,) * 4
        top = self.top_proj.forward(f5, training)
        m4 = self.crace4.forward(f4, top, d4, training)
        m3 = self.crace3.forward(f3, m4, d3, training)
        m2 = self.crace2.forward(f2, m3, d2, training)
        return [m2, m3, m4, top]

    # -- heads ----------------------------------------------------------------

    def predict(
        self,
        refined: list[Tensor],
        input_hw: tuple[int, int],
        depth_features: list[Tensor] | None = None,
    ) -> dict:
        """Per-level saliency/edge logit maps, upsampled to the input size."""
        H = input_hw[0]
        saliency = [_upsample_to(h.forward(f), H) for h, f in zip(self.saliency_heads, refined)]
        edges = [_upsample_to(h.forward(f), H) for h, f in zip(self.edge_heads, refined)]
        out = {"saliency_logits": saliency, "edge_logits": edges}
        if self.depth_heads is not None and depth_features is not None:
            out["depth_logits"] = [
                _upsample_to(h.forward(d), H) for h, d in zip(self.depth_heads, depth_features)
            ]
        return out

    def _refine(self, image: Tensor, depth: Tensor | None, training: bool):
        """Encode and run the context flow: (refined levels, depth features)."""
        depth_features = None if depth is None else self.encode_depth(depth, training)
        features = self.encode(image, training)
        return self.context_flow(features, depth_features, training), depth_features

    def forward(
        self,
        image: Tensor,
        depth: Tensor | None = None,
        training: bool = False,
    ) -> dict:
        refined, depth_features = self._refine(image, depth, training)
        return self.predict(refined, image.shape[2:], depth_features)

    def infer(self, image: np.ndarray, depth: np.ndarray | None = None) -> np.ndarray:
        """Final saliency probability map for one (3, H, W) image.

        Equal, bit for bit, to ``sigmoid(forward(...)["saliency_logits"][0])``
        in eval mode, but it records no graph and evaluates only the final
        (level-2) saliency head.  Before any encoder runs, a malformed input
        raises: ``ShapeError`` for an image that is not (3, H, W) or a depth
        map that is not (H, W), ``ModeError`` for a depth map given to an RGB
        network or missing in RGB-D mode, and ``ValueError`` for a NaN or
        infinite value, which ReLU would otherwise map to 0 in silence.
        """
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 3 or image.shape[0] != 3:
            raise ShapeError(f"image must have shape (3, H, W), got {image.shape}")
        if (depth is not None) != (self.mode == "rgbd"):
            raise ModeError(f"{self.mode} network: give a depth map exactly in rgbd mode")
        if depth is not None:
            depth = np.asarray(depth, dtype=np.float64)
            if depth.shape != image.shape[1:]:
                raise ShapeError(
                    f"depth must have the image's shape (H, W) = {image.shape[1:]}, "
                    f"got {depth.shape}"
                )
        for name, arr in (("image", image), ("depth", depth)):
            if arr is not None and not np.isfinite(arr).all():
                raise ValueError(f"{name} holds non-finite values")
        with no_grad():
            img = Tensor(image[None])
            dep = Tensor(depth[None, None]) if depth is not None else None
            refined, _ = self._refine(img, dep, training=False)
            logits = _upsample_to(self.saliency_heads[0].forward(refined[0]), image.shape[1])
            return sigmoid(logits).data[0, 0]

    def _list_items(self, attr: str, items: list):
        head = attr[:-1]  # saliency_heads -> saliency_head2..saliency_head5
        return ((f"{head}{i + 2}", h) for i, h in enumerate(items))
