"""
A tour of the cross-attention fusion module
===========================================

One module fuses a fine local feature with a coarser global feature in
four switchable stages.  This walk-through shows the attention maps, the
residual form, and what each ablation toggle does to the wiring (never
to the output shape).
"""

import numpy as np

from cracenet import CraceConfig, CraceModule, Tensor

rng = np.random.default_rng(0)
f_local = Tensor(rng.normal(size=(1, 12, 16, 16)))   # stride-8 features
f_global = Tensor(rng.normal(size=(1, 16, 8, 8)))    # stride-16 features

# %%
# Full module: output always lands at the local resolution with n channels.

cfg = CraceConfig(n=16, sampling_rates=(1, 2, 4), dilation_rates=(1, 2, 4))
module = CraceModule(in_local=12, in_global=16, config=cfg, rng=rng)
fused = module.forward(f_local, f_global)
print("output:", fused.shape)

# %%
# Each stage is a method of its own; stage 1 hands out its attention map
# and projections on request.

_, parts = module.cross_attention(f_local, f_global, return_parts=True)
print("cross-attention map:", parts["attention"].shape,
      f"range ({parts['attention'].data.min():.3f}, {parts['attention'].data.max():.3f})")

# %%
# The residual form: with the attention logits forced to zero the gate
# sits at sigmoid(0) = 0.5, so every stream is exactly 1.5x its projection.

module.att_cross.weight.data[:] = 0.0
module.att_cross.bias.data[:] = 0.0
fused_ca, parts = module.cross_attention(f_local, f_global, return_parts=True)
stream = fused_ca.data[:, : cfg.n]
print("max |stream - 1.5 * projection| =",
      np.max(np.abs(stream - 1.5 * parts["proj_local"].data)))

# %%
# Ablation toggles change values, never shapes.

for name, kw in [
    ("baseline (all off)", dict(enable_cross_attention=False, enable_channel_attention=False,
                                enable_multiscale=False, enable_attentive_fusion=False)),
    ("+ cross attention", dict(enable_channel_attention=False, enable_multiscale=False,
                               enable_attentive_fusion=False)),
    ("full", {}),
]:
    cfg_k = CraceConfig(n=16, sampling_rates=(1, 2, 4), dilation_rates=(1, 2, 4), **kw)
    mod_k = CraceModule(12, 16, cfg_k, rng=np.random.default_rng(1))
    out = mod_k.forward(f_local, f_global)
    print(f"{name:24s} -> {out.shape}, mean {out.data.mean():+.4f}")

# %%
# A module built with ``in_depth`` takes a third, depth stream; the RGB-D
# network builds its modules that way, the RGB network without it.

d_local = Tensor(rng.normal(size=(1, 4, 16, 16)))   # stride-8 depth features
mod_d = CraceModule(12, 16, cfg, rng=np.random.default_rng(2), in_depth=4)
fused_d = mod_d.cross_attention(f_local, f_global, d_local)
print("streams without / with depth:", module.streams, mod_d.streams,
      "->", fused_ca.shape[1], "/", fused_d.shape[1], "channels")

# %%
# The multi-scale stage pairs sampling rates with dilations; coarser
# branches get wider receptive fields.

print("branch plan (rate, dilation):", CraceConfig().branch_plan())
