"""
When depth is the only cue (RGB-D)
==================================

The same network runs in RGB-D mode: a second encoder feeds depth
features into every fusion module as a third stream.  To see the depth
path earn its keep, generate scenes whose shapes are painted with the
background texture, invisible in RGB, and compare an RGB-D model
against a depth-blind one.
"""

import tempfile
from pathlib import Path

from cracenet import CraceConfig, EncoderConfig, NetworkConfig, TrainConfig
from cracenet.data import gen_synthetic, load_dataset
from cracenet.trainer import evaluate_model, train

# Removed, with everything written under it, when the script ends.
workdir = tempfile.TemporaryDirectory(prefix="cracenet_rgbd_")
root = Path(workdir.name)

# %%
# Shapes exist only in the depth channel.

gen_synthetic(root / "data", n=6, size=64, seed=11, depth_only_cue=True)
samples = load_dataset(root / "data", with_depth=True)
s = samples[0]
fg = s.gt == 1
print(f"RGB contrast  (fg vs bg): {abs(s.image[:, fg].mean() - s.image[:, ~fg].mean()):.3f}")
print(f"depth contrast (fg vs bg): {s.depth[fg].mean() - s.depth[~fg].mean():.3f}")

# %%
# Train a small RGB-D model and its depth-blind counterpart.

encoder = EncoderConfig(widths=(8, 16, 24, 32))


def run(mode):
    cfg = TrainConfig(total_steps=200, batch_size=4, input_size=64, seed=11,
                      mode=mode, multiscale=False)
    net = NetworkConfig(
        encoder,
        CraceConfig(n=24, sampling_rates=(1, 2, 4), dilation_rates=(1, 2, 4)),
        mode,
    )
    result = train(samples, cfg, net)
    return evaluate_model(result.model, samples)


with_depth = run("rgbd")
without = run("rgb")

print(f"\n{'':14s}{'maxF':>8s}{'MAE':>8s}")
print(f"{'RGB-D':14s}{with_depth.max_f:8.3f}{with_depth.mae:8.3f}")
print(f"{'w/o depth':14s}{without.max_f:8.3f}{without.mae:8.3f}")
print(f"\ndepth advantage: {with_depth.max_f - without.max_f:+.3f} maxF")
workdir.cleanup()
