"""
Training on synthetic scenes (RGB)
==================================

End to end at toy scale: generate a synthetic dataset, train for a few
hundred steps, and score the training set.  The same flow is available
from the command line:

    cracenet gen-data --out data --n 8 --size 64 --seed 7
    cracenet train    --data data --out run --steps 500
    cracenet predict  --checkpoint run/checkpoint.ckpt --images data/images --out preds
    cracenet eval     --pred preds --gt data/gt

This script uses a reduced network and fewer steps so it finishes in
about a minute; see tests/test_acceptance.py for the full recipe.
"""

import tempfile
from pathlib import Path

from cracenet import CraceConfig, EncoderConfig, NetworkConfig, TrainConfig
from cracenet.data import gen_synthetic, load_dataset
from cracenet.trainer import evaluate_model, train

# Removed, with everything written under it, when the script ends.
workdir = tempfile.TemporaryDirectory(prefix="cracenet_demo_")
root = Path(workdir.name)

# %%
# Eight synthetic scenes: 1-3 anti-aliased shapes on textured backgrounds.

gen_synthetic(root / "data", n=8, size=64, seed=7)
samples = load_dataset(root / "data")
print("foreground fractions:", [round(s.gt.mean(), 3) for s in samples])

# %%
# A slimmed-down network and schedule.

cfg = TrainConfig(total_steps=200, batch_size=4, input_size=64, seed=7,
                  multiscale=False)
net_cfg = NetworkConfig(
    EncoderConfig(widths=(8, 16, 24, 32)),
    CraceConfig(n=24, sampling_rates=(1, 2, 4), dilation_rates=(1, 2, 4)),
    "rgb",
)
result = train(samples, cfg, net_cfg, out_dir=root / "run", verbose=True)

# %%
# Score the training set (the point here is fitting capacity, not
# generalization).

report = evaluate_model(result.model, samples)
print(report.text_table())
print("artifacts:", sorted(p.name for p in (root / "run").iterdir()))
workdir.cleanup()
