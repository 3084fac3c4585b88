"""
The ablation matrix
===================

Every architectural block and every loss term can be toggled from one
config matrix: the block progression (baseline, +CA, +CA+ChA, ...), the
loss knockouts (w/o Edge / BCE / IoU / MLS), and w/o Depth in RGB-D
mode.  At toy scale the numbers mean little; the point is that every
row trains end to end and lands in one comparable table.
"""

import tempfile
from pathlib import Path

from cracenet import CraceConfig, EncoderConfig, NetworkConfig, TrainConfig
from cracenet.data import gen_synthetic, load_dataset
from cracenet.trainer import format_ablation_table, run_ablation

# Removed, with everything written under it, when the script ends.
workdir = tempfile.TemporaryDirectory(prefix="cracenet_ablation_")
root = Path(workdir.name)
gen_synthetic(root / "data", n=4, size=32, seed=5, with_depth=True)
samples = load_dataset(root / "data", with_depth=True)

cfg = TrainConfig(total_steps=20, batch_size=2, input_size=32, seed=5,
                  mode="rgbd", multiscale=False)
net_cfg = NetworkConfig(
    EncoderConfig(widths=(4, 8, 12, 16)),
    CraceConfig(n=8, sampling_rates=(1, 2), dilation_rates=(1, 2)),
    "rgbd",
)

results = run_ablation(samples, cfg, net_cfg, verbose=True)
print()
print(format_ablation_table(results))
workdir.cleanup()
