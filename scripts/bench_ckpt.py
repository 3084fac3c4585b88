"""Checkpoint save, load and rebuild time and memory, per network mode.

Run from the root of a checkout::

    python3 scripts/bench_ckpt.py --label change
    python3 scripts/bench_ckpt.py --label parent --src /path/to/other/checkout/src

For each mode, RGB and RGB-D, a fresh worker process (``harness.py``)
takes a freshly seeded default model (``NetworkConfig.default(mode)``,
seed 0) and times three calls:

- ``save``: ``data.save_checkpoint`` of its ``export_arrays()`` with the
  config snapshot of step 0, as the serving set-up writes it;
- ``load``: ``data.load_checkpoint`` of that file;
- ``rebuild``: ``trainer.build_model_from_checkpoint``, which loads the
  file, builds the network and sets its arrays.

Each time is the median and quartiles of 15 timed calls after one untimed
warm-up call.  Memory is the ``tracemalloc`` peak of one more call,
measured apart from the timed calls because tracing slows allocation.
The row also holds the file's size and SHA-256, so runs of two commits
show whether they write the same bytes, and ``rebuilt_equal``: whether
the rebuilt model's arrays equal the saved ones byte for byte.  The
result goes to ``BENCH_ckpt.json`` as ``harness.py`` describes.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import harness

MODES = ("rgb", "rgbd")
REPEATS = 15
MB = 2**20


def run_case(mode: str) -> dict:
    from cracenet import data, losses, network, trainer

    net_cfg = network.NetworkConfig.default(mode)
    arrays = network.SodNetwork(net_cfg, seed=0).export_arrays()
    snapshot = trainer.config_snapshot(
        0, trainer.TrainConfig(seed=0, mode=mode), net_cfg, losses.LossConfig()
    )
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "model.ckpt"
        row = {
            op: harness.measure(fn, REPEATS, "ms")
            for op, fn in (
                ("save", lambda: data.save_checkpoint(path, snapshot, arrays)),
                ("load", lambda: data.load_checkpoint(path)),
                ("rebuild", lambda: trainer.build_model_from_checkpoint(path)),
            )
        }
        raw = path.read_bytes()
        rebuilt = trainer.build_model_from_checkpoint(path)[0].export_arrays()
    row["file_mb"] = len(raw) / MB
    row["sha256"] = hashlib.sha256(raw).hexdigest()
    row["rebuilt_equal"] = rebuilt.keys() == arrays.keys() and all(
        rebuilt[k].tobytes() == arrays[k].tobytes() for k in arrays
    )
    return row


def show(mode: str, row: dict) -> str:
    parts = ", ".join(
        f"{op} {row[op]['ms']['median']:.1f} ms {row[op]['tracemalloc_peak_mb']:.1f} MB"
        for op in ("save", "load", "rebuild")
    )
    return f"{mode}: {parts}, sha256 {row['sha256'][:12]}, equal {row['rebuilt_equal']}"


def main(argv=None) -> int:
    args = harness.parse_args(harness.parser(__doc__), run_case, argv)
    harness.write_run(
        __file__, args.label,
        "NetworkConfig.default(mode), seed 0, step-0 config snapshot",
        {"modes": harness.run_cases(__file__, args.src, MODES, show)},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
