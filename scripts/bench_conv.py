"""Convolution time per shape class of one ``train_rgbd256`` step.

Run from the root of a checkout::

    python3 scripts/bench_conv.py --label change
    python3 scripts/bench_conv.py --label parent --src /path/to/other/checkout/src

The shape classes are read off one real training step: ``trainer.train``
runs one RGB-D step at 256x256, batch 2, scene seed 0, multi-scale off (the
``train_rgbd256`` benchmark workload's shapes) while ``layers.conv2d`` is
wrapped to record every call.  A class is the input shape, output
channels, kernel, stride, dilation, bias and whether the input needs a
gradient; its ``calls`` are how often one step makes it.

Each class is then timed on its own, in a fresh worker process
(``harness.py``), so the heap the training step left behind does not leak
into its numbers: on seeded random data, the forward ``conv2d`` call and
the backward closure of the node it returns, each ``REPEATS`` times after
one untimed warm-up call.  A row holds the median and quartiles of both in
milliseconds; the totals weight each class's medians by its call count,
giving the conv seconds of one step.  The result goes to
``BENCH_conv.json`` as ``harness.py`` describes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import Counter

import harness

FIELDS = ("B", "C", "H", "W", "O", "kernel", "stride", "dilation", "bias", "input_grad")
REPEATS = 15  # timed calls per class and pass


def shape_classes() -> Counter:
    """Calls per step of each convolution class."""
    from cracenet import data, layers, trainer

    with tempfile.TemporaryDirectory() as tmp:
        data.gen_synthetic(tmp, 4, 256, seed=0, with_depth=True)
        samples = data.load_dataset(tmp, with_depth=True)
    cfg = trainer.TrainConfig(
        total_steps=1, batch_size=2, input_size=256, seed=0, mode="rgbd", multiscale=False
    )
    calls: Counter = Counter()
    conv2d = layers.conv2d

    def recording_conv2d(x, layer):
        calls[(*x.shape, layer.out_channels, layer.kernel, layer.stride, layer.dilation,
               layer.bias is not None, x.requires_grad)] += 1
        return conv2d(x, layer)

    layers.conv2d = recording_conv2d
    try:
        trainer.train(samples, cfg)
    finally:
        layers.conv2d = conv2d
    return calls


def run_case(name: str) -> dict:
    """Time the class whose key is the JSON list ``name``."""
    import numpy as np
    from cracenet.layers import Conv2dLayer, conv2d
    from cracenet.tensor import Tensor

    B, C, H, W, O, k, s, d, bias, input_grad = json.loads(name)
    rng = np.random.default_rng(0)
    layer = Conv2dLayer(C, O, k, s, d, bias=bias, rng=rng)
    x = Tensor(rng.normal(size=(B, C, H, W)), requires_grad=input_grad)
    node = conv2d(x, layer)
    g = rng.normal(size=node.shape)
    return {
        "fwd_ms": harness.timed(lambda: conv2d(x, layer), REPEATS),
        "bwd_ms": harness.timed(lambda: node._backward(g), REPEATS),
    }


def show(name: str, row: dict) -> str:
    return (
        "B{B} C{C} {H}x{W} O{O} k{kernel} s{stride} d{dilation} bias {bias} "
        "input_grad {input_grad}: ".format(**dict(zip(FIELDS, json.loads(name))))
        + f"fwd {row['fwd_ms']['median']:.2f} ms, bwd {row['bwd_ms']['median']:.2f} ms"
    )


def main(argv=None) -> int:
    args = harness.parse_args(harness.parser(__doc__), run_case, argv)
    calls = {json.dumps(key): n for key, n in sorted(shape_classes().items())}
    rows = harness.run_cases(__file__, args.src, calls, show)
    classes = [
        dict(zip(FIELDS, json.loads(name)), calls=n, **rows[name]) for name, n in calls.items()
    ]
    measured = [c for c in classes if "fwd_ms" in c]
    totals = {
        f"{p}_s_per_step": sum(c["calls"] * c[f"{p}_ms"]["median"] for c in measured) / 1e3
        for p in ("fwd", "bwd")
    }
    print(f"per step: fwd {totals['fwd_s_per_step']:.3f} s, bwd {totals['bwd_s_per_step']:.3f} s")
    harness.write_run(
        __file__, args.label,
        "conv2d classes of one train_rgbd256 step (RGB-D, 256x256, batch 2)",
        {"classes": classes, "totals": totals},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
