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

Each class is then timed on its own, on seeded random data: the forward
``conv2d`` call, and the backward closure of the node it returns, each
``REPEATS`` times after one untimed warm-up call.  A row holds the median
and quartiles of both in milliseconds; the totals weight each class's
medians by its call count, giving the conv seconds of one step.  The
result, with the machine, is stored under ``runs[<label>]`` of
``BENCH_conv.json`` at the root of the checkout; other labels already in the
file are kept.  BLAS is pinned to one thread, as in ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from bench_infer import machine

ROOT = Path(__file__).resolve().parents[1]
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


def quartiles_ms(fn) -> dict:
    fn()  # warm-up
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": REPEATS}


def time_class(key: tuple) -> dict:
    import numpy as np
    from cracenet.layers import Conv2dLayer, conv2d
    from cracenet.tensor import Tensor

    B, C, H, W, O, k, s, d, bias, input_grad = key
    rng = np.random.default_rng(0)
    layer = Conv2dLayer(C, O, k, s, d, bias=bias, rng=rng)
    x = Tensor(rng.normal(size=(B, C, H, W)), requires_grad=input_grad)
    node = conv2d(x, layer)
    g = rng.normal(size=node.shape)
    return {
        "fwd_ms": quartiles_ms(lambda: conv2d(x, layer)),
        "bwd_ms": quartiles_ms(lambda: node._backward(g)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding cracenet")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(args.src).resolve()))

    rows = []
    for key, calls in sorted(shape_classes().items()):
        row = dict(zip(FIELDS, key), calls=calls, **time_class(key))
        rows.append(row)
        print(
            "B{B} C{C} {H}x{W} O{O} k{kernel} s{stride} d{dilation} bias {bias} "
            "input_grad {input_grad} x{calls}: ".format(**row)
            + f"fwd {row['fwd_ms']['median']:.2f} ms, bwd {row['bwd_ms']['median']:.2f} ms",
            flush=True,
        )
    totals = {
        f"{p}_s_per_step": sum(r["calls"] * r[f"{p}_ms"]["median"] for r in rows) / 1e3
        for p in ("fwd", "bwd")
    }
    print(f"per step: fwd {totals['fwd_s_per_step']:.3f} s, bwd {totals['bwd_s_per_step']:.3f} s")

    out = ROOT / "BENCH_conv.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("script", "scripts/bench_conv.py")
    doc["model"] = "conv2d classes of one train_rgbd256 step (RGB-D, 256x256, batch 2)"
    doc.setdefault("runs", {})
    doc["runs"][args.label] = {"machine": machine(), "classes": rows, "totals": totals}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out.name} [{args.label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
