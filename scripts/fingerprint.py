"""SHA-256 fingerprint of the program's outputs, to show a change keeps them.

Run from the root of a checkout, once per tree, and compare the lines::

    python3 scripts/fingerprint.py
    python3 scripts/fingerprint.py --src /path/to/other/checkout/src

Prints one JSON line mapping each case to the SHA-256 of its bytes:

- ``losses``: ``bce_loss`` and ``iou_loss`` values and both gradients on
  seeded random 1-D to 4-D inputs, targets binary and soft;
- ``train_<mode>_<config>``: the loss rows, final parameters and buffers
  and last gradients of a 3-step 64x64, batch 2 ``train`` run, RGB and
  RGB-D, under each loss config of ``LOSS_CONFIGS``;
- ``infer_<mode>_<size>``: the ``infer`` maps of the default network at
  64x64 and 96x96;
- ``step_rgbd256``: the loss row, gradients and final arrays of one RGB-D
  step at 256x256, batch 2 (the ``train_rgbd256`` benchmark's shapes);
- ``conv_<class>``: for each convolution class that
  ``bench_conv.shape_classes()`` records in that step, the forward output
  and the bias, weight and (where the class needs one) input gradients of
  one ``conv2d`` call on seeded data.  ``<class>`` reads like
  ``B2_C3_256x256_O16_k3_s2_d1_bias0_gx0``.

Like the ``bench_*.py`` scripts, it imports ``cracenet`` from ``--src``
(the checkout's ``src`` by default) and pins BLAS to one thread, so the
sums run in the same order in both trees.  It writes no file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import bench_conv
import harness

LOSS_CONFIGS = {
    "default": {},
    "no_edge": {"use_edge": False},
    "no_mls": {"use_multilevel": False},
    "no_bce": {"use_bce": False},
    "no_iou": {"use_iou": False},
    "no_edge_mls": {"use_edge": False, "use_multilevel": False},
}


class Digest:
    """SHA-256 over named arrays and JSON rows, each tagged with its name,
    dtype and shape so that equal bytes in another layout differ."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def array(self, name: str, value) -> None:
        import numpy as np

        a = np.ascontiguousarray(value)
        self.sha.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        self.sha.update(a.tobytes())

    def row(self, row: dict) -> None:
        self.sha.update(json.dumps(row, sort_keys=True).encode())

    def model(self, model) -> None:
        """Every parameter with its last gradient, then every buffer."""
        for name, p in model.parameters():
            self.array(name, p.data)
            if p.grad is not None:
                self.array(name + ".grad", p.grad)
        for name, value in model.buffers():
            self.array(name, value)

    def hex(self) -> str:
        return self.sha.hexdigest()


def loss_case() -> str:
    import numpy as np
    from cracenet.losses import bce_loss, iou_loss
    from cracenet.tensor import Tensor, backward

    rng = np.random.default_rng(0)
    digest = Digest()
    for k in range(200):
        shape = tuple(int(n) for n in rng.integers(1, 7, size=rng.integers(1, 5)))
        s = rng.uniform(size=shape)
        if k % 2:
            s = (s > 0.5).astype(np.float64)
        for name, fn in (("bce", bce_loss), ("iou", iou_loss)):
            pred = Tensor(rng.uniform(size=shape), requires_grad=True)
            target = Tensor(s, requires_grad=True)
            loss = fn(pred, target)
            backward(loss)
            for part, value in (("value", loss.data), ("gp", pred.grad), ("gt", target.grad)):
                digest.array(f"{k}.{name}.{part}", value)
    return digest.hex()


def train_digest(samples, overrides: dict) -> str:
    from cracenet import trainer

    result = trainer.train(samples, *trainer.configs_from_fields(overrides))
    digest = Digest()
    for row in result.log_rows:
        digest.row(row)
    digest.model(result.model)
    return digest.hex()


def train_cases(tmp: Path) -> dict:
    from cracenet import data

    data.gen_synthetic(tmp / "64", 4, 64, seed=0, with_depth=True)
    samples = data.load_dataset(tmp / "64", with_depth=True)
    base = {"total_steps": 3, "batch_size": 2, "input_size": 64, "seed": 0}
    return {
        f"train_{mode}_{name}": train_digest(samples, {**base, "mode": mode, **loss})
        for mode in ("rgb", "rgbd")
        for name, loss in LOSS_CONFIGS.items()
    }


def infer_cases(tmp: Path) -> dict:
    from cracenet import data
    from cracenet.network import NetworkConfig, SodNetwork

    out = {}
    for mode in ("rgb", "rgbd"):
        model = SodNetwork(NetworkConfig.default(mode), seed=0)
        for size in (64, 96):
            root = tmp / f"infer{size}"
            if not root.exists():
                data.gen_synthetic(root, 2, size, seed=1, with_depth=True)
            digest = Digest()
            for s in data.load_dataset(root, with_depth=True):
                depth = s.depth if mode == "rgbd" else None
                digest.array(s.id, model.infer(s.image, depth))
            out[f"infer_{mode}_{size}"] = digest.hex()
    return out


def step_case(tmp: Path) -> str:
    from cracenet import data

    data.gen_synthetic(tmp / "256", 4, 256, seed=0, with_depth=True)
    samples = data.load_dataset(tmp / "256", with_depth=True)
    return train_digest(samples, {
        "total_steps": 1, "batch_size": 2, "input_size": 256, "seed": 0,
        "mode": "rgbd", "multiscale": False,
    })


def conv_cases() -> dict:
    import numpy as np
    from cracenet.layers import Conv2dLayer, conv2d
    from cracenet.tensor import Tensor

    out = {}
    for key in sorted(bench_conv.shape_classes()):
        B, C, H, W, O, k, s, d, bias, input_grad = key
        rng = np.random.default_rng(0)
        layer = Conv2dLayer(C, O, k, s, d, bias=bias, rng=rng)
        if bias:
            layer.bias.data = rng.normal(size=O)
        x = Tensor(rng.normal(size=(B, C, H, W)), requires_grad=input_grad)
        node = conv2d(x, layer)
        grads = node._backward(rng.normal(size=node.shape))
        digest = Digest()
        digest.array("out", node.data)
        for name, grad in zip(("gx", "gw", "gb"), grads):
            if grad is not None:
                digest.array(name, grad)
        name = f"B{B}_C{C}_{H}x{W}_O{O}_k{k}_s{s}_d{d}_bias{int(bias)}_gx{int(input_grad)}"
        out[f"conv_{name}"] = digest.hex()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(harness.ROOT / "src"), help="directory holding cracenet")
    args = parser.parse_args(argv)
    for var in harness.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        hashes = {"losses": loss_case(), **train_cases(tmp), **infer_cases(tmp),
                  "step_rgbd256": step_case(tmp), **conv_cases()}
    print(json.dumps(hashes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
