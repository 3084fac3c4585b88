"""Tests for the benchmark's own helpers: the percentile rule, self-time
subtraction and the conv FLOP count.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cracenet import layers  # noqa: E402
from cracenet.tensor import Tensor, backward  # noqa: E402

import instrument  # noqa: E402
import run  # noqa: E402
from run import percentile  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 100)), 90) is None  # 99 samples: 9 beyond
    assert percentile(list(range(1, 101)), 90) == 90.1  # 100 samples: 10 beyond
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == 9.5
    assert percentile([], 50) is None


def test_percentile_ignores_input_order():
    values = [float(v) for v in np.random.default_rng(0).permutation(200)]
    assert percentile(values, 90) == percentile(sorted(values), 90)


def test_self_time_subtracts_children_not_grandchildren():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.begin("root")
    a = tracer.begin("a")
    a1 = tracer.begin("a1")
    tracer.end(a1)
    tracer.end(a)
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(root)
    table = self_times(tracer.spans)
    assert {k: v["self_s"] for k, v in table.items()} == {
        "root": 3.0, "a": 2.0, "a1": 1.0, "b": 4.0,
    }
    assert table["root"]["total_s"] == 10.0
    assert sum(v["self_s"] for v in table.values()) == 10.0


def test_self_time_sums_repeated_names():
    spans = [["x", 0.0, 4.0, -1], ["y", 1.0, 2.0, 0], ["y", 2.5, 3.0, 0]]
    table = self_times(spans)
    assert table["x"]["self_s"] == 2.5
    assert table["y"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}


def test_conv2d_flop_on_known_shape():
    layer = layers.Conv2dLayer(3, 4, kernel=3, stride=2)
    # (2, 3, 8, 8) -> (2, 4, 4, 4); 27 multiply-adds per output element
    assert instrument.conv2d_flop((2, 3, 8, 8), layer) == 2 * (2 * 4 * 4 * 4) * 27
    assert instrument.conv2d_flop((1, 3, 7, 7), layer) == 2 * (1 * 4 * 4 * 4) * 27


def _conv_step(layer, x):
    out = layers.conv2d(x, layer)
    loss = (out * out).sum()
    layer.weight.grad = None
    backward(loss)
    return out.data, layer.weight.grad


def test_traced_conv_counts_flops_and_keeps_results():
    layer = layers.Conv2dLayer(3, 4, kernel=3, stride=1)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8, 8)), requires_grad=True)
    plain_out, plain_grad = _conv_step(layer, x)
    original = layers.conv2d
    tracer = Tracer()
    with instrument.installed(tracer):
        assert layers.conv2d is not original
        traced_out, traced_grad = _conv_step(layer, x)
    assert layers.conv2d is original
    assert plain_out.tobytes() == traced_out.tobytes()
    assert plain_grad.tobytes() == traced_grad.tobytes()
    fwd = instrument.conv2d_flop(x.shape, layer)
    assert tracer.counters["layers.conv2d_flop"] == 3 * fwd  # forward + two gradients
    assert tracer.counters["layers.conv2d_calls"] == 1
    names = [span[0] for span in tracer.spans]
    assert names.count("layers.conv2d_fwd") == 1
    assert names.count("layers.conv2d_bwd") == 1


def test_harness_produces_every_declared_workload_and_metric():
    assert all(name in WORKLOADS for name in run.WORKLOAD_NAMES)
    names = [m["name"] for m in run.SPEC["per_layer"]]
    assert list(instrument.layer_metrics(Tracer(), 0.0, names)) == names
