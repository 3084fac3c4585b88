"""Where the traced run hooks into cracenet, and the per-layer metrics.

Every hook replaces a public callable in the namespace where callers look
it up (``trainer.backward`` rather than ``tensor.backward``, because the
trainer imported the name).  Layers are the package's modules; ``cli``
only delegates and is not measured.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from cracenet import crace, data, layers, metrics, network, tensor, trainer

from spans import Tracer, self_times

MB = 2**20

# (owner, attribute, span name) for plain span wrappers.
SPANS = [
    (trainer, "train", "trainer.train"),
    (trainer, "augment", "trainer.augment"),
    (trainer, "sgd_step", "trainer.sgd_step"),
    (trainer, "backward", "tensor.backward"),
    (trainer, "multilevel_saliency_loss", "losses.loss"),
    (trainer, "multilevel_edge_loss", "losses.loss"),
    (trainer, "saliency_term", "losses.loss"),
    (trainer, "bce_loss", "losses.loss"),
    (trainer, "load_checkpoint", "data.load_checkpoint"),
    (data, "load_checkpoint", "data.load_checkpoint"),
    (data, "gen_synthetic", "data.gen_synthetic"),
    (data, "load_rgb", "data.pnm_read"),
    (data, "load_gray", "data.pnm_read"),
    (data, "save_rgb", "data.pnm_write"),
    (data, "save_gray", "data.pnm_write"),
    (network.SodNetwork, "encode", "network.encode"),
    (network.SodNetwork, "encode_depth", "network.encode_depth"),
    (network.SodNetwork, "context_flow", "network.context_flow"),
    (network.SodNetwork, "predict", "network.predict"),
    (network.SodNetwork, "infer", "network.infer"),
    # cross_attention calls project, so its span includes the projections.
    (crace.CraceModule, "cross_attention", "crace.cross_attention"),
    (crace.CraceModule, "channel_attention", "crace.channel_attention"),
    (crace.CraceModule, "multi_scale", "crace.multi_scale"),
    (crace.CraceModule, "attentive_fusion", "crace.attentive_fusion"),
    (layers.BatchNormLayer, "forward", "layers.batchnorm"),
    (metrics, "evaluate_pairs", "metrics.evaluate_pairs"),
    (metrics, "weighted_f", "metrics.weighted_f"),
    (metrics, "s_measure", "metrics.s_measure"),
    (metrics, "e_measure", "metrics.e_measure"),
    (metrics, "pr_curve", "metrics.pr_curve"),
    (metrics, "mae", "metrics.mae"),
]

RESAMPLE = [(crace, "upsample"), (crace, "downsample_avg"), (network, "upsample")]
SAVE_CHECKPOINT = [(trainer, "save_checkpoint"), (data, "save_checkpoint")]
MAKE_NODE = [(tensor, "make_node"), (layers, "make_node")]

METRIC_PARTS = ("weighted_f", "s_measure", "e_measure", "pr_curve", "mae")


def conv2d_flop(in_shape, layer) -> int:
    """Multiply-add FLOPs of one forward ``conv2d`` call (bias excluded)."""
    B, C, H, W = in_shape
    Ho = -(-H // layer.stride)
    Wo = -(-W // layer.stride)
    return 2 * B * layer.out_channels * Ho * Wo * C * layer.kernel * layer.kernel


def _node_op(tracer: Tracer, fn, fwd_name: str, bwd_name: str, fwd_flop=None):
    """Time a node-returning op under ``fwd_name`` and the backward closure
    of the node it returns under ``bwd_name``; count conv FLOPs if given."""
    counters = tracer.counters

    def wrapper(x, *args, **kwargs):
        idx = tracer.begin(fwd_name)
        try:
            out = fn(x, *args, **kwargs)
        finally:
            tracer.end(idx)
        flop = fwd_flop(x.shape, *args) if fwd_flop else 0
        if flop:
            counters["layers.conv2d_calls"] += 1
            counters["layers.conv2d_flop"] += flop
        backward_fn = out._backward
        # upsample/downsample by 1 return their input: leave its node alone.
        if out is not x and backward_fn is not None:

            def timed_backward(g):
                j = tracer.begin(bwd_name)
                try:
                    return backward_fn(g)
                finally:
                    tracer.end(j)
                    if flop:
                        # grad_input and grad_weight each cost one forward pass
                        counters["layers.conv2d_flop"] += 2 * flop

            out._backward = timed_backward
        return out

    return wrapper


def _counted_make_node(tracer: Tracer, fn):
    counters = tracer.counters

    def make_node(data_, parents, backward_fn):
        out = fn(data_, parents, backward_fn)
        if out._backward is not None:
            counters["tensor.recorded_nodes"] += 1
            counters["tensor.recorded_bytes"] += out.data.nbytes
        return out

    return make_node


def _sized_save(tracer: Tracer, fn):
    timed = tracer.timed("data.save_checkpoint", fn)

    def save_checkpoint(path, *args, **kwargs):
        timed(path, *args, **kwargs)
        tracer.counters["data.checkpoint_bytes"] += os.path.getsize(path)

    return save_checkpoint


@contextmanager
def installed(tracer: Tracer):
    """Hook every traced callable for the duration of the block."""
    try:
        for owner, attr, name in SPANS:
            tracer.patch(owner, attr, lambda fn, name=name: tracer.timed(name, fn))
        for owner, attr in RESAMPLE:
            tracer.patch(
                owner, attr,
                lambda fn: _node_op(tracer, fn, "layers.resample", "layers.resample"),
            )
        tracer.patch(
            layers, "conv2d",
            lambda fn: _node_op(
                tracer, fn, "layers.conv2d_fwd", "layers.conv2d_bwd", conv2d_flop
            ),
        )
        for owner, attr in SAVE_CHECKPOINT:
            tracer.patch(owner, attr, lambda fn: _sized_save(tracer, fn))
        for owner, attr in MAKE_NODE:
            tracer.patch(owner, attr, lambda fn: _counted_make_node(tracer, fn))
        yield tracer
    finally:
        tracer.restore()


def layer_metrics(tracer: Tracer, overhead_pct: float, names) -> dict[str, float]:
    """The per-layer metrics ``names``, as BENCHMARK.json lists them.

    Times are self seconds summed over the traced region.  A layer the
    workload never enters reads 0."""
    table = self_times(tracer.spans)
    c = tracer.counters

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    out = {m: self_s(m[:-2]) for m in names if m.endswith("_s")}
    conv_s = out["layers.conv2d_fwd_s"] + out["layers.conv2d_bwd_s"]
    gflop = c["layers.conv2d_flop"] / 1e9
    parts = sum(table.get("metrics." + p, {}).get("total_s", 0.0) for p in METRIC_PARTS)
    evaluate = table.get("metrics.evaluate_pairs", {}).get("total_s", 0.0)
    out.update({
        "tensor.recorded_nodes": int(c["tensor.recorded_nodes"]),
        "tensor.recorded_mb": c["tensor.recorded_bytes"] / MB,
        "layers.conv2d_calls": int(c["layers.conv2d_calls"]),
        "layers.conv2d_gflop": gflop,
        "layers.conv2d_gflops": gflop / conv_s if conv_s > 0 else 0.0,
        "data.checkpoint_mb": c["data.checkpoint_bytes"] / MB,
        "metrics.recompute_base_s": parts,
        # evaluate_pairs (inclusive) over its five metric parts; 0 when the
        # workload evaluates nothing.
        "metrics.recompute_ratio": evaluate / parts if parts > 0 else 0.0,
        "trace.overhead_pct": overhead_pct,
    })
    return {name: out[name] for name in names}


def top_self(table: dict[str, dict[str, float]], k: int = 5) -> list[tuple[str, float, float]]:
    """The ``k`` span names with the most self time, with their share."""
    total = sum(row["self_s"] for row in table.values()) or 1.0
    ranked = sorted(table.items(), key=lambda kv: kv[1]["self_s"], reverse=True)[:k]
    return [(name, row["self_s"], row["self_s"] / total) for name, row in ranked]
