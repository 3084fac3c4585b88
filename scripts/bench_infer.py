"""Single-image inference latency and peak memory, with and without the graph.

Run from the root of a checkout::

    python3 scripts/bench_infer.py --label change
    python3 scripts/bench_infer.py --label parent --src /path/to/other/checkout/src

For each side in 64, 96 (the ``predict_eval96`` benchmark's size), 256 and
352, a fresh worker process (``harness.py``)
serves one random image with a freshly seeded default RGB model
(``NetworkConfig.default("rgb")``, seed 0) two ways:

- ``graph``: ``sigmoid(model.forward(x)["saliency_logits"][0])``, an
  eval-mode forward that records the autodiff graph, because the
  parameters require gradients;
- ``infer``: ``model.infer(image)``.

Latency is the median and quartiles of 7 timed calls after one untimed
warm-up call.  Memory is the ``tracemalloc`` peak of one more call,
measured apart from the timed calls because tracing slows allocation.
``maps_equal`` says whether both ways return the same bytes.  The result
goes to ``BENCH_infer.json`` as ``harness.py`` describes.
"""

from __future__ import annotations

import sys

import harness

SIDES = ("64", "96", "256", "352")
REPEATS = 7


def run_case(side: str) -> dict:
    import numpy as np
    from cracenet.network import NetworkConfig, SodNetwork
    from cracenet.tensor import Tensor, sigmoid

    model = SodNetwork(NetworkConfig.default("rgb"), seed=0)
    image = np.random.default_rng(int(side)).uniform(size=(3, int(side), int(side)))

    def graph():
        logits = model.forward(Tensor(image[None]))["saliency_logits"][0]
        return sigmoid(logits).data[0, 0]

    def infer():
        return model.infer(image)

    row = {
        "graph": harness.measure(graph, REPEATS, "latency_ms"),
        "infer": harness.measure(infer, REPEATS, "latency_ms"),
    }
    row["maps_equal"] = graph().tobytes() == infer().tobytes()
    return row


def show(side: str, row: dict) -> str:
    return (
        f"{side}x{side}: graph {row['graph']['latency_ms']['median']:.1f} ms "
        f"{row['graph']['tracemalloc_peak_mb']:.1f} MB, "
        f"infer {row['infer']['latency_ms']['median']:.1f} ms "
        f"{row['infer']['tracemalloc_peak_mb']:.1f} MB, equal {row['maps_equal']}"
    )


def main(argv=None) -> int:
    args = harness.parse_args(harness.parser(__doc__), run_case, argv)
    harness.write_run(
        __file__, args.label,
        'NetworkConfig.default("rgb"), seed 0, one image per side',
        {"sizes": harness.run_cases(__file__, args.src, SIDES, show)},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
