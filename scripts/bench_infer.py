"""Single-image inference latency and peak memory, with and without the graph.

Run from the root of a checkout::

    python3 scripts/bench_infer.py --label change
    python3 scripts/bench_infer.py --label parent --src /path/to/other/checkout/src

For each side in 64, 256 and 352 it serves one random image with a freshly
seeded default RGB model (``NetworkConfig.default("rgb")``, seed 0) two ways:

- ``graph``: ``sigmoid(model.forward(x)["saliency_logits"][0])``, an
  eval-mode forward that records the autodiff graph, because the
  parameters require gradients;
- ``infer``: ``model.infer(image)``.

Latency is the median and quartiles of 7 timed calls after one untimed
warm-up call.  Memory is the ``tracemalloc`` peak of one more call,
measured apart from the timed calls because tracing slows allocation.  The
result, with the machine, is stored under ``runs[<label>]`` of
``BENCH_infer.json`` at the root of the checkout; other labels already in the
file are kept.  BLAS is pinned to one thread, as in ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = (64, 256, 352)
REPEATS = 7
MB = 2**20


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def measure(fn) -> dict:
    fn()  # warm-up: first-touch allocations and the resample caches
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "latency_ms": {"median": median, "q1": q1, "q3": q3, "n": REPEATS},
        "tracemalloc_peak_mb": peak / MB,
    }


def run() -> dict:
    import numpy as np
    from cracenet.network import NetworkConfig, SodNetwork
    from cracenet.tensor import Tensor, sigmoid

    model = SodNetwork(NetworkConfig.default("rgb"), seed=0)
    sizes = {}
    for side in SIDES:
        image = np.random.default_rng(side).uniform(size=(3, side, side))

        def graph():
            logits = model.forward(Tensor(image[None]))["saliency_logits"][0]
            return sigmoid(logits).data[0, 0]

        def infer():
            return model.infer(image)

        row = {"graph": measure(graph), "infer": measure(infer)}
        row["maps_equal"] = graph().tobytes() == infer().tobytes()
        sizes[str(side)] = row
        print(
            f"{side}x{side}: graph {row['graph']['latency_ms']['median']:.1f} ms "
            f"{row['graph']['tracemalloc_peak_mb']:.1f} MB, "
            f"infer {row['infer']['latency_ms']['median']:.1f} ms "
            f"{row['infer']['tracemalloc_peak_mb']:.1f} MB, equal {row['maps_equal']}",
            flush=True,
        )
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding cracenet")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(args.src).resolve()))

    out = ROOT / "BENCH_infer.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("script", "scripts/bench_infer.py")
    doc.setdefault("model", 'NetworkConfig.default("rgb"), seed 0, one image per side')
    doc.setdefault("runs", {})
    doc["runs"][args.label] = {
        "machine": machine(),
        "sizes": run(),
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out.name} [{args.label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
