"""Training-step time and peak memory, one fresh process per case.

Run from the root of a checkout::

    python3 scripts/bench_train.py --label change
    python3 scripts/bench_train.py --label parent --src /path/to/other/checkout/src \
        --skip "rgbd352:needs more memory than this machine has"

Each case writes its scenes with ``data.gen_synthetic``, loads them and
calls ``trainer.train`` once, without multi-scale resizing so that every
step trains on the same shapes:

- ``rgb64``: RGB, 64x64, batch 4, scene seed 22;
- ``rgbd256``: RGB-D, 256x256, batch 2, scene seed 0 (the
  ``train_rgbd256`` benchmark workload's shapes);
- ``rgb352`` and ``rgbd352``: RGB and RGB-D at the paper's 352x352, batch
  4, scene seed 0.

A step is timed from one ``sgd_step`` return to the next, as in
``bench/workloads.py``; the first step is a warm-up and is dropped.  The
result holds the median and quartiles of the remaining steps, the peak
resident set size of the case's process (``ru_maxrss``; each case runs in
its own subprocess, so one case's peak does not hide another's) and the
final loss row.  A case whose process fails, for instance because it is
killed for memory, gets a row with its ``exit_status`` (negative: the signal)
and the last line of its standard error instead, and the other cases still
run.  ``--skip NAME:REASON`` records a case as not run, with the reason,
without starting it.  The rows are stored, with the machine, under
``runs[<label>]`` of ``BENCH_train.json`` at the root of the checkout; other
labels already in the file are kept.  BLAS is pinned to one thread, as in
``bench/run.py``.

The ``rgb64`` case's level-2 heads saturate after a few steps (ROADMAP item
1); the sigmoid's backward flushes the subnormal gradients this makes, so
its steps no longer slow down as they appear.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_infer import machine

ROOT = Path(__file__).resolve().parents[1]

# name: (mode, side, batch, scenes, scene seed, timed steps)
CASES = {
    "rgb64": ("rgb", 64, 4, 8, 22, 20),
    "rgbd256": ("rgbd", 256, 2, 4, 0, 8),
    "rgb352": ("rgb", 352, 4, 4, 0, 3),
    "rgbd352": ("rgbd", 352, 4, 4, 0, 3),
}


def run_case(name: str) -> dict:
    """Train one case in this process and return its measurements."""
    from cracenet import data, trainer

    mode, side, batch, scenes, scene_seed, steps = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        data.gen_synthetic(tmp, scenes, side, seed=scene_seed, with_depth=mode == "rgbd")
        samples = data.load_dataset(tmp, with_depth=mode == "rgbd")
    cfg = trainer.TrainConfig(
        total_steps=steps + 1,
        batch_size=batch,
        input_size=side,
        seed=0,
        mode=mode,
        multiscale=False,
    )
    stamps: list[float] = []
    sgd_step = trainer.sgd_step

    def clocked_sgd_step(*args, **kwargs):
        sgd_step(*args, **kwargs)
        stamps.append(time.perf_counter())

    trainer.sgd_step = clocked_sgd_step
    start = time.perf_counter()
    try:
        result = trainer.train(samples, cfg)
    finally:
        trainer.sgd_step = sgd_step
    step_ms = [(b - a) * 1e3 for a, b in zip([start] + stamps, stamps)][1:]
    q1, median, q3 = statistics.quantiles(step_ms, n=4, method="inclusive")
    return {
        "mode": mode,
        "side": side,
        "batch": batch,
        "scene_seed": scene_seed,
        "step_ms": {"median": median, "q1": q1, "q3": q3, "n": len(step_ms)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_loss": {k: float(v) for k, v in result.log_rows[-1].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", help="key of this run in the output")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding cracenet")
    parser.add_argument(
        "--skip", action="append", default=[], metavar="NAME:REASON",
        help="record case NAME as not run, for REASON",
    )
    parser.add_argument("--case", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = str(Path(args.src).resolve())

    if args.case:  # worker: one case in a fresh process
        sys.path.insert(0, src)
        print(json.dumps(run_case(args.case)))
        return 0
    if not args.label:
        parser.error("--label is required")
    skipped = dict(item.partition(":")[::2] for item in args.skip)
    if set(skipped) - set(CASES):
        parser.error(f"--skip: unknown case {sorted(set(skipped) - set(CASES))}")

    cases = {}
    for name in CASES:
        if name in skipped:
            cases[name] = {"not_run": skipped[name]}
            print(f"{name}: not run ({skipped[name]})", flush=True)
            continue
        proc = subprocess.run(
            [sys.executable, __file__, "--case", name, "--src", src],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            err = proc.stderr.strip().splitlines()
            cases[name] = {"exit_status": proc.returncode, "error": err[-1] if err else ""}
            print(f"{name}: failed with exit status {proc.returncode}", flush=True)
            continue
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        cases[name] = row
        print(
            f"{name}: step {row['step_ms']['median']:.1f} ms "
            f"[{row['step_ms']['q1']:.1f}, {row['step_ms']['q3']:.1f}], "
            f"peak RSS {row['peak_rss_mb']:.0f} MB",
            flush=True,
        )

    out = ROOT / "BENCH_train.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("script", "scripts/bench_train.py")
    doc.setdefault("model", "trainer.train, default network, seed 0, multiscale off")
    doc.setdefault("runs", {})
    doc["runs"][args.label] = {"machine": machine(), "cases": cases}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out.name} [{args.label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
