"""Training-step time and peak memory, one fresh process per case.

Run from the root of a checkout::

    python3 scripts/bench_train.py --label change
    python3 scripts/bench_train.py --label parent --src /path/to/other/checkout/src \
        --skip "rgbd352:needs more memory than this machine has"

Each case runs in a fresh worker process (``harness.py``), writes its
scenes with ``data.gen_synthetic``, loads them and calls ``trainer.train``
once, without multi-scale resizing so that every step trains on the same
shapes:

- ``rgb64``: RGB, 64x64, batch 4, scene seed 22;
- ``rgbd256``: RGB-D, 256x256, batch 2, scene seed 0 (the
  ``train_rgbd256`` benchmark workload's shapes);
- ``rgb352`` and ``rgbd352``: RGB and RGB-D at the paper's 352x352, batch
  4, scene seed 0.

A step is timed from one ``sgd_step`` return to the next, as in
``bench/workloads.py``; the first step is a warm-up and is dropped.  The
result holds the median and quartiles of the remaining steps, the peak
resident set size of the worker over those steps (``ru_maxrss``; as each
case has its own process, one case's peak does not hide another's), the
``tracemalloc`` peak of one training step and the final loss row.  The
traced step is one extra, untimed step run after the last timed one with
the same arguments, so no timed step pays for the tracing and the schedule
and loss rows are those of an untraced run; the RSS is read before it.
Unlike the RSS, the traced peak counts array bytes alone, whatever the
allocator keeps.
A case whose worker fails gets the failure row ``harness.py`` describes.
``--skip NAME:REASON`` records a case as not run, with the reason, without
starting it.  The result goes to ``BENCH_train.json`` as ``harness.py``
describes.

The ``rgb64`` case's level-2 heads saturate after a few steps (ROADMAP item
1); the sigmoid's backward flushes the subnormal gradients this makes, so
its steps no longer slow down as they appear.
"""

from __future__ import annotations

import resource
import sys
import tempfile
import time
import tracemalloc

import harness

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
    peaks: dict[str, float] = {}
    sgd_step, train_step = trainer.sgd_step, trainer._train_step

    def clocked_sgd_step(*args, **kwargs):
        sgd_step(*args, **kwargs)
        stamps.append(time.perf_counter())

    def train_step_then_trace_one_more(*args):
        row = train_step(*args)
        if len(stamps) == cfg.total_steps:
            peaks["rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            trainer.sgd_step = sgd_step
            tracemalloc.start()
            try:
                train_step(*args)
                peaks["traced"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return row

    trainer.sgd_step = clocked_sgd_step
    trainer._train_step = train_step_then_trace_one_more
    start = time.perf_counter()
    try:
        result = trainer.train(samples, cfg)
    finally:
        trainer.sgd_step, trainer._train_step = sgd_step, train_step
    step_ms = [(b - a) * 1e3 for a, b in zip([start] + stamps, stamps)][1:]
    return {
        "mode": mode,
        "side": side,
        "batch": batch,
        "scene_seed": scene_seed,
        "step_ms": harness.quartiles(step_ms),
        "peak_rss_mb": peaks["rss"],
        "tracemalloc_peak_mb": peaks["traced"],
        "final_loss": {k: float(v) for k, v in result.log_rows[-1].items()},
    }


def show(name: str, row: dict) -> str:
    return (
        f"{name}: step {row['step_ms']['median']:.1f} ms "
        f"[{row['step_ms']['q1']:.1f}, {row['step_ms']['q3']:.1f}], "
        f"peak RSS {row['peak_rss_mb']:.0f} MB, traced {row['tracemalloc_peak_mb']:.0f} MB"
    )


def main(argv=None) -> int:
    parser = harness.parser(__doc__)
    parser.add_argument(
        "--skip", action="append", default=[], metavar="NAME:REASON",
        help="record case NAME as not run, for REASON",
    )
    args = harness.parse_args(parser, run_case, argv)
    skipped = dict(item.partition(":")[::2] for item in args.skip)
    if set(skipped) - set(CASES):
        parser.error(f"--skip: unknown case {sorted(set(skipped) - set(CASES))}")

    for name, reason in skipped.items():
        print(f"{name}: not run ({reason})", flush=True)
    ran = harness.run_cases(__file__, args.src, [n for n in CASES if n not in skipped], show)
    cases = {n: {"not_run": skipped[n]} if n in skipped else ran[n] for n in CASES}
    harness.write_run(
        __file__, args.label, "trainer.train, default network, seed 0, multiscale off",
        {"cases": cases},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
