"""Benchmark of the cracenet pipeline, driven from outside the package.

Run from the root of a cracenet checkout::

    python3 bench/run.py --workload train_rgbd256 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` writes the inputs, sets up and runs one episode twice
untraced (a warm-up and the base of the overhead), then once traced, and
reports the per-layer metrics, the tracing overhead and whether all three
agree bit for bit.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process and prints one object per workload.
See NOTES.md for the workloads, the metrics and the machine they were
tuned on.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_FILE = BENCH_DIR / "reference.json"
# Workload and metric names, units and directions.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
# BLAS is pinned to one thread, so a run's timings do not depend on how
# many cores the host happens to lend it.
BLAS_THREADS = 1
SETUPS_PER_EPISODE = 5
TAIL_SAMPLES = 10  # a percentile is reported only with this many samples beyond it


def percentile(samples, q: float) -> float | None:
    """The ``q``-th percentile, or None unless at least ``TAIL_SAMPLES``
    samples rank above it."""
    n = len(samples)
    if n == 0 or n - math.ceil(q / 100.0 * n) < TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    mem_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_bytes / 2**20),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_seen": _blas_threads(),
        "seed": seed,
    }


def _episodes_until(wl, seed: int, inputs: Path, seconds: float, work: Path, checks):
    """Closed loop: start another episode only while it should still end
    inside the measured time.

    Each episode runs on a fresh set-up, timed ``SETUPS_PER_EPISODE``
    times, so the set-up samples spread over the run as the episodes do:
    the host's speed drifts over tens of seconds."""
    from workloads import identical

    setup_s = []
    episodes = []
    spent = 0.0
    first = None
    while not episodes or spent + episodes[-1].seconds <= seconds:
        for _ in range(SETUPS_PER_EPISODE):
            t0 = time.perf_counter()
            state = wl.setup(seed, inputs)
            setup_s.append(time.perf_counter() - t0)
            wl.verify_setup(state, checks)
        ep_dir = work / f"episode{len(episodes)}"
        ep = wl.episode(state, ep_dir)
        wl.verify(ep, checks)
        if first is None:
            first = ep.outputs
        else:
            checks.check(identical(ep.outputs, first), "an episode differs from the first one")
        ep.outputs = ep.detail = None  # keep only timings
        shutil.rmtree(ep_dir, ignore_errors=True)
        spent += ep.seconds
        episodes.append(ep)
    return setup_s, episodes


def _with_units(values: dict, declared: list[dict]) -> dict:
    """``values`` in the order and with the units BENCHMARK.json declares."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def measure(wl, seed: int, seconds: float, work: Path, checks) -> tuple[dict, list[str]]:
    """End-to-end metrics with tracing off.  The inputs are written once,
    untimed; set-up, which loads them, is timed."""
    from workloads import TrainWorkload

    inputs = work / "inputs"
    wl.generate(seed, inputs)
    setup_s, episodes = _episodes_until(wl, seed, inputs, seconds, work, checks)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = [s for ep in episodes for s in ep.op_seconds]
    items = sum(ep.items for ep in episodes)
    busy = sum(ep.seconds for ep in episodes)
    # Medians over episodes and operations: a slow spell of the host that
    # covers less than half of the run does not move them.
    rate = statistics.median(ep.items / ep.seconds for ep in episodes)
    values = {
        "setup_s": statistics.median(setup_s),
        "latency_ms_p50": 1e3 * statistics.median(ops),
        "items_per_s": rate,
        "peak_rss_mb": peak_mb,
    }
    metrics = _with_units(values, SPEC["end_to_end"])
    p50, p90 = statistics.median(ops), percentile(ops, 90)

    def timing(scale, unit):
        p90_text = (
            f"{scale * p90:.4f} {unit}" if p90 is not None
            else f"n/a (needs {TAIL_SAMPLES} samples beyond it)"
        )
        return f"{scale * p50:.4f} {unit}   (n={len(ops)})", f"{p90_text}   (n={len(ops)})"

    lines = [f"setup_s              {values['setup_s']:.4f} s   (median of {len(setup_s)})"]
    rate_note = f"(median of {len(episodes)} episodes; {items} in {busy:.2f} s)"
    if isinstance(wl, TrainWorkload):
        step_p50, step_p90 = timing(1.0, "s")
        lines += [
            f"train_samples_per_s  {rate:.4f} samples/s   {rate_note}",
            f"step_s_p50           {step_p50}",
            f"step_s_p90           {step_p90}",
        ]
    else:
        infer_p50, infer_p90 = timing(1e3, "ms")
        eval_s = sum(ep.eval_s for ep in episodes)
        lines += [
            f"infer_ms_p50         {infer_p50}",
            f"infer_ms_p90         {infer_p90}",
            f"eval_s_per_image     {eval_s / items:.4f} s/image   ({items} images)",
            f"served_images_per_s  {rate:.4f} images/s   {rate_note}",
        ]
    lines.append(f"peak_rss_mb          {peak_mb:.1f} MB   (ru_maxrss of this process)")
    return metrics, lines


def trace(wl, seed: int, work: Path, checks, trace_file: Path, machine: dict):
    """Per-layer metrics from one traced set-up plus episode.

    The same work runs untraced twice first: once to warm the process up,
    once as the base of the tracing overhead.  All three must agree bit
    for bit."""
    import instrument
    from spans import Tracer
    from workloads import identical

    def setup_and_episode(tag, wrap=lambda name, fn: fn):
        t0 = time.perf_counter()
        wrap("bench.inputs", wl.generate)(seed, work / tag)
        state = wrap("bench.setup", wl.setup)(seed, work / tag)
        ep = wrap("bench.episode", wl.episode)(state, work / tag / "episode")
        return state, ep, time.perf_counter() - t0

    runs = [setup_and_episode("warm"), setup_and_episode("plain")]
    tracer = Tracer()
    with instrument.installed(tracer):
        runs.append(setup_and_episode("traced", tracer.timed))
    for state, ep, _ in runs:
        wl.verify_setup(state, checks)
        wl.verify(ep, checks)
    (_, warm, _), (_, plain, plain_s), (_, traced, traced_s) = runs
    for ep in (plain, traced):
        checks.check(
            identical(warm.outputs, ep.outputs),
            "outputs differ between the untraced and the traced runs",
        )
    overhead = 100.0 * (traced_s / plain_s - 1.0)
    per_layer = instrument.layer_metrics(tracer, overhead, [m["name"] for m in SPEC["per_layer"]])
    metrics = _with_units(per_layer, SPEC["per_layer"])
    table = instrument.self_times(tracer.spans)
    top = instrument.top_self(table)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "machine": machine,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "self_times": table,
        "per_layer": per_layer,
    }))
    lines = [f"traced {traced_s:.3f} s vs untraced {plain_s:.3f} s: overhead {overhead:+.2f}%"]
    lines.append("top 5 by self time:")
    lines += [f"  {name:28s} {s:9.4f} s  {100 * share:5.1f}%" for name, s, share in top]
    lines += [f"{name:28s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return metrics, lines


def check_reference(wl, work: Path, checks) -> None:
    want = json.loads(REFERENCE_FILE.read_text())[wl.name]
    wl.check_reference(wl.reference(work), want, checks)


def run_one(args) -> int:
    from workloads import WORKLOADS, Checks

    wl = WORKLOADS[args.workload]
    checks = Checks()
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}")
    machine = machine_info(args.seed)
    print("# machine " + json.dumps(machine, sort_keys=True))
    try:
        if args.trace:
            trace_file = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
            metrics, lines = trace(wl, args.seed, work, checks, trace_file, machine)
        else:
            metrics, lines = measure(wl, args.seed, args.seconds, work, checks)
        check_reference(wl, work / "reference", checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(checks.failures)
    for line in lines:
        print(line)
    print(f"fail_ratio           {failed}/{checks.attempted} = {failed / checks.attempted:.4f}")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, so each gets its own peak RSS."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results), flush=True)
    return status


def update_reference() -> int:
    """Recompute reference.json; only for a deliberate change of outputs."""
    from workloads import WORKLOADS

    refs = {}
    for name, wl in WORKLOADS.items():
        work = OUT_DIR / f"reference-{os.getpid()}-{name}"
        try:
            refs[name] = wl.reference(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(json.dumps(refs, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.update_reference and args.workload is None:
        parser.error("--workload is required")
    src = ROOT / "src"
    if not (src / "cracenet" / "__init__.py").is_file():
        print(f"error: no cracenet sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    if args.update_reference:
        return update_reference()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
