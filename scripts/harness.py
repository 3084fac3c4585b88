"""What the ``scripts/bench_*.py`` scripts share: flags, timing, workers, output.

A script names its cases and measures one case in a ``run_case(name)`` that
returns a JSON row.  ``run_cases`` runs every case in a fresh worker process:
the same script started again with the hidden ``--case NAME`` flag, which
``parse_args`` answers with that case's row.  So no case's numbers carry the
heap or the caches of another case or of the parent process.  Each timer
first makes one untimed warm-up call in its worker.  A case whose worker
fails, for instance because it is killed for memory, gets a row with its
``exit_status`` (negative: the signal) and the last line of its standard
error instead, and the other cases still run.

Every process imports ``cracenet`` from ``--src`` (the checkout's ``src`` by
default) and pins BLAS to one thread, as ``bench/run.py`` does.
``write_run`` stores the rows, with the machine, under ``runs[<label>]`` of
the script's ``BENCH_<topic>.json`` at the root of the checkout; other
labels already in the file are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parser(doc: str) -> argparse.ArgumentParser:
    """The flags every script takes; the first line of ``doc`` describes it."""
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    parser.add_argument("--label", help="key of this run in the output")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding cracenet")
    parser.add_argument("--case", help=argparse.SUPPRESS)
    return parser


def parse_args(parser: argparse.ArgumentParser, run_case, argv=None) -> argparse.Namespace:
    """Parse the flags, pin BLAS and put ``--src`` first on the import path.

    In a worker, measure its case, print the row as the last line of
    standard output and exit.
    """
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    args.src = str(Path(args.src).resolve())
    sys.path.insert(0, args.src)
    if args.case is not None:
        print(json.dumps(run_case(args.case)))
        sys.exit(0)
    if not args.label:
        parser.error("--label is required")
    return args


def run_cases(script: str, src: str, names, show) -> dict:
    """Row per case name, each measured by a fresh worker of ``script``.

    ``show(name, row)`` gives the line printed for a case that ran.
    """
    rows = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, script, "--case", name, "--src", src],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            err = proc.stderr.strip().splitlines()
            rows[name] = {"exit_status": proc.returncode, "error": err[-1] if err else ""}
            print(f"{name}: failed with exit status {proc.returncode}", flush=True)
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(show(name, rows[name]), flush=True)
    return rows


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method) of ``values``, with their count."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def timed(fn, repeats: int, scale: float = 1e3) -> dict:
    """Quartiles of ``repeats`` timed calls of ``fn``, in seconds times ``scale``
    (milliseconds by default), after one untimed warm-up call that pays the
    first-touch allocations and per-shape caches."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * scale)
    return quartiles(times)


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


def write_run(script: str, label: str, model: str, run: dict) -> None:
    """Store ``run`` with the machine under ``runs[label]`` of the
    ``BENCH_<topic>.json`` of ``script`` (``bench_<topic>.py``)."""
    out = ROOT / f"BENCH_{Path(script).stem.removeprefix('bench_')}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["script"] = f"scripts/{Path(script).name}"
    doc["model"] = model
    doc.setdefault("runs", {})[label] = {"machine": machine(), **run}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out.name} [{label}]")
