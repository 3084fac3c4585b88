"""Evaluation seconds per image, for ``evaluate_pairs`` and per scorer.

Run from the root of a checkout::

    python3 scripts/bench_eval.py --label change
    python3 scripts/bench_eval.py --label parent --src /path/to/other/checkout/src

For each side in 64, 256 and 352 it writes 4 scenes with
``data.gen_synthetic`` (seed 0) and pairs each ground truth with a fixed
imperfect prediction: the mask shifted by (2, 3) pixels, scaled by 0.75
and mixed with uniform noise (seed = side).  It times ``evaluate_pairs``
over the 4 pairs and each public scorer (``weighted_f``, ``s_measure``,
``e_measure``, ``pr_curve``, ``mae``) over the same pairs: one untimed
warm-up call, then the median and quartiles of 5 timed calls, divided by
the number of images.  ``report_sha256`` hashes the report's summary
values, PR curve and per-image rows, so runs of two checkouts that score
identically carry the same digest.  The result, with the machine, is stored
under ``runs[<label>]`` of ``BENCH_eval.json`` at the root of the checkout;
other labels already in the file are kept.  BLAS is pinned to one thread,
as in ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_infer import machine

ROOT = Path(__file__).resolve().parents[1]
SIDES = (64, 256, 352)
SCENES = 4
REPEATS = 5
SCORERS = ("weighted_f", "s_measure", "e_measure", "pr_curve", "mae")


def seconds_per_image(fn, n_images: int) -> dict:
    fn()  # warm-up: first-touch allocations and per-shape caches
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / n_images)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": REPEATS}


def report_digest(report) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(report.as_dict(), sort_keys=True).encode())
    h.update(report.pr.tobytes())
    h.update(json.dumps(report.per_image, sort_keys=True).encode())
    h.update(str(report.skipped_empty_gt).encode())
    return h.hexdigest()


def run() -> dict:
    import numpy as np
    from cracenet import data, metrics

    sizes = {}
    for side in SIDES:
        with tempfile.TemporaryDirectory() as tmp:
            data.gen_synthetic(tmp, SCENES, side, seed=0)
            gts = [s.gt for s in data.load_dataset(tmp)]
        rng = np.random.default_rng(side)
        preds = [
            np.clip(
                0.75 * np.roll(gt, (2, 3), axis=(0, 1)) + 0.25 * rng.uniform(size=gt.shape),
                0.0,
                1.0,
            )
            for gt in gts
        ]
        row = {
            "images": len(gts),
            "fg_fraction": float(np.mean([gt.mean() for gt in gts])),
            "evaluate_pairs_s": seconds_per_image(
                lambda: metrics.evaluate_pairs(preds, gts), len(gts)
            ),
        }
        for name in SCORERS:
            scorer = getattr(metrics, name)
            row[f"{name}_s"] = seconds_per_image(lambda: scorer(preds, gts), len(gts))
        row["report_sha256"] = report_digest(metrics.evaluate_pairs(preds, gts))
        sizes[str(side)] = row
        parts = ", ".join(f"{name} {row[f'{name}_s']['median'] * 1e3:.1f}" for name in SCORERS)
        print(
            f"{side}x{side}: evaluate_pairs {row['evaluate_pairs_s']['median'] * 1e3:.1f} ms "
            f"per image ({parts})",
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

    out = ROOT / "BENCH_eval.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("script", "scripts/bench_eval.py")
    doc.setdefault("model", "metrics on gen_synthetic masks (seed 0) and fixed noisy predictions")
    doc.setdefault("runs", {})
    doc["runs"][args.label] = {"machine": machine(), "sizes": run()}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out.name} [{args.label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
