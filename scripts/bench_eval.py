"""Evaluation seconds per image, for ``evaluate_pairs`` and per scorer.

Run from the root of a checkout::

    python3 scripts/bench_eval.py --label change
    python3 scripts/bench_eval.py --label parent --src /path/to/other/checkout/src

For each side in 64, 256 and 352, a fresh worker process (``harness.py``)
writes 4 scenes with ``data.gen_synthetic`` (seed 0) and pairs each ground
truth with a fixed imperfect prediction: the mask shifted by (2, 3)
pixels, scaled by 0.75 and mixed with uniform noise (seed = side).  It
times ``evaluate_pairs`` over the 4 pairs and each public scorer
(``weighted_f``, ``s_measure``, ``e_measure``, ``pr_curve``, ``mae``) over
the same pairs: one untimed warm-up call, then the median and quartiles of
5 timed calls, divided by the number of images.  ``report_sha256`` hashes
the report's summary values, PR curve and per-image rows, so runs of two
checkouts that score identically carry the same digest.  The result goes
to ``BENCH_eval.json`` as ``harness.py`` describes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile

import harness

SIDES = ("64", "256", "352")
SCENES = 4
REPEATS = 5
SCORERS = ("weighted_f", "s_measure", "e_measure", "pr_curve", "mae")


def report_digest(report) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(report.as_dict(), sort_keys=True).encode())
    h.update(report.pr.tobytes())
    h.update(json.dumps(report.per_image, sort_keys=True).encode())
    h.update(str(report.skipped_empty_gt).encode())
    return h.hexdigest()


def run_case(side: str) -> dict:
    import numpy as np
    from cracenet import data, metrics

    with tempfile.TemporaryDirectory() as tmp:
        data.gen_synthetic(tmp, SCENES, int(side), seed=0)
        gts = [s.gt for s in data.load_dataset(tmp)]
    rng = np.random.default_rng(int(side))
    preds = [
        np.clip(
            0.75 * np.roll(gt, (2, 3), axis=(0, 1)) + 0.25 * rng.uniform(size=gt.shape),
            0.0,
            1.0,
        )
        for gt in gts
    ]
    per_image = 1.0 / len(gts)
    row = {
        "images": len(gts),
        "fg_fraction": float(np.mean([gt.mean() for gt in gts])),
        "evaluate_pairs_s": harness.timed(
            lambda: metrics.evaluate_pairs(preds, gts), REPEATS, per_image
        ),
    }
    for name in SCORERS:
        scorer = getattr(metrics, name)
        row[f"{name}_s"] = harness.timed(lambda: scorer(preds, gts), REPEATS, per_image)
    row["report_sha256"] = report_digest(metrics.evaluate_pairs(preds, gts))
    return row


def show(side: str, row: dict) -> str:
    parts = ", ".join(f"{name} {row[f'{name}_s']['median'] * 1e3:.1f}" for name in SCORERS)
    return (
        f"{side}x{side}: evaluate_pairs {row['evaluate_pairs_s']['median'] * 1e3:.1f} ms "
        f"per image ({parts})"
    )


def main(argv=None) -> int:
    args = harness.parse_args(harness.parser(__doc__), run_case, argv)
    harness.write_run(
        __file__, args.label,
        "metrics on gen_synthetic masks (seed 0) and fixed noisy predictions",
        {"sizes": harness.run_cases(__file__, args.src, SIDES, show)},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
