"""The benchmark's workloads: closed loops over cracenet's public API.

Each workload writes its inputs from the workload seed with
``data.gen_synthetic`` (``generate``), loads them as the program would
(``setup``, the timed set-up) and then runs *episodes*, a fixed amount of
work that one caller waits on before starting the next.  Episodes of one
seed are deterministic, so their outputs are compared bit for bit with
each other and between the untraced and the traced run.  ``verify`` checks outputs outside the timed
and traced regions; every check counts as one attempted operation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cracenet import data, losses, metrics, network, trainer

# The trainer's seed (initial weights, batch order, flips and crops) is
# part of the workload, not of its inputs: the workload seed picks the
# scenes.
TRAIN_SEED = 0
# The reference run, whose outputs are committed in reference.json: the
# seed of its inputs and how much work it does.
REFERENCE_SEED = 0
REFERENCE_STEPS = 2
REFERENCE_SCENES = 2
# Final loss: relative tolerance.  Float64 training on another BLAS build
# may round the last bits differently.
LOSS_REL_TOL = 1e-6
# Metric report: absolute tolerance, the change the project accepts from
# an inference-only precision policy.
REPORT_ABS_TOL = 1e-3


class Checks:
    """Counts checked operations and keeps a message for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Episode:
    seconds: float  # wall time of the whole episode
    items: int  # samples trained or images served
    op_seconds: list[float]  # one entry per training step or infer call
    outputs: dict  # compared bit for bit between episodes of one seed
    detail: dict = field(default_factory=dict)  # what ``verify`` needs beyond outputs
    eval_s: float = 0.0  # time spent in metrics.evaluate_dataset


def identical(a, b) -> bool:
    """Bit-for-bit equality of nested dicts, lists, arrays and numbers."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            identical(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(identical(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    return type(a) is type(b) and a == b


def _close(got: dict, want: dict, rel: float, abs_: float) -> bool:
    return got.keys() == want.keys() and all(
        math.isclose(got[k], want[k], rel_tol=rel, abs_tol=abs_) for k in want
    )


@dataclass(frozen=True)
class TrainWorkload:
    """``trainer.train`` episodes; the operation is one training step."""

    name: str
    mode: str
    size: int
    scenes: int
    batch: int
    steps: int  # per episode
    checkpoint_interval: int

    def _config(self, steps: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            total_steps=steps,
            batch_size=self.batch,
            input_size=self.size,
            seed=TRAIN_SEED,
            mode=self.mode,
            multiscale=False,  # every step trains on the same shapes
            checkpoint_interval=self.checkpoint_interval,
        )

    def generate(self, seed: int, work: Path) -> None:
        data.gen_synthetic(
            work / "data", self.scenes, self.size, seed=seed, with_depth=self.mode == "rgbd"
        )

    def setup(self, seed: int, work: Path):
        """Load the scenes ``generate`` wrote; ``train`` builds the model."""
        return data.load_dataset(work / "data", with_depth=self.mode == "rgbd")

    def verify_setup(self, samples, checks: Checks) -> None:
        checks.check(len(samples) == self.scenes, "set-up produced the wrong scene count")

    def episode(self, samples, work: Path) -> Episode:
        """One ``train`` call; the step clock reads the time after each
        ``sgd_step``, so a step also carries the checkpoint written after
        the step before it."""
        stamps: list[float] = []
        sgd_step = trainer.sgd_step

        def clocked_sgd_step(*args, **kwargs):
            sgd_step(*args, **kwargs)
            stamps.append(time.perf_counter())

        trainer.sgd_step = clocked_sgd_step
        start = time.perf_counter()
        try:
            result = trainer.train(samples, self._config(self.steps), out_dir=work)
        finally:
            trainer.sgd_step = sgd_step
        seconds = time.perf_counter() - start
        return Episode(
            seconds=seconds,
            items=self.steps * self.batch,
            op_seconds=np.diff([start] + stamps).tolist(),
            outputs={"loss_log": result.log_rows, "arrays": result.model.export_arrays()},
            detail={"work": work},
        )

    def verify(self, ep: Episode, checks: Checks) -> None:
        rows = ep.outputs["loss_log"]
        checks.check(len(rows) == self.steps, f"loss log has {len(rows)} rows")
        for row in rows:
            checks.check(
                all(math.isfinite(v) for v in row.values()),
                f"non-finite loss at step {row['step']}",
            )
        work = ep.detail["work"]
        saved = [
            (work / f"checkpoint_step{s:06d}.ckpt", s)
            for s in range(self.checkpoint_interval, self.steps, self.checkpoint_interval)
        ]
        saved.append((work / "checkpoint.ckpt", self.steps))
        final = ep.outputs["arrays"]
        for path, step in saved:
            try:
                snapshot, arrays = data.load_checkpoint(path)  # checks magic and CRC32
            except (OSError, data.CorruptCheckpointError) as err:
                checks.check(False, f"{path.name}: {err}")
                continue
            ok = snapshot["step"] == step
            if step == self.steps:
                ok = ok and all(np.array_equal(arrays.get(k), v) for k, v in final.items())
            checks.check(ok, f"{path.name} does not hold the trained model at step {step}")

    def reference(self, work: Path) -> dict:
        """Loss row of the last step of a short run on the reference seed."""
        self.generate(REFERENCE_SEED, work)
        samples = self.setup(REFERENCE_SEED, work)
        result = trainer.train(samples, self._config(REFERENCE_STEPS))
        return dict(result.log_rows[-1])

    def check_reference(self, got: dict, want: dict, checks: Checks) -> None:
        checks.check(
            _close(got, want, LOSS_REL_TOL, 0.0),
            f"final loss {got} differs from the reference {want}",
        )


@dataclass
class Served:
    model: network.SodNetwork
    root: Path
    saved_arrays: dict


@dataclass(frozen=True)
class PredictWorkload:
    """The serving path; the operation is one ``SodNetwork.infer`` call."""

    name: str
    size: int
    scenes: int
    passes: int

    def generate(self, seed: int, work: Path, scenes: int | None = None) -> None:
        data.gen_synthetic(work / "data", scenes or self.scenes, self.size, seed=seed)

    def setup(self, seed: int, work: Path) -> Served:
        """A freshly seeded RGB model, saved and reloaded, to serve the
        scenes ``generate`` wrote."""
        net_cfg = network.NetworkConfig.default("rgb")
        fresh = network.SodNetwork(net_cfg, seed=seed).export_arrays()
        snapshot = trainer.config_snapshot(
            0, trainer.TrainConfig(seed=seed, input_size=self.size), net_cfg, losses.LossConfig()
        )
        data.save_checkpoint(work / "model.ckpt", snapshot, fresh)
        model, *_ = trainer.build_model_from_checkpoint(work / "model.ckpt")
        return Served(model, work / "data", fresh)

    def verify_setup(self, served: Served, checks: Checks) -> None:
        checks.check(
            identical(served.model.export_arrays(), served.saved_arrays),
            "reloaded model differs from the saved one",
        )

    def episode(self, served: Served, work: Path, passes: int | None = None) -> Episode:
        """Read the scenes, infer each ``passes`` times (timing every call),
        write the maps and evaluate them against the ground truth."""
        start = time.perf_counter()
        paths = sorted((served.root / "images").glob("*.ppm"))
        images = [data.load_rgb(p) for p in paths]
        latencies: list[float] = []
        maps_by_pass = []
        for _ in range(passes or self.passes):
            maps = []
            for image in images:
                t0 = time.perf_counter()
                maps.append(served.model.infer(image))
                latencies.append(time.perf_counter() - t0)
            maps_by_pass.append(maps)
        out_dir = work / "maps"
        out_dir.mkdir(parents=True)
        for path, saliency in zip(paths, maps_by_pass[0]):
            data.save_gray(out_dir / f"{path.stem}.pgm", saliency)
        t0 = time.perf_counter()
        report = metrics.evaluate_dataset(out_dir, served.root / "gt")
        eval_s = time.perf_counter() - t0
        return Episode(
            seconds=time.perf_counter() - start,
            items=len(images),
            op_seconds=latencies,
            outputs={
                "maps": maps_by_pass[0],
                "report": report.as_dict(),
                "pr": report.pr,
                "per_image": report.per_image,
            },
            detail={"maps_by_pass": maps_by_pass},
            eval_s=eval_s,
        )

    def verify(self, ep: Episode, checks: Checks) -> None:
        first, *later = ep.detail["maps_by_pass"]
        for maps in (first, *later):
            for m in maps:
                checks.check(
                    m.shape == (self.size, self.size)
                    and bool(np.all((m > 0.0) & (m < 1.0))),
                    "saliency map has the wrong shape or leaves (0, 1)",
                )
        for maps in later:
            checks.check(identical(maps, first), "a later inference pass differs")
        values = ep.outputs["report"].values()
        checks.check(
            len(ep.outputs["per_image"]) == ep.items
            and all(0.0 <= v <= 1.0 for v in values),
            f"metric report out of range: {ep.outputs['report']}",
        )

    def reference(self, work: Path) -> dict:
        """Metric report of one pass over the reference seed's scenes."""
        self.generate(REFERENCE_SEED, work, scenes=REFERENCE_SCENES)
        served = self.setup(REFERENCE_SEED, work)
        return self.episode(served, work, passes=1).outputs["report"]

    def check_reference(self, got: dict, want: dict, checks: Checks) -> None:
        checks.check(
            _close(got, want, 0.0, REPORT_ABS_TOL),
            f"metric report {got} differs from the reference {want}",
        )


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="train_rgbd256",
            mode="rgbd",
            size=256,
            scenes=4,
            batch=2,
            steps=4,
            checkpoint_interval=2,
        ),
        PredictWorkload(
            name="predict_eval96",
            size=96,
            scenes=32,
            passes=4,
        ),
    )
}
