"""Desk-scale training loop: SGD with momentum, warm-up, augmentation.

The optimizer follows the classic recipe: velocity v <- m*v + g + wd*p,
parameter p <- p - lr(t)*v, with the encoder on a 10x smaller learning
rate than everything else (the depth branch counts as decoder).  The
schedule ramps linearly over the warm-up steps, then decays polynomially
(power 0.9).

Every random decision is drawn from a generator seeded by (seed, step,
sample), so runs are bit-identical for a fixed seed and training resumes
exactly from a checkpoint.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .crace import CraceConfig
from .data import CorruptCheckpointError, Sample, load_checkpoint, save_checkpoint, save_gray
from .layers import check_arrays, resize_bilinear_np, resize_nearest_np
from .losses import (
    LossConfig,
    bce_loss,
    make_edge_gt,
    multilevel_edge_loss,
    multilevel_saliency_loss,
    saliency_term,
    total_loss,
)
from .metrics import MetricReport, evaluate_pairs
from .network import EncoderConfig, NetworkConfig, SodNetwork, _Undrawn
from .tensor import Tensor, backward, no_grad, sigmoid

__all__ = [
    "ABLATION_SCHEDULE",
    "CONFIG_FIELDS",
    "DivergenceError",
    "ResumeMismatchError",
    "TrainConfig",
    "TrainResult",
    "augment",
    "build_model_from_checkpoint",
    "config_snapshot",
    "configs_from_fields",
    "evaluate_model",
    "flip_horizontal",
    "format_ablation_table",
    "lr_multiplier",
    "predict_map",
    "predict_maps",
    "random_crop",
    "run_ablation",
    "sgd_step",
    "train",
]

MULTISCALE_FACTORS = (0.75, 1.0, 1.25)


class DivergenceError(RuntimeError):
    """Loss or gradient went non-finite; training aborted."""

    def __init__(self, message: str, last_checkpoint: Path | None = None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint


class ResumeMismatchError(ValueError):
    """The configs given to a resumed run differ from the checkpoint's."""


@dataclass
class TrainConfig:
    total_steps: int = 500
    batch_size: int = 4
    input_size: int = 64  # 352 for full parity runs
    seed: int = 0
    mode: str = "rgb"
    momentum: float = 0.9
    weight_decay: float = 0.0005
    lr_backbone: float = 0.005
    lr_head: float = 0.05  # 10x the backbone rate
    warmup_steps: int | None = None  # default: 5% of total
    hflip: bool = True
    random_crop: bool = True
    multiscale: bool = True
    checkpoint_interval: int = 100

    def __post_init__(self):
        if self.mode not in ("rgb", "rgbd"):
            raise ValueError(f"mode must be 'rgb' or 'rgbd', got {self.mode!r}")
        # Negated tests, so that nan fails them too.
        for name in ("lr_backbone", "lr_head"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("momentum", "weight_decay"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {getattr(self, name)}")
        if self.warmup_steps is not None and self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be non-negative, got {self.warmup_steps}")
        for name in ("total_steps", "batch_size", "checkpoint_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.input_size < 32 or self.input_size % 32:
            raise ValueError(
                f"input_size must be a positive multiple of 32, got {self.input_size}"
            )

    @property
    def warmup(self) -> int:
        if self.warmup_steps is not None:
            return max(1, self.warmup_steps)
        return max(1, round(0.05 * self.total_steps))


@dataclass
class TrainResult:
    model: SodNetwork
    log_rows: list
    checkpoint_path: Path | None
    loss_log_path: Path | None


def lr_multiplier(step: int, total: int, warmup: int) -> float:
    """Linear ramp over the warm-up, then polynomial decay (power 0.9)."""
    if step < warmup:
        return (step + 1) / warmup
    if total <= warmup:
        return 1.0
    progress = (step - warmup) / (total - warmup)
    return float((1.0 - progress) ** 0.9)


def _base_lr(name: str, cfg: TrainConfig) -> float:
    return cfg.lr_backbone if name.startswith("rgb_encoder.") else cfg.lr_head


def sgd_step(
    params: dict[str, Tensor],
    velocities: dict[str, np.ndarray],
    cfg: TrainConfig,
    multiplier: float = 1.0,
) -> None:
    """One momentum-SGD update over all parameters, in name order.

    Every gradient is checked before any parameter or velocity changes, so
    a ``DivergenceError`` leaves the model exactly as it was.
    """
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise DivergenceError(f"non-finite gradient in {name!r}")
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        v = velocities[name]
        v *= cfg.momentum
        v += g
        v += cfg.weight_decay * p.data
        p.data = p.data - (_base_lr(name, cfg) * multiplier) * v


# -- augmentation --------------------------------------------------------------


def flip_horizontal(image: np.ndarray, gt: np.ndarray, depth: np.ndarray | None):
    """Mirror all aligned fields; applying it twice is the identity."""
    image = image[..., ::-1].copy()
    gt = gt[..., ::-1].copy()
    depth = depth[..., ::-1].copy() if depth is not None else None
    return image, gt, depth


def snap32(value: float) -> int:
    """Nearest multiple of 32 (ties round up), floored at 32."""
    return max(32, int(np.floor(value / 32.0 + 0.5)) * 32)


def random_crop(
    image: np.ndarray,
    gt: np.ndarray,
    depth: np.ndarray | None,
    rng: np.random.Generator,
):
    """One shared crop window over all aligned fields; both sides keep the
    same uniform random fraction in [0.8, 1) of the input's."""
    H, W = gt.shape
    frac = rng.uniform(0.8, 1.0)
    ch, cw = max(1, round(H * frac)), max(1, round(W * frac))
    oy = int(rng.integers(0, H - ch + 1))
    ox = int(rng.integers(0, W - cw + 1))
    image = image[:, oy : oy + ch, ox : ox + cw]
    gt = gt[oy : oy + ch, ox : ox + cw]
    if depth is not None:
        depth = depth[oy : oy + ch, ox : ox + cw]
    return image, gt, depth


def augment(
    sample: Sample,
    cfg: TrainConfig,
    rng: np.random.Generator,
    target_hw: tuple[int, int] | None = None,
):
    """Geometric augmentation applied identically to image, GT and depth.

    Ground truth is resampled nearest-neighbor so it stays binary.
    """
    image, gt, depth = sample.image, sample.gt, sample.depth
    if cfg.hflip and rng.random() < 0.5:
        image, gt, depth = flip_horizontal(image, gt, depth)
    if cfg.random_crop:
        image, gt, depth = random_crop(image, gt, depth, rng)
    if target_hw is None:
        target_hw = (cfg.input_size, cfg.input_size)
    image = resize_bilinear_np(image, target_hw)
    gt = resize_nearest_np(gt, target_hw)
    if depth is not None:
        depth = resize_bilinear_np(depth, target_hw)
    return image, gt, depth


# -- loss assembly ----------------------------------------------------------------


def _assemble_losses(outputs: dict, gt: np.ndarray, edge: np.ndarray, loss_cfg: LossConfig):
    """The total loss and the logged terms L_S, L_E (and L_D with a depth head).

    Multi-level supervision covers every decoder level, else the final one
    only; only supervised levels get a sigmoid.  The total is the mean of
    S (, D) (, E): L_E is always logged but joins it only with edge supervision.

    ``outputs`` is consumed: no backward rule reads a logit, so each key is
    removed as its term is formed and each logit is dropped as its sigmoid
    is taken, rather than all of them living until the total is formed.
    """
    multi = loss_cfg.use_multilevel
    pixel = {"use_bce": loss_cfg.use_bce, "use_iou": loss_cfg.use_iou}

    def supervise(key, target):
        logits = outputs.pop(key)[: None if multi else 1]
        maps = [sigmoid(logits.pop(0)) for _ in range(len(logits))]
        target = target[:, None]
        if key == "edge_logits":
            return multilevel_edge_loss(maps, target) if multi else bce_loss(maps[0], target)
        if multi:
            return multilevel_saliency_loss(maps, target, **pixel)
        return saliency_term(maps[0], target, **pixel)

    terms = {"L_S": supervise("saliency_logits", gt), "L_E": supervise("edge_logits", edge)}
    if "depth_logits" in outputs:
        terms["L_D"] = supervise("depth_logits", gt)
    names = ["L_S", "L_D", "L_E"] if loss_cfg.use_edge else ["L_S", "L_D"]
    total = total_loss(*(terms[name] for name in names if name in terms))
    return total, {name: term.item() for name, term in terms.items()}


# -- checkpoint plumbing ------------------------------------------------------------


def config_snapshot(
    step: int, cfg: TrainConfig, net_cfg: NetworkConfig, loss_cfg: LossConfig
) -> dict:
    return {
        "step": step,
        "train": asdict(cfg),
        "loss": asdict(loss_cfg),
        "network": asdict(net_cfg),
    }


_CONFIG_CLASSES = (TrainConfig, LossConfig, CraceConfig, EncoderConfig)
CONFIG_FIELDS = {f.name: cls for cls in _CONFIG_CLASSES for f in fields(cls)}


def configs_from_fields(values: dict) -> tuple[TrainConfig, NetworkConfig, LossConfig]:
    """Flat field values -> (TrainConfig, NetworkConfig, LossConfig).

    Each key goes to the config class that declares it and fields not given
    keep their defaults; the network takes the train mode.  An unknown key
    raises ``ValueError``.
    """
    kwargs = {cls: {} for cls in _CONFIG_CLASSES}
    for key, value in values.items():
        if key not in CONFIG_FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[CONFIG_FIELDS[key]][key] = value
    train_cfg = TrainConfig(**kwargs[TrainConfig])
    net_cfg = NetworkConfig(
        EncoderConfig(**kwargs[EncoderConfig]), CraceConfig(**kwargs[CraceConfig]), train_cfg.mode
    )
    return train_cfg, net_cfg, LossConfig(**kwargs[LossConfig])


def _retired_fields(mode: str) -> dict:
    """Config fields that older snapshots hold and the code now fixes, each
    with the only value it may have been saved with."""
    return {
        "depth_input": mode == "rgbd",
        "proj_kernel": 3,
        "upsample_mode": "bilinear",
        "branches": None,
        "blocks_per_stage": 1,
        "edge_radius": 1,
    }


def _snapshot_item(tree: dict, path: str, kind=None):
    """The value at dotted ``path`` of a snapshot; ``CorruptCheckpointError``
    names the key if it is missing or, with ``kind`` given, of another type."""
    for key in path.split("."):
        if not isinstance(tree, dict) or key not in tree:
            raise CorruptCheckpointError(f"checkpoint config lacks {path!r}")
        tree = tree[key]
    if kind is not None and not isinstance(tree, kind):
        raise CorruptCheckpointError(
            f"checkpoint config {path!r} is not a {kind.__name__}: {tree!r}"
        )
    return tree


def configs_from_snapshot(snapshot: dict):
    """The configs of a checkpoint snapshot.  A missing section or mode, or
    a section that is not an object, raises ``CorruptCheckpointError``
    naming it.  A retired field is dropped if it holds its fixed value; any
    other value, or a network mode unlike the train mode, raises
    ``ValueError``."""
    train, loss, _, encoder, crace = (
        _snapshot_item(snapshot, path, dict)
        for path in ("train", "loss", "network", "network.encoder", "network.crace")
    )
    mode, train_mode = (_snapshot_item(snapshot, f"{key}.mode") for key in ("network", "train"))
    if mode != train_mode:
        raise ValueError(
            f"checkpoint network mode {mode!r} differs from train mode {train_mode!r}"
        )
    values = {**train, **loss, **encoder, **crace}
    for key, fixed in _retired_fields(mode).items():
        saved = values.pop(key, fixed)
        if saved != fixed:
            raise ValueError(
                f"checkpoint config {key} is {saved!r}; the code fixes it at {fixed!r}"
            )
    return configs_from_fields(values)


def _flat_fields(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _flat_fields(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def _check_resume_configs(snapshot: dict, cfg, net_cfg, loss_cfg) -> None:
    """Raise ``ResumeMismatchError`` naming every field whose value differs."""
    saved = dict(_flat_fields(config_snapshot(0, *configs_from_snapshot(snapshot))))
    given = _flat_fields(config_snapshot(0, cfg, net_cfg, loss_cfg))
    differ = [
        f"{name} (checkpoint {saved[name]!r}, given {value!r})"
        for name, value in given
        if saved[name] != value
    ]
    if differ:
        raise ResumeMismatchError(
            "resume config differs from the checkpoint's: " + "; ".join(differ)
        )


def build_model_from_checkpoint(path) -> tuple[SodNetwork, TrainConfig, NetworkConfig, LossConfig]:
    snapshot, arrays = load_checkpoint(path)
    train_cfg, net_cfg, loss_cfg = configs_from_snapshot(snapshot)
    model = SodNetwork(net_cfg, _rng=_Undrawn())
    model.load_arrays(arrays)
    return model, train_cfg, net_cfg, loss_cfg


def _save_training_checkpoint(path, step, model, velocities, cfg, net_cfg, loss_cfg):
    # The live arrays: save_checkpoint copies each once, into the file buffer.
    arrays = {name: t.data for name, t in model.parameters()}
    arrays.update(model.buffers())
    arrays.update(("optim/" + name, v) for name, v in velocities.items())
    save_checkpoint(path, config_snapshot(step, cfg, net_cfg, loss_cfg), arrays)


# -- the loop ------------------------------------------------------------------------


def _batch_rng(seed: int, step: int, k: int | None = None) -> np.random.Generator:
    entropy = (seed, step) if k is None else (seed, step, k)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def _train_step(model, params, velocities, samples, step, cfg, loss_cfg) -> dict:
    """Forward, backward and SGD update of one step; returns its log row.

    The step's graph is reachable only from this call's locals, so it is
    freed on return, before the next step's forward or a checkpoint write.
    """
    step_rng = _batch_rng(cfg.seed, step)
    n = len(samples)
    idx = step_rng.choice(n, size=cfg.batch_size, replace=n < cfg.batch_size)
    if cfg.multiscale:
        factor = MULTISCALE_FACTORS[int(step_rng.integers(len(MULTISCALE_FACTORS)))]
        side = snap32(cfg.input_size * factor)
    else:
        side = cfg.input_size
    images, gts, depths, edges = [], [], [], []
    for k, i in enumerate(idx):
        rng_k = _batch_rng(cfg.seed, step, k)
        img, gt, dep = augment(samples[int(i)], cfg, rng_k, (side, side))
        images.append(img)
        gts.append(gt)
        edges.append(make_edge_gt(gt))
        if cfg.mode == "rgbd":
            depths.append(dep)
    image_t = Tensor(np.stack(images))
    depth_t = Tensor(np.stack(depths)[:, None]) if cfg.mode == "rgbd" else None

    # The last step's gradients are dropped before the forward, not kept
    # through it; backward fills the new ones.
    for p in params.values():
        p.grad = None
    total, parts = _assemble_losses(
        model.forward(image_t, depth_t, training=True), np.stack(gts), np.stack(edges), loss_cfg
    )
    if not np.isfinite(total.item()):
        raise DivergenceError(f"loss became non-finite at step {step}")

    backward(total)
    for p in params.values():
        if p.grad is None:  # a parameter backward did not reach
            p.grad = np.zeros_like(p.data)
        else:  # as zeros + g would be: -0.0 becomes +0.0
            p.grad += 0.0
    mult = lr_multiplier(step, cfg.total_steps, cfg.warmup)
    sgd_step(params, velocities, cfg, mult)
    return {"step": step, "lr": cfg.lr_head * mult, "L_total": total.item(), **parts}


def train(
    samples: list[Sample],
    cfg: TrainConfig,
    net_cfg: NetworkConfig | None = None,
    loss_cfg: LossConfig | None = None,
    out_dir=None,
    resume=None,
    verbose: bool = False,
) -> TrainResult:
    """Run the full schedule; returns the model, loss log, and checkpoint.

    With ``out_dir`` set, writes ``checkpoint.ckpt`` (at intervals and at
    the end) and ``loss_log.tsv``, one row as each step finishes.
    ``resume`` continues bit-identically from a previous checkpoint given
    the same configs; ``ResumeMismatchError`` names any field that differs.
    The rows of an existing ``loss_log.tsv`` for steps before the resume
    point are kept, while ``log_rows`` holds only the steps this call ran.
    """
    if not samples:
        raise ValueError("dataset is empty")
    if cfg.mode == "rgbd" and any(s.depth is None for s in samples):
        raise ValueError("rgbd training requires depth for every sample")
    net_cfg = net_cfg or NetworkConfig.default(cfg.mode)
    loss_cfg = loss_cfg or LossConfig()
    if net_cfg.mode != cfg.mode:
        raise ValueError("network mode and train config mode differ")

    if resume is None:
        model = SodNetwork(net_cfg, seed=cfg.seed)
    else:
        snapshot, arrays = load_checkpoint(resume)
        _check_resume_configs(snapshot, cfg, net_cfg, loss_cfg)
        model = SodNetwork(net_cfg, _rng=_Undrawn())
    params = model.param_dict()
    velocities = {name: np.zeros_like(p.data) for name, p in params.items()}
    start_step = 0
    if resume is not None:
        check_arrays(arrays, {"optim/" + name: v.shape for name, v in velocities.items()})
        model.load_arrays(arrays)
        for name in velocities:
            velocities[name] = arrays["optim/" + name]
        del arrays  # the model holds copies of the rest
        start_step = _snapshot_item(snapshot, "step", int)

    out_dir = Path(out_dir) if out_dir is not None else None
    ckpt_path = out_dir / "checkpoint.ckpt" if out_dir else None
    log_path = out_dir / "loss_log.tsv" if out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    columns = ["step", "lr", "L_total", "L_S", "L_E"]
    if cfg.mode == "rgbd":
        columns.append("L_D")
    header = "\t".join(columns)
    log_rows: list[dict] = []
    if log_path:
        log_lines = [header]
        if log_path.exists():
            # A resumed run keeps the logged steps before its resume point.
            old_lines = log_path.read_text().splitlines()
            if old_lines[:1] == [header]:
                log_lines += [
                    line for line in old_lines[1:] if int(line.split("\t")[0]) < start_step
                ]
        # Rows are appended as steps finish, so a crashed run keeps its log.
        log_path.write_text("".join(line + "\n" for line in log_lines))
    last_saved: Path | None = Path(resume) if resume is not None else None
    t0 = time.time()

    for step in range(start_step, cfg.total_steps):
        try:
            row = _train_step(model, params, velocities, samples, step, cfg, loss_cfg)
        except DivergenceError as err:
            raise DivergenceError(str(err), last_checkpoint=last_saved) from None
        log_rows.append(row)
        if log_path:
            with log_path.open("a") as log:
                log.write("\t".join(_fmt_cell(row.get(c)) for c in columns) + "\n")
        if verbose and (step % 50 == 0 or step == cfg.total_steps - 1):
            print(
                f"step {step:5d}  lr {row['lr']:.5f}  loss {row['L_total']:.4f}  "
                f"({time.time() - t0:.1f}s)",
                flush=True,
            )
        if out_dir and (step + 1) % cfg.checkpoint_interval == 0 and step + 1 < cfg.total_steps:
            interval_path = out_dir / f"checkpoint_step{step + 1:06d}.ckpt"
            _save_training_checkpoint(
                interval_path, step + 1, model, velocities, cfg, net_cfg, loss_cfg
            )
            last_saved = interval_path

    if ckpt_path:
        _save_training_checkpoint(
            ckpt_path, cfg.total_steps, model, velocities, cfg, net_cfg, loss_cfg
        )
    return TrainResult(model, log_rows, ckpt_path, log_path)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.6f}"


# -- evaluation helpers ------------------------------------------------------------


def predict_map(model: SodNetwork, s: Sample, level_dir: Path | None = None) -> np.ndarray:
    """Final saliency probability map of one sample, from ``infer``.

    With ``level_dir``, one ``forward`` that records no graph serves instead
    and also writes ``<id>_P<level>.pgm`` and ``<id>_E<level>.pgm`` for levels
    2-5 there; its level-2 saliency map is the final map, bit for bit what
    ``infer`` returns.
    """
    depth = s.depth if model.mode == "rgbd" else None
    if level_dir is None:
        return model.infer(s.image, depth)
    with no_grad():
        dep = Tensor(depth[None, None]) if depth is not None else None
        out = model.forward(Tensor(s.image[None]), dep, training=False)
        maps = [
            (sigmoid(sal).data[0, 0], sigmoid(edg).data[0, 0])
            for sal, edg in zip(out["saliency_logits"], out["edge_logits"])
        ]
    for level, (sal, edg) in enumerate(maps, start=2):
        save_gray(level_dir / f"{s.id}_P{level}.pgm", sal)
        save_gray(level_dir / f"{s.id}_E{level}.pgm", edg)
    return maps[0][0]


def predict_maps(model: SodNetwork, samples: list[Sample]) -> list[np.ndarray]:
    return [predict_map(model, s) for s in samples]


def evaluate_model(model: SodNetwork, samples: list[Sample]) -> MetricReport:
    preds = predict_maps(model, samples)
    gts = [s.gt for s in samples]
    return evaluate_pairs(preds, gts, [s.id for s in samples])


def predict_to_dir(model: SodNetwork, samples: list[Sample], out_dir) -> list[np.ndarray]:
    """Write final saliency maps as PGM.

    Returns the final probability maps before quantization.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    finals = predict_maps(model, samples)
    for s, final in zip(samples, finals):
        save_gray(out_dir / f"{s.id}.pgm", final)
    return finals


# -- ablation harness -----------------------------------------------------------------


def _first_blocks(k: int) -> dict:
    """Overrides that switch on the first ``k`` CRACE blocks and the rest off."""
    blocks = ("cross_attention", "channel_attention", "multiscale", "attentive_fusion")
    return {f"enable_{block}": i < k for i, block in enumerate(blocks)}


ABLATION_SCHEDULE: list[tuple[str, dict]] = [
    ("baseline", _first_blocks(0)),
    ("+CA", _first_blocks(1)),
    ("+CA+ChA", _first_blocks(2)),
    ("+CA+ChA+MS", _first_blocks(3)),
    ("w/o Depth", {**_first_blocks(4), "mode": "rgb"}),
    ("w/o Edge", {**_first_blocks(4), "use_edge": False}),
    ("w/o BCE", {**_first_blocks(4), "use_bce": False}),
    ("w/o IoU", {**_first_blocks(4), "use_iou": False}),
    ("w/o MLS", {**_first_blocks(4), "use_multilevel": False}),
    ("full", _first_blocks(4)),
]


def run_ablation(
    samples: list[Sample],
    cfg: TrainConfig,
    net_cfg: NetworkConfig | None = None,
    eval_samples: list[Sample] | None = None,
    rows: list[str] | None = None,
    verbose: bool = False,
) -> dict[str, MetricReport]:
    """Train and evaluate every ablation row from one config matrix.

    A row is (name, config field overrides); the overrides apply on top of
    ``cfg``, the encoder and CRACE fields of ``net_cfg`` and the default
    loss config.  The "w/o Depth" row only applies in rgbd mode; it
    retrains the model as a pure RGB network on the same images.
    """
    net_cfg = net_cfg or NetworkConfig.default(cfg.mode)
    eval_samples = eval_samples or samples
    base = {**asdict(cfg), **asdict(net_cfg.encoder), **asdict(net_cfg.crace)}
    results: dict[str, MetricReport] = {}
    for name, overrides in ABLATION_SCHEDULE:
        if rows is not None and name not in rows:
            continue
        if name == "w/o Depth" and cfg.mode != "rgbd":
            continue
        if verbose:
            print(f"[ablation] {name}", flush=True)
        result = train(samples, *configs_from_fields({**base, **overrides}))
        results[name] = evaluate_model(result.model, eval_samples)
    return results


def format_ablation_table(results: dict[str, MetricReport]) -> str:
    cols = ("maxF", "mF", "wF", "Sm")
    width = max(len(name) for name in results) + 2
    lines = ["".join(["model".ljust(width)] + [f"{c:>8s}" for c in cols])]
    for name, report in results.items():
        vals = report.as_dict()
        lines.append(
            "".join([name.ljust(width)] + [f"{vals[c]:8.4f}" for c in cols])
        )
    return "\n".join(lines)
