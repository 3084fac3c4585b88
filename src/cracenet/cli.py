"""Command-line entry points: gen-data, train, eval, predict.

The CLI is the only process boundary; it assembles configs (defaults,
then config file, then explicit flags) and calls library functions that
never touch environment variables or global state.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import (
    ConfigFileError,
    Sample,
    gen_synthetic,
    load_dataset,
    load_gray,
    load_rgb,
    parse_config_text,
    save_gray,
)
from .layers import resize_bilinear_np
from .metrics import evaluate_dataset
from .trainer import (
    CONFIG_FIELDS,
    build_model_from_checkpoint,
    configs_from_fields,
    predict_map,
    train,
)

__all__ = ["main"]


class UsageError(ValueError):
    """Bad flag combination; maps to exit code 2."""


# -- config file assembly -----------------------------------------------------


def _parse_bool(v: str) -> bool:
    low = v.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigFileError(f"expected a boolean, got {v!r}")


def _parse_value(text: str, kind):
    """One config value parsed by its dataclass field type."""
    if type(None) in get_args(kind):  # X | None: parse as X
        (kind,) = (arg for arg in get_args(kind) if arg is not type(None))
    if kind is bool:
        return _parse_bool(text)
    if get_origin(kind) is tuple:  # tuple[int, ...]
        return tuple(int(part) for part in text.split(",") if part.strip())
    return kind(text)  # int, float or str


def build_configs(raw: dict[str, str]):
    """Raw key/value pairs -> (TrainConfig, NetworkConfig, LossConfig).

    String values are parsed by the type of the dataclass field they name;
    other values pass through.  Unknown keys are errors, not warnings.
    """
    values = {}
    for key, value in raw.items():
        if key not in CONFIG_FIELDS:
            raise ConfigFileError(f"unknown config key {key!r}")
        if isinstance(value, str):
            value = _parse_value(value, get_type_hints(CONFIG_FIELDS[key])[key])
        values[key] = value
    return configs_from_fields(values)


# -- subcommands ------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    ids = gen_synthetic(
        args.out,
        n=args.n,
        size=args.size,
        seed=args.seed,
        with_depth=args.with_depth,
        depth_only_cue=args.depth_only_cue,
    )
    print(f"wrote {len(ids)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    raw: dict = {}
    if args.config:
        raw.update(parse_config_text(Path(args.config).read_text()))
    for key, value in (
        ("total_steps", args.steps),
        ("batch_size", args.batch_size),
        ("seed", args.seed),
        ("mode", args.mode),
        ("input_size", args.input_size),
    ):
        if value is not None:
            raw[key] = value
    train_cfg, net_cfg, loss_cfg = build_configs(raw)
    samples = load_dataset(args.data, with_depth=train_cfg.mode == "rgbd")
    result = train(
        samples,
        train_cfg,
        net_cfg,
        loss_cfg,
        out_dir=args.out,
        resume=args.resume,
        verbose=not args.quiet,
    )
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"loss log:   {result.loss_log_path}")
    return 0


def _cmd_eval(args) -> int:
    report = evaluate_dataset(args.pred, args.gt)
    print(report.text_table())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.text_table() + "\n")
        (out / "report.tsv").write_text(report.delimited())
        (out / "pr_curve.tsv").write_text(report.pr_rows())
        print(f"report files in {out}")
    return 0


def _cmd_predict(args) -> int:
    model, train_cfg, net_cfg, _ = build_model_from_checkpoint(args.checkpoint)
    if model.mode == "rgb" and args.depth_dir is not None:
        raise UsageError("--depth-dir given, but the checkpoint is an RGB model")
    if model.mode == "rgbd" and args.depth_dir is None:
        raise UsageError("the checkpoint is an RGB-D model; pass --depth-dir")
    image_files = sorted(Path(args.images).glob("*.ppm"))
    if not image_files:
        raise FileNotFoundError(f"no .ppm images under {args.images}")
    side = train_cfg.input_size
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = []
    originals = {}
    for path in image_files:
        image = load_rgb(path)
        originals[path.stem] = image.shape[1:]
        depth = None
        if args.depth_dir is not None:
            depth = load_gray(Path(args.depth_dir) / f"{path.stem}.pgm")
            depth = resize_bilinear_np(depth, (side, side))
        samples.append(
            Sample(
                resize_bilinear_np(image, (side, side)),
                np.zeros((side, side)),
                depth,
                path.stem,
            )
        )
    level_dir = out_dir if args.dump_levels else None
    for s in samples:
        final = predict_map(model, s, level_dir)
        # Each final map goes back to its image's native resolution and is
        # quantized once, after the resize.
        save_gray(out_dir / f"{s.id}.pgm", resize_bilinear_np(final, originals[s.id]))
    print(f"wrote {len(samples)} saliency maps to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cracenet",
        description="Unified RGB / RGB-D salient object detection at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--size", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--with-depth", action="store_true")
    g.add_argument("--depth-only-cue", action="store_true",
                   help="hide shapes in RGB so depth is the only signal")
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", help="train on a dataset directory")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", help="key = value file; flags override it")
    t.add_argument("--steps", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--mode", choices=("rgb", "rgbd"))
    t.add_argument("--input-size", type=int)
    t.add_argument("--resume", help="checkpoint to continue from")
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="score predictions against ground truth")
    e.add_argument("--pred", required=True)
    e.add_argument("--gt", required=True)
    e.add_argument("--out", help="directory for report.txt / report.tsv / pr_curve.tsv")
    e.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="run a checkpoint over an image directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--depth-dir")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-levels", action="store_true",
                   help="also write per-level saliency and boundary maps")
    p.set_defaults(func=_cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failures exit 1 with a message
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
