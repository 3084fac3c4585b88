"""Dataset handling: portable pixmap I/O, synthetic scenes, checkpoints.

Images are binary PPM (P6) and grayscale maps binary PGM (P5), both
8-bit: a zero-dependency, bit-exact interchange format.  A dataset
directory holds ``images/``, ``gt/`` and optionally ``depth/`` with
matching file stems.

Checkpoints are a single binary file: magic ``CRACEv1\\0``, a JSON config
snapshot, named float64 little-endian parameter blobs, and a CRC32
trailer verified on load.  The writer lays the file out once, in one
buffer, and the reader casts each blob straight from the file's bytes, so
a round trip copies each array once each way.  The layout and bytes are
those of the earlier chunk-and-join writer, which ``tests/oracles.py``
keeps as the reference encoder.  For the default RGB model (8.2 MB) a
save takes about 17 ms and a load about 10 ms on a 2-core box with
OpenBLAS at 1 thread (``scripts/bench_ckpt.py``).
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CHECKPOINT_MAGIC",
    "CorruptCheckpointError",
    "PnmParseError",
    "Sample",
    "gen_synthetic",
    "load_checkpoint",
    "load_dataset",
    "load_gray",
    "load_rgb",
    "parse_config_text",
    "save_checkpoint",
    "save_gray",
    "save_rgb",
]

CHECKPOINT_MAGIC = b"CRACEv1\x00"


class PnmParseError(ValueError):
    """Malformed or truncated portable pixmap/graymap."""


class CorruptCheckpointError(RuntimeError):
    """Checkpoint failed its magic or checksum verification."""


class ConfigFileError(ValueError):
    """Bad line or unknown key in a key = value config file."""


# -- portable pixmaps -------------------------------------------------------


def _read_pnm(path) -> tuple[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) < 2 or raw[:2] not in (b"P5", b"P6"):
        raise PnmParseError(f"{path}: not a binary PGM/PPM (offset 0)")
    magic = raw[:2].decode()
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise PnmParseError(f"{path}: bad header token at offset {start}")
        fields.append(int(token))
    if pos >= len(raw) or not raw[pos : pos + 1].isspace():
        raise PnmParseError(f"{path}: missing header terminator at offset {pos}")
    pos += 1  # single whitespace byte separates header from payload
    width, height, maxval = fields
    if maxval != 255:
        raise PnmParseError(f"{path}: only 8-bit maps supported, maxval={maxval}")
    channels = 3 if magic == "P6" else 1
    expected = width * height * channels
    payload = raw[pos : pos + expected]
    if len(payload) != expected:
        raise PnmParseError(
            f"{path}: truncated payload, expected {expected} bytes at offset {pos}, "
            f"got {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return magic, arr.reshape(height, width)
    return magic, arr.reshape(height, width, 3)


def load_gray(path) -> np.ndarray:
    """(H, W) float map in [0, 1] from a binary PGM."""
    magic, arr = _read_pnm(path)
    if magic != "P5":
        raise PnmParseError(f"{path}: expected grayscale P5, found {magic}")
    return arr.astype(np.float64) / 255.0


def load_rgb(path) -> np.ndarray:
    """(3, H, W) float image in [0, 1] from a binary PPM."""
    magic, arr = _read_pnm(path)
    if magic != "P6":
        raise PnmParseError(f"{path}: expected color P6, found {magic}")
    return arr.astype(np.float64).transpose(2, 0, 1) / 255.0


def _quantize(arr: np.ndarray) -> np.ndarray:
    return np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)


def save_gray(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("save_gray expects an (H, W) map")
    h, w = arr.shape
    Path(path).write_bytes(f"P5 {w} {h} 255\n".encode() + _quantize(arr).tobytes())


def save_rgb(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError("save_rgb expects a (3, H, W) image")
    _, h, w = arr.shape
    payload = _quantize(arr.transpose(1, 2, 0)).tobytes()
    Path(path).write_bytes(f"P6 {w} {h} 255\n".encode() + payload)


# -- samples and datasets -----------------------------------------------------


@dataclass
class Sample:
    """One training/eval item; spatial dims agree across all fields."""

    image: np.ndarray  # (3, H, W) in [0, 1]
    gt: np.ndarray  # (H, W) binary
    depth: np.ndarray | None  # (H, W) in [0, 1]
    id: str

    def __post_init__(self):
        if self.image.shape[1:] != self.gt.shape:
            raise ValueError(f"{self.id}: image/gt dims differ")
        if self.depth is not None and self.depth.shape != self.gt.shape:
            raise ValueError(f"{self.id}: depth dims differ")


def _load_gt(path) -> np.ndarray:
    """A ground-truth map, binarized at 0.5."""
    return (load_gray(path) >= 0.5).astype(np.float64)


def load_dataset(root, with_depth: bool = False) -> list[Sample]:
    """Load every sample under root/images, root/gt (, root/depth)."""
    root = Path(root)
    image_files = sorted((root / "images").glob("*.ppm"))
    if not image_files:
        raise FileNotFoundError(f"no .ppm images under {root / 'images'}")
    samples = []
    for img_path in image_files:
        stem = img_path.stem
        gt = _load_gt(root / "gt" / f"{stem}.pgm")
        depth = None
        if with_depth:
            depth = load_gray(root / "depth" / f"{stem}.pgm")
        samples.append(Sample(load_rgb(img_path), gt, depth, stem))
    return samples


# -- synthetic scenes -----------------------------------------------------------


_OVERSAMPLE = 4  # coverage samples per pixel side


def _coverage_grid(size: int):
    n = size * _OVERSAMPLE
    coords = (np.arange(n) + 0.5) / _OVERSAMPLE  # pixel coordinates
    return np.meshgrid(coords, coords, indexing="ij")


def _shape_mask(kind: str, size: int, rng: np.random.Generator, yy, xx) -> np.ndarray:
    cy = rng.uniform(0.25, 0.75) * size
    cx = rng.uniform(0.25, 0.75) * size
    angle = rng.uniform(0.0, np.pi)
    u = (xx - cx) * np.cos(angle) + (yy - cy) * np.sin(angle)
    v = -(xx - cx) * np.sin(angle) + (yy - cy) * np.cos(angle)
    if kind == "ellipse":
        a = rng.uniform(0.12, 0.3) * size
        b = rng.uniform(0.12, 0.3) * size
        inside = (u / a) ** 2 + (v / b) ** 2 <= 1.0
    elif kind == "rectangle":
        a = rng.uniform(0.1, 0.28) * size
        b = rng.uniform(0.1, 0.28) * size
        inside = (np.abs(u) <= a) & (np.abs(v) <= b)
    else:  # blob: radial sinusoid perturbation of a disc
        base = rng.uniform(0.14, 0.28) * size
        coef = rng.uniform(0.05, 0.2, size=3)
        phase = rng.uniform(0.0, 2 * np.pi, size=3)
        theta = np.arctan2(v, u)
        radius = base * (
            1.0
            + coef[0] * np.sin(2 * theta + phase[0])
            + coef[1] * np.sin(3 * theta + phase[1])
            + coef[2] * np.sin(5 * theta + phase[2])
        )
        inside = np.sqrt(u * u + v * v) <= radius
    return inside


def _downsample_coverage(mask: np.ndarray, size: int) -> np.ndarray:
    return mask.astype(np.float64).reshape(size, _OVERSAMPLE, size, _OVERSAMPLE).mean(axis=(1, 3))


def _textured_background(size: int, rng: np.random.Generator) -> np.ndarray:
    from .layers import resize_bilinear_np

    base = rng.uniform(0.2, 0.8, size=3)
    coarse = rng.uniform(-0.15, 0.15, size=(3, 5, 5))
    texture = resize_bilinear_np(coarse, (size, size))
    noise = rng.normal(0.0, 0.02, size=(3, size, size))
    return np.clip(base[:, None, None] + texture + noise, 0.0, 1.0)


def gen_synthetic(
    out_dir,
    n: int,
    size: int = 64,
    seed: int = 0,
    with_depth: bool = False,
    depth_only_cue: bool = False,
) -> list[str]:
    """Write n synthetic scenes; ids returned in order.

    Each scene holds 1-3 anti-aliased shapes on a textured background;
    ground truth is the exact union mask with foreground fraction in
    [0.05, 0.6].  Depth (optional) gives each shape a constant disparity
    at least 0.2 above the background gradient.  With ``depth_only_cue``
    the shapes are not painted into the RGB image at all and every scene
    shares one background, so RGB carries no information about the masks
    and depth is the only signal.  Output is fully determined by the seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # A 1x1 scene's foreground fraction is 0 or 1, never within the bounds.
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    with_depth = with_depth or depth_only_cue
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    (out_dir / "gt").mkdir(parents=True, exist_ok=True)
    if with_depth:
        (out_dir / "depth").mkdir(parents=True, exist_ok=True)

    yy, xx = _coverage_grid(size)
    kinds = ("ellipse", "rectangle", "blob")
    shared_bg = None
    if depth_only_cue:
        bg_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x6B67)))
        shared_bg = _textured_background(size, bg_rng)
    ids = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i)))
        for _attempt in range(64):
            count = int(rng.integers(1, 4))
            shapes = [_shape_mask(kinds[int(rng.integers(3))], size, rng, yy, xx)
                      for _ in range(count)]
            union = np.zeros((size, size))
            for s in shapes:
                union = np.maximum(union, _downsample_coverage(s, size))
            gt = (union >= 0.5).astype(np.float64)
            frac = gt.mean()
            if 0.05 <= frac <= 0.6:
                break
        else:
            raise RuntimeError("could not sample a scene within foreground bounds")

        image = shared_bg.copy() if depth_only_cue else _textured_background(size, rng)
        coverages = [_downsample_coverage(s, size) for s in shapes]
        if not depth_only_cue:
            for cov in coverages:
                color = rng.uniform(0.0, 1.0, size=3)
                shade = rng.normal(0.0, 0.02, size=(size, size))
                layer = np.clip(color[:, None, None] + shade, 0.0, 1.0)
                image = image * (1.0 - cov) + layer * cov

        stem = f"{i:04d}"
        ids.append(stem)
        save_rgb(out_dir / "images" / f"{stem}.ppm", image)
        save_gray(out_dir / "gt" / f"{stem}.pgm", gt)

        if with_depth:
            grad_dir = rng.uniform(0.0, 2 * np.pi)
            rows = np.linspace(0.0, 1.0, size)
            ramp = np.cos(grad_dir) * rows[:, None] + np.sin(grad_dir) * rows[None, :]
            ramp = (ramp - ramp.min()) / max(ramp.max() - ramp.min(), 1e-9)
            depth = 0.05 + 0.3 * ramp + rng.normal(0.0, 0.02, size=(size, size))
            for cov in coverages:
                disparity = rng.uniform(0.65, 0.95)
                mask = cov >= 0.5
                depth[mask] = disparity + rng.normal(0.0, 0.01)
            save_gray(out_dir / "depth" / f"{stem}.pgm", np.clip(depth, 0.0, 1.0))
    return ids


# -- checkpoints ----------------------------------------------------------------------


def _pack_u32(v: int) -> bytes:
    return int(v).to_bytes(4, "little")


def save_checkpoint(path, config: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write magic + JSON config + named float64 blobs + CRC32 trailer.

    The file is laid out once, in one buffer: each array is cast straight
    into its place, and the checksum is taken over a view of the buffer.  A
    config that is not a dict, which ``load_checkpoint`` would refuse,
    raises ``TypeError`` before anything is written.
    """
    if not isinstance(config, dict):
        raise TypeError(f"checkpoint config must be a dict, not {type(config).__name__}")
    cfg = json.dumps(config, sort_keys=True).encode()
    entries = []
    size = len(CHECKPOINT_MAGIC) + 4 + len(cfg) + 4
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float64)
        nb = name.encode()
        entries.append((nb, arr))
        size += 2 + len(nb) + 1 + 4 * arr.ndim + 8 * arr.size
    size += 4
    buf = bytearray(size)
    view = memoryview(buf)
    pos = 0

    def put(piece: bytes) -> None:
        nonlocal pos
        view[pos : pos + len(piece)] = piece
        pos += len(piece)

    put(CHECKPOINT_MAGIC)
    put(_pack_u32(len(cfg)))
    put(cfg)
    put(_pack_u32(len(entries)))
    for nb, arr in entries:
        put(len(nb).to_bytes(2, "little"))
        put(nb)
        put(bytes([arr.ndim]))
        for dim in arr.shape:
            put(_pack_u32(dim))
        blob = np.frombuffer(buf, dtype="<f8", count=arr.size, offset=pos)
        blob.reshape(arr.shape)[...] = arr
        pos += blob.nbytes
    put(_pack_u32(zlib.crc32(view[len(CHECKPOINT_MAGIC) : pos])))
    # Write beside the target, then rename: a crash mid-write leaves any
    # existing checkpoint at ``path`` whole.
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(buf)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Config and arrays of a checkpoint, after its magic and CRC32 check.

    Each array is one writable float64 copy that owns its memory, cast
    straight from the file's bytes.  A payload the writer could not have
    laid out raises :class:`CorruptCheckpointError`, whatever its checksum.
    """
    raw = Path(path).read_bytes()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: bad magic bytes")
    start, end = len(CHECKPOINT_MAGIC), len(raw) - 4
    view = memoryview(raw)
    if zlib.crc32(view[start:end]) != int.from_bytes(view[end:], "little"):
        raise CorruptCheckpointError(f"{path}: checksum mismatch")
    pos = start

    def take(nbytes: int) -> int:
        """Offset in ``raw`` of the next ``nbytes`` bytes of the payload."""
        nonlocal pos
        if pos + nbytes > end:
            raise CorruptCheckpointError(f"{path}: truncated at offset {pos - start}")
        pos += nbytes
        return pos - nbytes

    def take_u(nbytes: int) -> int:
        at = take(nbytes)
        return int.from_bytes(view[at : at + nbytes], "little")

    def take_str(nbytes: int) -> str:
        at = take(nbytes)
        return str(view[at : at + nbytes], "utf-8")

    arrays: dict[str, np.ndarray] = {}
    try:  # text that is not UTF-8 or JSON, and impossible shapes, raise ValueError
        config = json.loads(take_str(take_u(4)))
        for _ in range(take_u(4)):
            name = take_str(take_u(2))
            shape = tuple(take_u(4) for _ in range(take_u(1)))
            nvals = math.prod(shape)
            at = take(nvals * 8)
            data = np.frombuffer(raw, dtype="<f8", count=nvals, offset=at).reshape(shape)
            if name in arrays:
                raise CorruptCheckpointError(f"{path}: array {name!r} appears twice")
            arrays[name] = data.astype(np.float64)
    except ValueError as err:
        raise CorruptCheckpointError(f"{path}: {err}") from None
    if pos != end:
        raise CorruptCheckpointError(f"{path}: {end - pos} bytes after the last array")
    if not isinstance(config, dict):
        raise CorruptCheckpointError(f"{path}: config header is not a JSON object")
    return config, arrays


# -- line-based config files -------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigFileError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigFileError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigFileError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out
