"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two overfit
criteria train real models and take a few minutes each; everything else
is oracle arithmetic.
"""

import functools
import time

import numpy as np
import pytest

from cracenet.crace import CraceConfig, CraceModule
from cracenet.data import gen_synthetic, load_dataset
from cracenet.layers import BatchNormLayer, Conv2dLayer, conv2d, downsample_avg, upsample
from cracenet.losses import (
    bce_loss,
    iou_loss,
    make_edge_gt,
    multilevel_edge_loss,
    multilevel_saliency_loss,
    total_loss_rgb,
    total_loss_rgbd,
)
from cracenet.metrics import evaluate_dataset, evaluate_pairs, f_beta, mae, max_f, mean_f, pr_curve, s_measure, e_measure, weighted_f
from cracenet.network import EncoderConfig, NetworkConfig
from cracenet.tensor import Tensor, relu
from cracenet.trainer import (
    ABLATION_SCHEDULE,
    TrainConfig,
    evaluate_model,
    format_ablation_table,
    predict_to_dir,
    run_ablation,
    train,
)
from oracles import (
    check_gradients,
    e_measure_bruteforce,
    erode_bruteforce,
    pr_bruteforce,
    s_measure_bruteforce,
    weighted_f_bruteforce,
)

SEEDS = 20
OVERFIT_STEPS = 500


def _announce(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({label}): FAIL", flush=True)
                raise
            print(f"\nACCEPTANCE {num} ({label}): PASS", flush=True)

        return wrapper

    return deco


def tensor(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# -- criterion 1: the gradient suite -----------------------------------------


def _grad_layers(seed):
    rng = np.random.default_rng(seed)
    x = tensor(rng.normal(size=(1, 2, 6, 6)) + 0.2, grad=True)

    conv = Conv2dLayer(2, 3, kernel=3, rng=rng)
    check_gradients(lambda: (conv2d(x, conv) ** 2.0).mean(),
                    [x, conv.weight, conv.bias], max_coords=40, rng=rng)

    conv_dil = Conv2dLayer(2, 2, kernel=3, dilation=2, rng=rng)
    check_gradients(lambda: (conv2d(x, conv_dil) ** 2.0).mean(),
                    [x, conv_dil.weight], max_coords=40, rng=rng)

    conv_s2 = Conv2dLayer(2, 2, kernel=3, stride=2, rng=rng)
    check_gradients(lambda: (conv2d(x, conv_s2) ** 2.0).mean(),
                    [x, conv_s2.weight], max_coords=40, rng=rng)

    conv_1x1 = Conv2dLayer(2, 4, kernel=1, rng=rng)
    check_gradients(lambda: (conv2d(x, conv_1x1) ** 2.0).mean(),
                    [x, conv_1x1.weight, conv_1x1.bias], max_coords=40, rng=rng)

    bn = BatchNormLayer(2)
    check_gradients(lambda: (bn.forward(x, True) ** 2.0).mean(),
                    [x, bn.gamma, bn.beta], max_coords=40, rng=rng)
    bn.forward(x, True)
    check_gradients(lambda: (bn.forward(x, False) ** 2.0).mean(),
                    [x, bn.gamma, bn.beta], max_coords=40, rng=rng)

    check_gradients(lambda: (relu(x) * x).mean(), [x], max_coords=40, rng=rng)
    check_gradients(lambda: (upsample(x, 2) ** 2.0).mean(), [x], max_coords=40, rng=rng)
    check_gradients(lambda: (downsample_avg(x, 2) ** 2.0).mean(), [x], max_coords=40, rng=rng)
    # the spatial mean that channel attention pools with
    check_gradients(lambda: (x.mean(axis=(2, 3), keepdims=True) ** 2.0).sum(), [x],
                    max_coords=40, rng=rng)


def _grad_crace_subblocks(seed):
    rng = np.random.default_rng(seed)
    cfg = CraceConfig(n=4, sampling_rates=(1, 2), dilation_rates=(1, 2))
    m = CraceModule(2, 3, cfg, rng=rng)
    f_l = tensor(rng.normal(size=(1, 2, 8, 8)), grad=True)
    f_g = tensor(rng.normal(size=(1, 3, 4, 4)), grad=True)
    fused_in = tensor(rng.normal(size=(1, 8, 8, 8)), grad=True)
    ms_in = tensor(rng.normal(size=(1, 4, 8, 8)), grad=True)
    pg = tensor(rng.normal(size=(1, 4, 8, 8)), grad=True)

    def pick(params, names):
        return [p for n, p in params if any(n.startswith(s) for s in names)]

    params = list(m.parameters())
    check_gradients(lambda: (m.cross_attention(f_l, f_g) ** 2.0).mean(),
                    [f_l, f_g] + pick(params, ("proj_", "att_cross")),
                    max_coords=24, rng=rng)
    check_gradients(lambda: (m.channel_attention(fused_in) ** 2.0).mean(),
                    [fused_in] + pick(params, ("channel_reduce",)),
                    max_coords=24, rng=rng)
    check_gradients(lambda: (m.multi_scale(ms_in) ** 2.0).mean(),
                    [ms_in] + pick(params, ("branch",)), max_coords=24, rng=rng)
    check_gradients(lambda: (m.attentive_fusion(ms_in, pg) ** 2.0).mean(),
                    [ms_in, pg] + pick(params, ("att_global", "fuse_reduce")),
                    max_coords=24, rng=rng)


def _grad_losses(seed):
    rng = np.random.default_rng(seed)
    p = tensor(rng.uniform(0.05, 0.95, size=(8, 8)), grad=True)
    s = (rng.uniform(size=(8, 8)) > 0.5).astype(np.float64)
    check_gradients(lambda: bce_loss(p, s), [p], rng=rng)
    check_gradients(lambda: iou_loss(p, s), [p], rng=rng)
    levels = [tensor(rng.uniform(0.05, 0.95, size=(1, 1, 8, 8)), grad=True) for _ in range(4)]
    s4 = (rng.uniform(size=(1, 1, 8, 8)) > 0.5).astype(np.float64)
    check_gradients(lambda: multilevel_saliency_loss(levels, s4), levels, max_coords=30, rng=rng)
    check_gradients(lambda: multilevel_edge_loss(levels, s4), levels, max_coords=30, rng=rng)


@_announce(1, "gradient suite, 20 seeds, < 2 min")
def test_criterion_1_gradient_suite():
    start = time.time()
    for seed in range(SEEDS):
        _grad_layers(seed)
        _grad_crace_subblocks(seed + 100)
        _grad_losses(seed + 200)
    elapsed = time.time() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


# -- criterion 2: loss oracles -------------------------------------------------


@_announce(2, "loss oracle arithmetic")
def test_criterion_2_loss_oracles():
    for side in (2, 3, 8):
        n = side * side
        val = iou_loss(tensor(np.zeros((side, side))), np.ones((side, side))).item()
        assert val == 1.0 - 1.0 / (n + 1.0)
    s = (np.random.default_rng(0).uniform(size=(6, 6)) > 0.5).astype(float)
    assert abs(bce_loss(tensor(np.full((6, 6), 0.5)), s).item() - np.log(2.0)) < 1e-9
    assert total_loss_rgb(tensor(1.0), tensor(0.5)).item() == (1.0 + 0.5) / 2.0
    assert total_loss_rgbd(tensor(0.9), tensor(0.6), tensor(0.3)).item() == (0.9 + 0.6 + 0.3) / 3.0
    assert total_loss_rgb(tensor(0.0), tensor(0.0)).item() == 0.0


# -- criterion 3: metric oracles ---------------------------------------------------


def _toy(seed, side):
    rng = np.random.default_rng(seed)
    pred = np.round(rng.uniform(size=(side, side)) * 255) / 255.0
    gt = (rng.uniform(size=(side, side)) > 0.5).astype(np.float64)
    if not gt.any():
        gt[side // 2, side // 2] = 1.0
    return pred, gt


@_announce(3, "metric oracles on toy maps")
def test_criterion_3_metric_oracles():
    pairs = [_toy(s, 3) for s in range(4)] + [_toy(9, 4)]
    preds = [p for p, _ in pairs]
    gts = [g for _, g in pairs]
    precision, recall = pr_curve(preds, gts)
    ref_p, ref_r = pr_bruteforce(preds, gts)
    assert np.max(np.abs(precision - ref_p)) <= 1e-9
    assert np.max(np.abs(recall - ref_r)) <= 1e-9
    ref_f = np.array([f_beta(p, r) for p, r in zip(ref_p, ref_r)])
    assert abs(max_f((precision, recall)) - ref_f.max()) <= 1e-9
    assert abs(mean_f(preds, gts) - ref_f.mean()) <= 1e-9

    for seed in range(5):
        pred, gt = _toy(seed + 20, 5)
        assert abs(weighted_f([pred], [gt]) - weighted_f_bruteforce(pred, gt)) <= 1e-9
    for seed in range(5):
        pred, gt = _toy(seed + 40, 8)
        assert abs(s_measure([pred], [gt]) - s_measure_bruteforce(pred, gt)) <= 1e-9
        assert abs(e_measure([pred], [gt]) - e_measure_bruteforce(pred, gt)) <= 1e-9

    # degenerate-GT special branches, 1e-6
    flat = np.full((6, 6), 0.25)
    assert abs(s_measure([flat], [np.zeros((6, 6))]) - 0.75) <= 1e-6
    assert abs(s_measure([flat], [np.ones((6, 6))]) - 0.25) <= 1e-6
    assert abs(e_measure([flat], [np.zeros((6, 6))]) - 0.75) <= 1e-6
    assert abs(e_measure([flat], [np.ones((6, 6))]) - 0.25) <= 1e-6

    # identical maps: exact perfection
    _, gt = _toy(60, 6)
    report = evaluate_pairs([gt], [gt])
    assert report.max_f == 1.0
    assert report.mean_f == 1.0
    assert report.weighted_f == 1.0
    assert report.s_measure == 1.0
    assert report.mae == 0.0


# -- criterion 4: edge generation ----------------------------------------------------


@_announce(4, "edge ground truth vs brute-force erosion")
def test_criterion_4_edge_generation():
    rng = np.random.default_rng(4)
    for _ in range(100):
        mask = (rng.uniform(size=(16, 16)) > rng.uniform(0.3, 0.7)).astype(np.float64)
        expected = mask - erode_bruteforce(mask, 1)
        assert np.array_equal(make_edge_gt(mask, 1), expected)


# -- criteria 5 and 6: overfit runs ----------------------------------------------------


def _overfit_report(tmp_path, mode, data_kw, name):
    data_dir = tmp_path / f"{name}_data"
    gen_synthetic(data_dir, n=8, size=64, seed=7, **data_kw)
    samples = load_dataset(data_dir, with_depth=mode == "rgbd")
    cfg = TrainConfig(total_steps=OVERFIT_STEPS, batch_size=4, input_size=64,
                      seed=7, mode=mode)
    start = time.time()
    result = train(samples, cfg, out_dir=tmp_path / f"{name}_run")
    elapsed = time.time() - start
    pred_dir = tmp_path / f"{name}_pred"
    predict_to_dir(result.model, samples, pred_dir)
    report = evaluate_dataset(pred_dir, data_dir / "gt")
    return report, elapsed, result


@_announce(5, "RGB overfit via the CLI: maxF >= 0.95, MAE <= 0.05, < 10 min")
def test_criterion_5_overfit_rgb(tmp_path):
    from cracenet.cli import main

    data, run = tmp_path / "data", tmp_path / "run"
    pred, rep = tmp_path / "pred", tmp_path / "report"
    assert main(["gen-data", "--out", str(data), "--n", "8", "--size", "64",
                 "--seed", "7"]) == 0
    start = time.time()
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--steps", str(OVERFIT_STEPS), "--seed", "7", "--quiet"]) == 0
    elapsed = time.time() - start
    assert main(["predict", "--checkpoint", str(run / "checkpoint.ckpt"),
                 "--images", str(data / "images"), "--out", str(pred)]) == 0
    assert main(["eval", "--pred", str(pred), "--gt", str(data / "gt"),
                 "--out", str(rep)]) == 0
    scores = dict(
        line.split("\t") for line in (rep / "report.tsv").read_text().splitlines()
    )
    print(f"  rgb overfit: {scores} in {elapsed:.0f}s")
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"
    assert float(scores["maxF"]) >= 0.95
    assert float(scores["MAE"]) <= 0.05
    # smoothed train loss is non-increasing over 50-step windows (5% slack
    # for the augmentation sampling wobble)
    log = (run / "loss_log.tsv").read_text().splitlines()
    col = log[0].split("\t").index("L_total")
    losses = [float(line.split("\t")[col]) for line in log[1:]]
    windows = [np.mean(losses[i : i + 50]) for i in range(0, OVERFIT_STEPS, 50)]
    assert all(b <= a * 1.05 for a, b in zip(windows, windows[1:])), windows


@_announce(6, "RGB-D overfit + directional depth ablation")
def test_criterion_6_overfit_rgbd(tmp_path):
    report, elapsed, _ = _overfit_report(tmp_path, "rgbd", {"with_depth": True}, "rgbd")
    print(f"  rgbd overfit: {report.as_dict()} in {elapsed:.0f}s")
    assert elapsed < 600.0
    assert report.max_f >= 0.95
    assert report.mae <= 0.05

    # depth-discriminative set: shapes invisible in RGB
    cue_dir = tmp_path / "cue_data"
    gen_synthetic(cue_dir, n=8, size=64, seed=7, depth_only_cue=True)
    samples = load_dataset(cue_dir, with_depth=True)
    full_cfg = TrainConfig(total_steps=OVERFIT_STEPS, batch_size=4, input_size=64,
                           seed=7, mode="rgbd")
    full = train(samples, full_cfg)
    full_report = evaluate_model(full.model, samples)
    rgb_cfg = TrainConfig(total_steps=OVERFIT_STEPS, batch_size=4, input_size=64,
                          seed=7, mode="rgb")
    without = train(samples, rgb_cfg)
    without_report = evaluate_model(without.model, samples)
    gap = full_report.max_f - without_report.max_f
    print(f"  depth cue: full maxF {full_report.max_f:.3f} vs w/o depth "
          f"{without_report.max_f:.3f} (gap {gap:.3f})")
    assert gap >= 0.15


# -- criterion 7: ablation harness ---------------------------------------------------


@_announce(7, "ablation matrix runs end-to-end")
def test_criterion_7_ablation_harness(tmp_path):
    data_dir = tmp_path / "abl"
    gen_synthetic(data_dir, n=4, size=32, seed=5, with_depth=True)
    samples = load_dataset(data_dir, with_depth=True)
    cfg = TrainConfig(total_steps=4, batch_size=2, input_size=32, seed=5,
                      mode="rgbd", multiscale=False)
    net_cfg = NetworkConfig(
        EncoderConfig(widths=(4, 8, 12, 16)),
        CraceConfig(n=8, sampling_rates=(1, 2), dilation_rates=(1, 2)),
        "rgbd",
    )
    results = run_ablation(samples, cfg, net_cfg)
    expected = [name for name, *_ in ABLATION_SCHEDULE]
    assert list(results) == expected  # baseline .. w/o rows .. full
    table = format_ablation_table(results)
    print("\n" + table)
    lines = table.splitlines()
    assert len(lines) == len(expected) + 1
    assert lines[0].split() == ["model", "maxF", "mF", "wF", "Sm"]
    for report in results.values():
        for value in report.as_dict().values():
            assert np.isfinite(value)


# -- criterion 8: determinism -----------------------------------------------------------


@_announce(8, "bit-identical checkpoints and reports")
def test_criterion_8_determinism(tmp_path):
    data_dir = tmp_path / "det"
    gen_synthetic(data_dir, n=4, size=32, seed=9, with_depth=True)
    samples = load_dataset(data_dir, with_depth=True)
    cfg = TrainConfig(total_steps=30, batch_size=2, input_size=32, seed=9,
                      mode="rgbd", checkpoint_interval=30)
    net_cfg = NetworkConfig(
        EncoderConfig(widths=(4, 8, 12, 16)),
        CraceConfig(n=8, sampling_rates=(1, 2), dilation_rates=(1, 2)),
        "rgbd",
    )
    results = []
    for run in ("a", "b"):
        out = tmp_path / run
        result = train(samples, cfg, net_cfg, out_dir=out)
        predict_to_dir(result.model, samples, out / "pred")
        report = evaluate_dataset(out / "pred", data_dir / "gt")
        (out / "report.tsv").write_text(report.delimited())
        results.append(out)
    a, b = results
    assert (a / "checkpoint.ckpt").read_bytes() == (b / "checkpoint.ckpt").read_bytes()
    assert (a / "report.tsv").read_bytes() == (b / "report.tsv").read_bytes()


# -- criterion 9: residual-attention invariant ---------------------------------------------


@_announce(9, "zeroed attention logits scale streams by exactly 1.5")
def test_criterion_9_residual_invariant():
    rng = np.random.default_rng(11)
    cfg = CraceConfig(n=8)
    m = CraceModule(4, 6, cfg, rng=rng, in_depth=2)
    for conv in (m.att_cross, m.att_global):
        conv.weight.data = np.zeros_like(conv.weight.data)
        conv.bias.data = np.zeros_like(conv.bias.data)
    f_l = tensor(rng.normal(size=(2, 4, 8, 8)))
    f_g = tensor(rng.normal(size=(2, 6, 4, 4)))
    d_l = tensor(rng.normal(size=(2, 2, 8, 8)))
    fused, parts = m.cross_attention(f_l, f_g, d_l, return_parts=True)
    n = cfg.n
    for i, key in enumerate(("proj_local", "proj_global", "proj_depth")):
        stream = fused.data[:, i * n : (i + 1) * n]
        assert np.max(np.abs(stream - 1.5 * parts[key].data)) <= 1e-12, key
    _, fparts = m.attentive_fusion(
        tensor(rng.normal(size=(2, n, 8, 8))), parts["proj_global"], return_parts=True
    )
    assert np.max(
        np.abs(fparts["gated_global"].data - 1.5 * parts["proj_global"].data)
    ) <= 1e-12
