from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cracenet import cli, trainer
from cracenet.cli import build_configs, main
from cracenet.crace import CraceConfig
from cracenet.data import (
    ConfigFileError,
    gen_synthetic,
    load_gray,
    load_rgb,
    save_checkpoint,
    save_gray,
)
from cracenet.layers import resize_bilinear_np
from cracenet.losses import LossConfig
from cracenet.network import EncoderConfig, NetworkConfig, SodNetwork
from cracenet.trainer import TrainConfig, build_model_from_checkpoint, config_snapshot


TINY_CONFIG = """
total_steps = 4
batch_size = 2
input_size = 32
seed = 3
lr_head = 0.001
lr_backbone = 0.0001
multiscale = false
widths = 4, 8, 12, 16
n = 8
sampling_rates = 1, 2
dilation_rates = 1, 2
checkpoint_interval = 4
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-data", "--out", str(root / "data"), "--n", "4",
                 "--size", "32", "--seed", "7", "--with-depth"]) == 0
    (root / "train.cfg").write_text(TINY_CONFIG)
    assert main(["train", "--data", str(root / "data"), "--out", str(root / "run"),
                 "--config", str(root / "train.cfg"), "--quiet"]) == 0
    # Small learning rates keep the maps graded: map comparisons below would
    # pass on any model if it predicted one value everywhere.
    model, *_ = build_model_from_checkpoint(root / "run/checkpoint.ckpt")
    probs = model.infer(load_rgb(root / "data/images/0000.ppm"))
    assert probs.max() - probs.min() > 1e-3
    return root


class TestBuildConfigs:
    def test_round_trip_types(self):
        train_cfg, net_cfg, loss_cfg = build_configs(
            {
                "total_steps": "10",
                "lr_head": "0.02",
                "hflip": "false",
                "n": "16",
                "sampling_rates": "1,2,4",
                "dilation_rates": "1,2,3",
                "widths": "4,8,12,16",
                "use_iou": "true",
            }
        )
        assert train_cfg.total_steps == 10
        assert train_cfg.lr_head == 0.02
        assert train_cfg.hflip is False
        assert net_cfg.crace.n == 16
        assert net_cfg.encoder.widths == (4, 8, 12, 16)
        assert loss_cfg.use_iou is True

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigFileError):
            build_configs({"learning_rate": "0.1"})

    @pytest.mark.parametrize(
        "key, value",
        [("depth_input", "true"), ("proj_kernel", "3"), ("upsample_mode", "bilinear"),
         ("branches", "1,1"), ("blocks_per_stage", "1"), ("edge_radius", "1")],
    )
    def test_retired_keys_are_unknown(self, key, value):
        with pytest.raises(ConfigFileError, match=f"unknown config key '{key}'"):
            build_configs({key: value})

    @pytest.mark.parametrize(
        "name, value",
        [("batch_size", "0"), ("checkpoint_interval", "0"), ("input_size", "0"),
         ("input_size", "-32")],
    )
    def test_impossible_sizes_are_errors(self, name, value):
        with pytest.raises(ValueError, match=name):
            build_configs({name: value})


class TestGenData:
    def test_layout(self, workspace):
        data = workspace / "data"
        assert len(list((data / "images").glob("*.ppm"))) == 4
        assert len(list((data / "gt").glob("*.pgm"))) == 4
        assert len(list((data / "depth").glob("*.pgm"))) == 4


class TestTrain:
    def test_outputs_exist(self, workspace):
        run = workspace / "run"
        assert (run / "checkpoint.ckpt").exists()
        log = (run / "loss_log.tsv").read_text().splitlines()
        assert log[0].startswith("step\tlr\tL_total")
        assert len(log) == 5

    def test_unknown_config_key_fails(self, workspace, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_real_key = 1")
        code = main(["train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "x"), "--config", str(bad)])
        assert code == 1


class TestPredictEval:
    def test_predict_then_eval_runs(self, workspace, tmp_path):
        pred = tmp_path / "pred"
        assert main(["predict", "--checkpoint", str(workspace / "run/checkpoint.ckpt"),
                     "--images", str(workspace / "data/images"),
                     "--out", str(pred)]) == 0
        maps = sorted(pred.glob("*.pgm"))
        assert len(maps) == 4
        first = load_gray(maps[0])
        assert first.shape == (32, 32)
        out = tmp_path / "report"
        assert main(["eval", "--pred", str(pred), "--gt", str(workspace / "data/gt"),
                     "--out", str(out)]) == 0
        assert (out / "report.txt").exists()
        assert (out / "report.tsv").exists()
        assert len((out / "pr_curve.tsv").read_text().strip().splitlines()) == 256

    def test_predict_depth_flag_against_rgb_model_is_usage_error(self, workspace, tmp_path):
        code = main(["predict", "--checkpoint", str(workspace / "run/checkpoint.ckpt"),
                     "--images", str(workspace / "data/images"),
                     "--depth-dir", str(workspace / "data/depth"),
                     "--out", str(tmp_path / "p")])
        assert code == 2

    def test_predict_dump_levels(self, workspace, tmp_path, monkeypatch):
        encodes = Counter()
        refine = SodNetwork._refine

        def counting_refine(self, *args, **kwargs):
            encodes[dump] += 1
            return refine(self, *args, **kwargs)

        monkeypatch.setattr(SodNetwork, "_refine", counting_refine)
        for dump in (False, True):
            assert main(["predict", "--checkpoint", str(workspace / "run/checkpoint.ckpt"),
                         "--images", str(workspace / "data/images"),
                         "--out", str(tmp_path / str(dump))]
                        + ["--dump-levels"] * dump) == 0
        levels = tmp_path / "True"
        for level in (2, 3, 4, 5):
            assert (levels / f"0000_P{level}.pgm").exists()
            assert (levels / f"0000_E{level}.pgm").exists()
        # One encoding per image either way, and the same final maps.
        assert encodes == {False: 4, True: 4}
        for final in (tmp_path / "False").glob("*.pgm"):
            assert final.read_bytes() == (levels / final.name).read_bytes()

    def test_eval_identical_dirs_mae_zero(self, workspace, tmp_path, capsys):
        gt = workspace / "data/gt"
        assert main(["eval", "--pred", str(gt), "--gt", str(gt)]) == 0
        out = capsys.readouterr().out
        row = out.strip().splitlines()[1].split()
        header = out.strip().splitlines()[0].split()
        assert float(row[header.index("MAE")]) == 0.0

    def test_reloaded_checkpoint_predicts_identically(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["predict", "--checkpoint", str(workspace / "run/checkpoint.ckpt"),
                         "--images", str(workspace / "data/images"),
                         "--out", str(out)]) == 0
        for pa in sorted(a.glob("*.pgm")):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_predict_writes_each_map_once(self, workspace, tmp_path, monkeypatch):
        writes = Counter()

        def counting(save):
            def save_gray(path, arr):
                writes[Path(path).name] += 1
                save(path, arr)
            return save_gray

        monkeypatch.setattr(cli, "save_gray", counting(cli.save_gray))
        monkeypatch.setattr(trainer, "save_gray", counting(trainer.save_gray))
        assert main(["predict", "--checkpoint", str(workspace / "run/checkpoint.ckpt"),
                     "--images", str(workspace / "data/images"),
                     "--out", str(tmp_path / "pred"), "--dump-levels"]) == 0
        finals = [p.stem + ".pgm" for p in (workspace / "data/images").glob("*.ppm")]
        assert len(finals) == 4
        assert all(writes[name] == 1 for name in finals)
        assert len(writes) == 4 * (1 + 8)
        assert set(writes.values()) == {1}

    def test_predict_resizes_float_map_before_quantizing(self, tmp_path):
        net_cfg = NetworkConfig(
            EncoderConfig(widths=(4, 8, 12, 16)),
            CraceConfig(n=8, sampling_rates=(1, 2), dilation_rates=(1, 2)),
            "rgb",
        )
        snapshot = config_snapshot(0, TrainConfig(input_size=32), net_cfg, LossConfig())
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, snapshot, SodNetwork(net_cfg, seed=0).export_arrays())
        # 48x48 images served at input_size 32: one quantization, at 48x48
        gen_synthetic(tmp_path / "big", n=2, size=48, seed=5)
        assert main(["predict", "--checkpoint", str(ckpt),
                     "--images", str(tmp_path / "big/images"), "--out", str(tmp_path / "pred")]) == 0
        model, *_ = build_model_from_checkpoint(ckpt)
        for image_path in sorted((tmp_path / "big/images").glob("*.ppm")):
            image = load_rgb(image_path)
            final = model.infer(resize_bilinear_np(image, (32, 32)))
            want = tmp_path / "want.pgm"
            save_gray(want, resize_bilinear_np(final, image.shape[1:]))
            got = tmp_path / "pred" / f"{image_path.stem}.pgm"
            assert got.read_bytes() == want.read_bytes(), image_path.stem

    def test_missing_path_is_runtime_error(self, tmp_path):
        assert main(["eval", "--pred", str(tmp_path / "nope"), "--gt", str(tmp_path / "nope")]) == 1


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data"])
        assert exc.value.code == 2
