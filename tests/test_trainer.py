import copy
import functools
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cracenet import trainer as trainer_module
from cracenet.crace import CraceConfig
from cracenet.data import (
    CorruptCheckpointError,
    gen_synthetic,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
)
from cracenet.layers import BatchNormLayer
from cracenet.losses import LossConfig, make_edge_gt, total_loss
from cracenet.network import EncoderConfig, NetworkConfig, SodNetwork
from cracenet.tensor import ShapeError, Tensor, backward
from cracenet.trainer import (
    ABLATION_SCHEDULE,
    DivergenceError,
    ResumeMismatchError,
    TrainConfig,
    augment,
    build_model_from_checkpoint,
    config_snapshot,
    configs_from_fields,
    evaluate_model,
    flip_horizontal,
    format_ablation_table,
    lr_multiplier,
    predict_maps,
    random_crop,
    run_ablation,
    sgd_step,
    snap32,
    train,
)


def tiny_net_cfg(mode="rgb"):
    return NetworkConfig(
        EncoderConfig(widths=(4, 8, 12, 16)),
        CraceConfig(n=8, sampling_rates=(1, 2), dilation_rates=(1, 2)),
        mode,
    )


def tiny_train_cfg(**kw):
    base = dict(total_steps=6, batch_size=2, input_size=32, seed=1,
                multiscale=False, checkpoint_interval=3)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "train"
    gen_synthetic(root, n=4, size=32, seed=2, with_depth=True)
    return load_dataset(root, with_depth=True)


class TestTrainConfig:
    # input_size 0 and -32 are multiples of 32 below the 32-pixel floor.
    # A config file can carry nan and inf, and nan <= 0 is False.
    @pytest.mark.parametrize(
        "name, value",
        [("batch_size", 0), ("batch_size", -1), ("checkpoint_interval", 0),
         ("input_size", 0), ("input_size", -32), ("total_steps", 0), ("total_steps", -3),
         ("lr_head", float("nan")), ("lr_head", 0.0), ("lr_backbone", float("inf")),
         ("lr_backbone", -0.1), ("momentum", float("nan")), ("momentum", -0.5),
         ("weight_decay", -1.0), ("weight_decay", float("inf")), ("warmup_steps", -4)],
    )
    def test_rejects_impossible_sizes(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})


class TestSgdStep:
    def run_steps(self, grads, momentum=0.0, wd=0.0, lr=0.1):
        cfg = TrainConfig(momentum=momentum, weight_decay=wd, lr_head=lr,
                          lr_backbone=lr / 10.0, input_size=32)
        p = Tensor(np.zeros(1), requires_grad=True)
        params = {"head.w": p}
        vel = {"head.w": np.zeros(1)}
        for g in grads:
            p.grad = np.array([g])
            sgd_step(params, vel, cfg)
        return p.data[0]

    def test_vanilla_step(self):
        assert self.run_steps([1.0]) == pytest.approx(-0.1, abs=1e-15)

    def test_momentum_unrolled_two_steps(self):
        # v1 = 1, p1 = -1; v2 = 0.9 + 1 = 1.9, p2 = -2.9
        assert self.run_steps([1.0, 1.0], momentum=0.9, lr=1.0) == pytest.approx(-2.9, abs=1e-12)

    def test_decay_only_shrinks(self):
        cfg = TrainConfig(momentum=0.0, weight_decay=0.1, lr_head=0.5,
                          lr_backbone=0.05, input_size=32)
        p = Tensor(np.array([2.0]), requires_grad=True)
        params, vel = {"x": p}, {"x": np.zeros(1)}
        p.grad = np.zeros(1)
        sgd_step(params, vel, cfg)
        assert 0.0 < p.data[0] < 2.0

    def test_backbone_gets_smaller_rate(self):
        cfg = TrainConfig(momentum=0.0, weight_decay=0.0, input_size=32)
        pb = Tensor(np.zeros(1), requires_grad=True)
        ph = Tensor(np.zeros(1), requires_grad=True)
        params = {"rgb_encoder.w": pb, "crace2.w": ph}
        vel = {k: np.zeros(1) for k in params}
        pb.grad = np.ones(1)
        ph.grad = np.ones(1)
        sgd_step(params, vel, cfg)
        assert ph.data[0] / pb.data[0] == pytest.approx(10.0, rel=1e-12)

    def test_non_finite_gradient_aborts(self):
        cfg = TrainConfig(input_size=32)
        p = Tensor(np.zeros(1), requires_grad=True)
        p.grad = np.array([np.nan])
        with pytest.raises(DivergenceError):
            sgd_step({"x": p}, {"x": np.zeros(1)}, cfg)

    def test_divergence_leaves_every_parameter_untouched(self):
        cfg = TrainConfig(momentum=0.9, weight_decay=0.01, input_size=32)
        rng = np.random.default_rng(0)
        names = ["crace2.w", "head.b", "rgb_encoder.w"]
        params = {n: Tensor(rng.normal(size=3), requires_grad=True) for n in names}
        vel = {n: rng.normal(size=3) for n in names}
        for p in params.values():
            p.grad = rng.normal(size=3)
        params[names[-1]].grad[1] = np.inf
        data_before = {n: p.data.copy() for n, p in params.items()}
        vel_before = {n: v.copy() for n, v in vel.items()}
        with pytest.raises(DivergenceError, match="rgb_encoder.w"):
            sgd_step(params, vel, cfg)
        for n in names:
            assert np.array_equal(params[n].data, data_before[n]), n
            assert np.array_equal(vel[n], vel_before[n]), n


class TestSchedule:
    def test_linear_warmup_then_decay(self):
        total, warm = 100, 10
        ramp = [lr_multiplier(s, total, warm) for s in range(warm)]
        assert ramp[0] == pytest.approx(0.1) and ramp[-1] == 1.0
        assert all(b > a for a, b in zip(ramp, ramp[1:]))
        tail = [lr_multiplier(s, total, warm) for s in range(warm, total)]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_default_warmup_is_five_percent(self):
        assert tiny_train_cfg(total_steps=500).warmup == 25

    def test_ratio_invariant(self):
        cfg = TrainConfig(input_size=32)
        assert cfg.lr_head / cfg.lr_backbone == pytest.approx(10.0)


class TestAugment:
    def test_flip_is_involution(self, dataset):
        s = dataset[0]
        img, gt, dep = flip_horizontal(*flip_horizontal(s.image, s.gt, s.depth))
        assert np.array_equal(img, s.image)
        assert np.array_equal(gt, s.gt)
        assert np.array_equal(dep, s.depth)

    def test_crop_never_grows_foreground(self, dataset):
        rng = np.random.default_rng(0)
        s = dataset[0]
        for _ in range(10):
            img, gt, dep = random_crop(s.image, s.gt, s.depth, rng)
            assert gt.sum() <= s.gt.sum()
            assert img.shape[1:] == gt.shape == dep.shape

    def test_augmented_gt_stays_binary(self, dataset):
        cfg = tiny_train_cfg()
        rng = np.random.default_rng(1)
        for _ in range(10):
            _, gt, _ = augment(dataset[0], cfg, rng, (32, 32))
            assert set(np.unique(gt)) <= {0.0, 1.0}

    def test_fixed_seed_reproduces(self, dataset):
        cfg = tiny_train_cfg()
        a = augment(dataset[0], cfg, np.random.default_rng(9), (32, 32))
        b = augment(dataset[0], cfg, np.random.default_rng(9), (32, 32))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_geometry_stays_aligned(self, dataset):
        cfg = tiny_train_cfg()
        img, gt, dep = augment(dataset[0], cfg, np.random.default_rng(3), (32, 32))
        assert img.shape == (3, 32, 32) and gt.shape == (32, 32) and dep.shape == (32, 32)

    def test_snap32(self):
        assert snap32(48) == 64 and snap32(64) == 64 and snap32(80) == 96
        assert snap32(16) == 32  # floor at the minimum encoder size


class TestTrainLoop:
    def test_loss_positive_at_init_and_logged(self, dataset, tmp_path):
        cfg = tiny_train_cfg()
        result = train(dataset, cfg, tiny_net_cfg(), out_dir=tmp_path / "run")
        assert len(result.log_rows) == cfg.total_steps
        assert all(row["L_total"] > 0 for row in result.log_rows)
        text = result.loss_log_path.read_text().splitlines()
        assert text[0].split("\t") == ["step", "lr", "L_total", "L_S", "L_E"]
        assert len(text) == cfg.total_steps + 1

    def test_rgbd_logs_depth_column(self, dataset, tmp_path):
        cfg = tiny_train_cfg(mode="rgbd")
        result = train(dataset, cfg, tiny_net_cfg("rgbd"), out_dir=tmp_path / "run")
        header = result.loss_log_path.read_text().splitlines()[0]
        assert header.split("\t")[-1] == "L_D"
        assert all("L_D" in row for row in result.log_rows)

    def test_deterministic_checkpoints(self, dataset, tmp_path):
        cfg = tiny_train_cfg()
        train(dataset, cfg, tiny_net_cfg(), out_dir=tmp_path / "a")
        train(dataset, cfg, tiny_net_cfg(), out_dir=tmp_path / "b")
        assert (tmp_path / "a/checkpoint.ckpt").read_bytes() == (
            tmp_path / "b/checkpoint.ckpt"
        ).read_bytes()

    def test_resume_is_bit_identical(self, dataset, tmp_path):
        # one uninterrupted run; then continue from its own mid-run
        # checkpoint in a fresh process-equivalent and compare the ends
        cfg = tiny_train_cfg(total_steps=6, checkpoint_interval=3)
        train(dataset, cfg, tiny_net_cfg(), out_dir=tmp_path / "full")
        resumed = train(
            dataset,
            tiny_train_cfg(total_steps=6, checkpoint_interval=3),
            tiny_net_cfg(),
            out_dir=tmp_path / "resumed",
            resume=tmp_path / "full/checkpoint_step000003.ckpt",
        )
        full_arrays = load_checkpoint(tmp_path / "full/checkpoint.ckpt")[1]
        res_arrays = load_checkpoint(tmp_path / "resumed/checkpoint.ckpt")[1]
        assert set(full_arrays) == set(res_arrays)
        for k in full_arrays:
            assert np.array_equal(full_arrays[k], res_arrays[k]), k

    def test_resume_keeps_earlier_loss_log_rows(self, dataset, tmp_path):
        cfg = tiny_train_cfg(total_steps=4, checkpoint_interval=2)
        run = tmp_path / "run"
        train(dataset, cfg, tiny_net_cfg(), out_dir=run)
        log = run / "loss_log.tsv"
        uninterrupted = log.read_text()
        result = train(dataset, cfg, tiny_net_cfg(), out_dir=run,
                       resume=run / "checkpoint_step000002.ckpt")
        assert [row["step"] for row in result.log_rows] == [2, 3]
        assert log.read_text() == uninterrupted
        # a log that stops before the resume point is completed, not replaced
        log.write_text("".join(uninterrupted.splitlines(keepends=True)[:3]))
        train(dataset, cfg, tiny_net_cfg(), out_dir=run,
              resume=run / "checkpoint_step000002.ckpt")
        assert log.read_text() == uninterrupted

    def test_params_stay_finite(self, dataset):
        result = train(dataset, tiny_train_cfg(), tiny_net_cfg())
        for name, p in result.model.parameters():
            assert np.isfinite(p.data).all(), name

    def test_checkpoint_reload_predicts_identically(self, dataset, tmp_path):
        result = train(dataset, tiny_train_cfg(), tiny_net_cfg(), out_dir=tmp_path / "run")
        before = predict_maps(result.model, dataset[:2])
        model, *_ = build_model_from_checkpoint(tmp_path / "run/checkpoint.ckpt")
        after = predict_maps(model, dataset[:2])
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_divergence_aborts_with_last_checkpoint(self, dataset, tmp_path):
        cfg = tiny_train_cfg(total_steps=20, checkpoint_interval=1,
                             lr_head=1e12, lr_backbone=1e11)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                train(dataset, cfg, tiny_net_cfg(), out_dir=tmp_path / "run")
        assert err.value.last_checkpoint is not None
        assert err.value.last_checkpoint.exists()
        # the log holds one row for every step finished before the abort
        done = load_checkpoint(err.value.last_checkpoint)[0]["step"]
        rows = (tmp_path / "run/loss_log.tsv").read_text().splitlines()[1:]
        assert [int(row.split("\t")[0]) for row in rows] == list(range(done))

    def test_resume_refuses_a_changed_config(self, dataset, tmp_path):
        cfg = tiny_train_cfg(total_steps=4, checkpoint_interval=2)
        train(dataset, cfg, tiny_net_cfg(), out_dir=tmp_path / "run")
        ckpt = tmp_path / "run/checkpoint_step000002.ckpt"
        with pytest.raises(ResumeMismatchError, match=r"train\.lr_head") as err:
            train(dataset, tiny_train_cfg(total_steps=4, checkpoint_interval=2, lr_head=0.1),
                  tiny_net_cfg(), out_dir=tmp_path / "changed", resume=ckpt)
        assert "seed" not in str(err.value)
        assert not (tmp_path / "changed").exists()
        with pytest.raises(ResumeMismatchError, match=r"train\.seed.*loss\.use_iou"):
            train(dataset, tiny_train_cfg(total_steps=4, checkpoint_interval=2, seed=2),
                  tiny_net_cfg(), LossConfig(use_iou=False), resume=ckpt)
        net_cfg = tiny_net_cfg()
        net_cfg.crace.n = 4
        with pytest.raises(ResumeMismatchError, match=r"network\.crace\.n "):
            train(dataset, cfg, net_cfg, resume=ckpt)

    @pytest.mark.parametrize(
        "damage, error, match",
        [("drop", KeyError, "checkpoint missing 'optim/"),
         ("reshape", ShapeError, "'optim/crace2.channel_reduce.weight': checkpoint shape")],
        ids=["missing", "misshaped"],
    )
    def test_resume_checks_the_optimizer_state_first(
        self, dataset, tmp_path, damage, error, match
    ):
        cfg = tiny_train_cfg(total_steps=4, checkpoint_interval=2)
        train(dataset, cfg, tiny_net_cfg(), out_dir=tmp_path / "run")
        snapshot, arrays = load_checkpoint(tmp_path / "run/checkpoint_step000002.ckpt")
        if damage == "drop":  # the model's arrays only, as export_arrays() gives them
            arrays = {k: v for k, v in arrays.items() if not k.startswith("optim/")}
        else:
            name = "optim/crace2.channel_reduce.weight"
            arrays[name] = arrays[name][:-1]
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, snapshot, arrays)
        with pytest.raises(error, match=match):
            train(dataset, cfg, tiny_net_cfg(), out_dir=tmp_path / "resumed", resume=bad)
        assert not (tmp_path / "resumed").exists()

    def test_no_tensor_of_a_step_outlives_it(self, dataset, tmp_path, monkeypatch):
        # Watch each logit's data array, which only the tensor and the rest
        # of its step's graph may refer to.
        held = []

        def assert_graph_freed():
            assert held and all(ref() is None for ref in held)

        def forward(model, *args, **kwargs):
            if held:
                assert_graph_freed()
            outputs = network_forward(model, *args, **kwargs)
            held[:] = [weakref.ref(t.data) for maps in outputs.values() for t in maps]
            return outputs

        def save(*args):
            assert_graph_freed()
            save_checkpoint(*args)

        network_forward = SodNetwork.forward
        monkeypatch.setattr(SodNetwork, "forward", forward)
        monkeypatch.setattr(trainer_module, "save_checkpoint", save)
        cfg = tiny_train_cfg(mode="rgbd", total_steps=4, checkpoint_interval=2)
        train(dataset, cfg, tiny_net_cfg("rgbd"), out_dir=tmp_path / "run")
        assert_graph_freed()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], tiny_train_cfg())

    def test_mode_mismatch_rejected(self, dataset):
        with pytest.raises(ValueError):
            train(dataset, tiny_train_cfg(mode="rgbd"), tiny_net_cfg("rgb"))


def supervised_run(loss_cfg, levels: dict, gt, edge):
    """Total, logged terms and leaf logits of one ``_assemble_losses`` call on
    fresh leaves holding ``levels`` (key -> the four levels' arrays).  The
    call consumes the dict it is given, so it gets a copy."""
    outputs = {key: [Tensor(a, requires_grad=True) for a in maps] for key, maps in levels.items()}
    total, parts = trainer_module._assemble_losses(
        {key: list(maps) for key, maps in outputs.items()}, gt, edge, loss_cfg
    )
    backward(total)
    return total.item(), parts, outputs


def graph_rules(loss: Tensor):
    """The backward rule of every interior node of ``loss``'s graph."""
    seen, todo = set(), [loss._node]
    while todo:
        node = todo.pop()
        if node is None or node in seen:
            continue
        seen.add(node)
        todo.extend(node.parents)
        if node.backward_fn is not None:
            yield node.backward_fn


def held_arrays(rule) -> list:
    """Every array a backward rule holds, with the bases of views: through
    its closure cells and the functions, partials, sequences and slotted
    objects (such as a rebuild recipe) in them."""
    found, todo, seen = [], [rule], set()
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            while isinstance(value, np.ndarray):
                found.append(value)
                value = value.base
        elif isinstance(value, functools.partial):
            todo += [value.func, *value.args, *value.keywords.values()]
        elif getattr(value, "__closure__", None):
            todo += [cell.cell_contents for cell in value.__closure__]
        elif isinstance(value, (list, tuple)):
            todo += value
        elif hasattr(type(value), "__slots__") and not isinstance(value, Tensor):
            todo += [getattr(value, name, None) for name in type(value).__slots__]
    return found


class TestStepRetention:
    """What a training step keeps alive, on a tiny RGB-D config: widths
    4-16, n = 8, 32x32, batch 2, two steps without edge supervision, so
    that backward does not reach the edge heads."""

    def test_a_step_keeps_only_what_backward_reads(self, dataset, monkeypatch):
        B, n = 2, tiny_net_cfg("rgbd").crace.n
        seen = {"bn_outputs": [], "logits": [], "grads_at_forward": [], "checks": 0}

        def bn_forward(layer, x, training, relu=False):
            out = bn_original(layer, x, training, relu)
            if not relu:
                seen["bn_outputs"].append(out.data)
            return out

        def forward(model, *args, **kwargs):
            seen["grads_at_forward"] += [p.grad for _, p in model.parameters()]
            return forward_original(model, *args, **kwargs)

        def predict(model, *args, **kwargs):
            outputs = predict_original(model, *args, **kwargs)
            seen["logits"] += [weakref.ref(t) for maps in outputs.values() for t in maps]
            return outputs

        def total(*terms):
            # Every term is formed: no logit is needed any more.
            assert seen["logits"] and all(ref() is None for ref in seen["logits"])
            return total_loss(*terms)

        def backward_checked(loss):
            held = [a for rule in graph_rules(loss) for a in held_arrays(rule)]
            held_ids = {id(a) for a in held}
            assert seen["bn_outputs"]
            assert not any(id(out) in held_ids for out in seen["bn_outputs"])
            assert not [a.shape for a in held if a.ndim == 4 and a.shape[:2] == (B, 3 * n)]
            seen["bn_outputs"].clear()
            seen["checks"] += 1
            backward_original(loss)

        bn_original = BatchNormLayer.forward
        forward_original, predict_original = SodNetwork.forward, SodNetwork.predict
        backward_original = trainer_module.backward
        monkeypatch.setattr(BatchNormLayer, "forward", bn_forward)
        monkeypatch.setattr(SodNetwork, "forward", forward)
        monkeypatch.setattr(SodNetwork, "predict", predict)
        monkeypatch.setattr(trainer_module, "total_loss", total)
        monkeypatch.setattr(trainer_module, "backward", backward_checked)
        cfg = tiny_train_cfg(mode="rgbd", total_steps=2)
        net_cfg = tiny_net_cfg("rgbd")
        model = train(dataset, cfg, net_cfg, LossConfig(use_edge=False)).model

        assert seen["checks"] == 2
        assert seen["grads_at_forward"] and all(g is None for g in seen["grads_at_forward"])
        for name, p in model.parameters():
            if name.startswith("edge_head"):
                assert p.grad is not None and not p.grad.any(), name
            else:
                assert p.grad is not None and p.grad.any(), name


class TestLossAssembly:
    """Which terms and levels are supervised, and how the total is formed."""

    KEYS = {"rgb": ("saliency_logits", "edge_logits"),
            "rgbd": ("saliency_logits", "edge_logits", "depth_logits")}

    def inputs(self, mode, seed):
        rng = np.random.default_rng(seed)
        levels = {key: [rng.normal(size=(2, 1, 8, 8)) for _ in range(4)]
                  for key in self.KEYS[mode]}
        gt = (rng.uniform(size=(2, 8, 8)) > 0.5).astype(np.float64)
        return levels, gt, np.stack([make_edge_gt(m) for m in gt])

    @pytest.mark.parametrize("mode", ["rgb", "rgbd"])
    @pytest.mark.parametrize("use_edge", [True, False])
    @pytest.mark.parametrize("use_multilevel", [True, False])
    def test_logged_total_is_the_mean_of_the_supervised_terms(
        self, dataset, mode, use_edge, use_multilevel
    ):
        loss_cfg = LossConfig(use_edge=use_edge, use_multilevel=use_multilevel)
        rows = train(dataset, tiny_train_cfg(mode=mode, total_steps=2), tiny_net_cfg(mode),
                     loss_cfg).log_rows
        names = ["L_S", "L_D", "L_E"] if use_edge else ["L_S", "L_D"]
        for row in rows:
            assert "L_E" in row and ("L_D" in row) == (mode == "rgbd")
            terms = [Tensor(row[name]) for name in names if name in row]
            assert row["L_total"] == total_loss(*terms).item()

    @pytest.mark.parametrize("mode", ["rgb", "rgbd"])
    def test_without_edge_supervision_l_e_is_logged_but_leaves_the_total(self, mode):
        levels, gt, edge = self.inputs(mode, 0)
        loss_cfg = LossConfig(use_edge=False)
        total, parts, outputs = supervised_run(loss_cfg, levels, gt, edge)
        assert all(t.grad is None for t in outputs["edge_logits"])
        moved = {**levels, "edge_logits": [a + 1.0 for a in levels["edge_logits"]]}
        moved_total, moved_parts, _ = supervised_run(loss_cfg, moved, gt, edge)
        assert moved_total == total
        assert moved_parts["L_E"] != parts["L_E"]
        assert {k: v for k, v in moved_parts.items() if k != "L_E"} == {
            k: v for k, v in parts.items() if k != "L_E"
        }

    @pytest.mark.parametrize("mode", ["rgb", "rgbd"])
    def test_without_multilevel_supervision_levels_3_to_5_are_unread(self, mode):
        levels, gt, edge = self.inputs(mode, 1)
        rng = np.random.default_rng(2)
        moved = {key: [maps[0]] + [rng.normal(size=a.shape) for a in maps[1:]]
                 for key, maps in levels.items()}
        runs = [supervised_run(LossConfig(use_multilevel=False), lv, gt, edge)
                for lv in (levels, moved)]
        (total, parts, outputs), (moved_total, moved_parts, moved_outputs) = runs
        assert moved_total == total and moved_parts == parts
        for key in levels:
            final, *rest = outputs[key]
            assert final.grad.tobytes() == moved_outputs[key][0].grad.tobytes()
            assert all(t.grad is None for t in rest + moved_outputs[key][1:])
        _, _, multilevel = supervised_run(LossConfig(), levels, gt, edge)
        assert all(t.grad is not None for maps in multilevel.values() for t in maps)


def with_retired_fields(snapshot: dict, **overrides) -> dict:
    """A snapshot as versions that still had the six retired config fields
    saved it, each at the value the code now fixes unless overridden."""
    old = copy.deepcopy(snapshot)
    net = old["network"]
    net["crace"].update(depth_input=net["mode"] == "rgbd", proj_kernel=3,
                        upsample_mode="bilinear", branches=None)
    net["encoder"]["blocks_per_stage"] = 1
    old["loss"]["edge_radius"] = 1
    for key, value in overrides.items():
        section = next(d for d in (net["crace"], net["encoder"], old["loss"]) if key in d)
        section[key] = value
    return old


class TestConfigsFromFields:
    def test_each_key_goes_to_the_class_that_declares_it(self):
        train_cfg, net_cfg, loss_cfg = configs_from_fields(
            {"mode": "rgbd", "lr_head": 0.01, "widths": (4, 8, 12, 16), "n": 8, "use_iou": False}
        )
        assert train_cfg == TrainConfig(mode="rgbd", lr_head=0.01)
        assert net_cfg == NetworkConfig(EncoderConfig((4, 8, 12, 16)), CraceConfig(n=8), "rgbd")
        assert loss_cfg == LossConfig(use_iou=False)

    def test_no_values_give_the_defaults(self):
        assert configs_from_fields({}) == (TrainConfig(), NetworkConfig.default(), LossConfig())

    def test_unknown_key_is_error(self):
        with pytest.raises(ValueError, match="unknown config key 'learning_rate'"):
            configs_from_fields({"learning_rate": 0.1})

    @pytest.mark.parametrize("train_mode, net_mode", [("rgb", "rgbd"), ("rgbd", "rgb")])
    def test_snapshot_with_two_modes_is_refused(self, tmp_path, train_mode, net_mode):
        snapshot = config_snapshot(
            0, tiny_train_cfg(mode=train_mode), tiny_net_cfg(net_mode), LossConfig()
        )
        ckpt = tmp_path / "mixed.ckpt"
        save_checkpoint(ckpt, snapshot, {})
        with pytest.raises(ValueError, match="network mode .* differs from train mode"):
            build_model_from_checkpoint(ckpt)


def count_normal_draws(monkeypatch) -> list:
    """Record every ``normal`` call on the generators made from now on."""
    calls = []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, rng):
            self._rng = rng

        def normal(self, *args, **kwargs):
            calls.append(args)
            return self._rng.normal(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: Counting(default_rng(*a, **k)))
    return calls


class TestRebuild:
    @pytest.mark.parametrize("mode", ["rgb", "rgbd"])
    def test_rebuilds_draw_no_weights(self, dataset, tmp_path, monkeypatch, mode):
        cfg = tiny_train_cfg(mode=mode)
        train(dataset, cfg, tiny_net_cfg(mode), out_dir=tmp_path / "full")
        ckpt = tmp_path / "full/checkpoint_step000003.ckpt"
        saved = load_checkpoint(ckpt)[1]

        draws = count_normal_draws(monkeypatch)
        SodNetwork(tiny_net_cfg(mode))
        assert draws, "a freshly seeded network draws its weights"
        draws.clear()
        model = build_model_from_checkpoint(ckpt)[0]
        train(dataset, cfg, tiny_net_cfg(mode), out_dir=tmp_path / "resumed", resume=ckpt)
        assert draws == []

        exported = model.export_arrays()
        assert exported.keys() == {k for k in saved if not k.startswith("optim/")}
        assert all(exported[k].tobytes() == saved[k].tobytes() for k in exported)
        assert (tmp_path / "resumed/checkpoint.ckpt").read_bytes() == (
            tmp_path / "full/checkpoint.ckpt"
        ).read_bytes()


class TestOlderCheckpoints:
    @pytest.mark.parametrize("mode", ["rgb", "rgbd"])
    def test_load_and_resume_bit_identically(self, dataset, tmp_path, mode):
        cfg = tiny_train_cfg(mode=mode)
        train(dataset, cfg, tiny_net_cfg(mode), out_dir=tmp_path / "run")
        new = tmp_path / "run/checkpoint_step000003.ckpt"
        snapshot, arrays = load_checkpoint(new)
        old = tmp_path / "old.ckpt"
        save_checkpoint(old, with_retired_fields(snapshot), arrays)

        model, train_cfg, net_cfg, loss_cfg = build_model_from_checkpoint(old)
        assert (train_cfg, net_cfg, loss_cfg) == (cfg, tiny_net_cfg(mode), LossConfig())
        exported = model.export_arrays()
        assert all(exported[k].tobytes() == arrays[k].tobytes() for k in exported)

        runs = {}
        for name, ckpt in (("new", new), ("old", old)):
            out = tmp_path / f"resumed_{name}"
            result = train(dataset, cfg, tiny_net_cfg(mode), out_dir=out, resume=ckpt)
            runs[name] = (result.log_rows, (out / "checkpoint.ckpt").read_bytes())
        assert runs["old"] == runs["new"]

    @pytest.mark.parametrize(
        "mode, key, value, fixed",
        [("rgb", "proj_kernel", 5, 3), ("rgbd", "depth_input", False, True),
         ("rgb", "depth_input", True, False), ("rgb", "edge_radius", 2, 1)],
    )
    def test_other_retired_values_are_refused(self, tmp_path, mode, key, value, fixed):
        snapshot = config_snapshot(0, tiny_train_cfg(mode=mode), tiny_net_cfg(mode), LossConfig())
        ckpt = tmp_path / "old.ckpt"
        save_checkpoint(ckpt, with_retired_fields(snapshot, **{key: value}), {})
        with pytest.raises(ValueError, match=rf"{key} is {value!r}; the code fixes it at {fixed!r}"):
            build_model_from_checkpoint(ckpt)


_MISSING = object()


def _damaged(snapshot: dict, path: str, value) -> dict:
    """A deep copy of ``snapshot`` whose dotted ``path`` is deleted
    (``value`` is ``_MISSING``) or set to ``value``."""
    snapshot = copy.deepcopy(snapshot)
    *parents, key = path.split(".")
    tree = snapshot
    for parent in parents:
        tree = tree[parent]
    if value is _MISSING:
        del tree[key]
    else:
        tree[key] = value
    return snapshot


class TestSnapshotSections:
    """A snapshot that lacks a section the rebuild reads ends in a typed
    error naming it, through either entry point, never in a bare
    ``KeyError`` or ``TypeError``."""

    @pytest.fixture(scope="class")
    def checkpoint(self, dataset, tmp_path_factory):
        out = tmp_path_factory.mktemp("sections")
        train(dataset, tiny_train_cfg(total_steps=2, checkpoint_interval=1), tiny_net_cfg(),
              out_dir=out)
        return load_checkpoint(out / "checkpoint_step000001.ckpt")

    @pytest.mark.parametrize("entry", ["build", "resume"])
    @pytest.mark.parametrize(
        "path, value",
        [(section, damage)
         for section in ("train", "loss", "network", "network.encoder", "network.crace")
         for damage in (_MISSING, [1, 2], "rgb")]
        + [("network.mode", _MISSING), ("train.mode", _MISSING)],
        ids=lambda v: "missing" if v is _MISSING else None,
    )
    def test_a_missing_or_non_object_section_is_named(
        self, dataset, tmp_path, checkpoint, entry, path, value
    ):
        snapshot, arrays = checkpoint
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, _damaged(snapshot, path, value), arrays)
        with pytest.raises(CorruptCheckpointError, match=repr(path)):
            if entry == "build":
                build_model_from_checkpoint(bad)
            else:
                train(dataset, tiny_train_cfg(total_steps=2, checkpoint_interval=1),
                      tiny_net_cfg(), out_dir=tmp_path / "resumed", resume=bad)
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("value", [_MISSING, "1", None], ids=["missing", "text", "null"])
    def test_resume_names_a_missing_or_non_integer_step(
        self, dataset, tmp_path, checkpoint, value
    ):
        snapshot, arrays = checkpoint
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, _damaged(snapshot, "step", value), arrays)
        build_model_from_checkpoint(bad)  # the rebuild does not read the step
        with pytest.raises(CorruptCheckpointError, match="'step'"):
            train(dataset, tiny_train_cfg(total_steps=2, checkpoint_interval=1),
                  tiny_net_cfg(), resume=bad)


class TestEvalHelpers:
    def test_evaluate_model_report(self, dataset):
        result = train(dataset, tiny_train_cfg(), tiny_net_cfg())
        report = evaluate_model(result.model, dataset)
        vals = report.as_dict()
        assert set(vals) == {"maxF", "mF", "wF", "MAE", "Sm", "Em"}
        assert all(np.isfinite(v) for v in vals.values())


class TestAblationHarness:
    def test_all_rows_run_and_tabulate(self, dataset):
        cfg = tiny_train_cfg(total_steps=2, mode="rgbd")
        results = run_ablation(dataset, cfg, tiny_net_cfg("rgbd"))
        expected = [name for name, *_ in ABLATION_SCHEDULE]
        assert list(results) == expected
        table = format_ablation_table(results)
        lines = table.splitlines()
        assert len(lines) == len(expected) + 1
        for name in ("baseline", "w/o Depth", "w/o IoU", "full"):
            assert any(line.startswith(name) for line in lines)
        for report in results.values():
            assert all(np.isfinite(v) for v in report.as_dict().values())

    def test_rows_override_the_callers_configs(self, monkeypatch):
        seen = []
        def fake_train(samples, *cfgs):
            seen.append(cfgs)
            return SimpleNamespace(model=None)

        monkeypatch.setattr(trainer_module, "train", fake_train)
        monkeypatch.setattr(trainer_module, "evaluate_model", lambda model, samples: None)
        cfg, net_cfg = tiny_train_cfg(mode="rgbd"), tiny_net_cfg("rgbd")
        run_ablation([None], cfg, net_cfg, rows=["baseline", "w/o Depth", "w/o IoU"])
        blocks_off = dict(enable_cross_attention=False, enable_channel_attention=False,
                          enable_multiscale=False, enable_attentive_fusion=False)
        assert seen == [
            (cfg, replace(net_cfg, crace=replace(net_cfg.crace, **blocks_off)), LossConfig()),
            (replace(cfg, mode="rgb"), tiny_net_cfg("rgb"), LossConfig()),
            (cfg, net_cfg, LossConfig(use_iou=False)),
        ]

    def test_rgb_mode_drops_depth_row(self, dataset):
        cfg = tiny_train_cfg(total_steps=2, mode="rgb")
        results = run_ablation(dataset, cfg, tiny_net_cfg("rgb"), rows=["baseline", "w/o Depth", "full"])
        assert list(results) == ["baseline", "full"]
