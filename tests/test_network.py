import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cracenet.crace import CraceConfig
from cracenet.network import (
    EncoderConfig,
    InputSizeError,
    ModeError,
    NetworkConfig,
    SodNetwork,
)
from cracenet.tensor import ShapeError, Tensor, backward, sigmoid, zero_grads


def small_net(mode="rgb", seed=0):
    cfg = NetworkConfig(
        EncoderConfig(widths=(4, 8, 12, 16)),
        CraceConfig(n=8, sampling_rates=(1, 2), dilation_rates=(1, 2)),
        mode,
    )
    return SodNetwork(cfg, seed=seed)


def rand_image(b=1, side=64, channels=3, seed=0):
    return Tensor(np.random.default_rng(seed).uniform(size=(b, channels, side, side)))


class TestEncoder:
    def test_stride_ladder_64(self):
        net = small_net()
        feats = net.encode(rand_image())
        assert [f.shape[2] for f in feats] == [16, 8, 4, 2]
        assert [f.shape[1] for f in feats] == [4, 8, 12, 16]

    def test_stride_ladder_352(self):
        net = small_net()
        feats = net.encode(rand_image(side=352))
        assert [f.shape[2] for f in feats] == [88, 44, 22, 11]

    def test_indivisible_input_rejected(self):
        net = small_net()
        with pytest.raises(InputSizeError):
            net.encode(Tensor(np.zeros((1, 3, 60, 60))))

    def test_deterministic_for_fixed_seed(self):
        a = small_net(seed=5).encode(rand_image(seed=3))
        b = small_net(seed=5).encode(rand_image(seed=3))
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.data, fb.data)

    def test_depth_ladder_and_mode_contract(self):
        net = small_net("rgbd")
        depth = Tensor(np.full((1, 1, 64, 64), 0.5))
        feats = net.encode_depth(depth)
        assert [f.shape[2] for f in feats] == [16, 8, 4, 2]
        assert all(np.isfinite(f.data).all() for f in feats)
        with pytest.raises(ModeError):
            small_net("rgb").encode_depth(depth)


class TestContextFlow:
    def test_three_fusion_modules(self):
        net = small_net()
        assert len([net.crace2, net.crace3, net.crace4]) == 3

    def test_refined_dims_track_encoder_dims(self):
        net = small_net()
        feats = net.encode(rand_image())
        refined = net.context_flow(feats)
        for refined_map, feat in zip(refined, feats):
            assert refined_map.shape[2:] == feat.shape[2:]
            assert refined_map.shape[1] == net.config.crace.n

    def test_mode_alone_decides_the_depth_streams(self):
        rgb, rgbd = small_net("rgb"), small_net("rgbd")
        for level in (2, 3, 4):
            assert getattr(rgb, f"crace{level}").proj_depth is None
            assert getattr(rgbd, f"crace{level}").proj_depth is not None
        with pytest.raises(TypeError):
            CraceConfig(depth_input=True)
        feats = rgb.encode(rand_image())
        with pytest.raises(ModeError):
            rgb.context_flow(feats, feats)
        with pytest.raises(ModeError):
            rgbd.context_flow(feats)


class TestPredict:
    def test_four_saliency_four_edge_maps(self):
        out = small_net().forward(rand_image())
        assert len(out["saliency_logits"]) == 4
        assert len(out["edge_logits"]) == 4
        assert "depth_logits" not in out

    def test_final_map_at_input_resolution(self):
        out = small_net().forward(rand_image(side=96))
        for logits in out["saliency_logits"] + out["edge_logits"]:
            assert logits.shape == (1, 1, 96, 96)

    def test_logits_finite_probs_in_range(self):
        net = small_net()
        probs = net.infer(np.random.default_rng(1).uniform(size=(3, 64, 64)))
        assert probs.shape == (64, 64)
        assert np.all((probs > 0) & (probs < 1))

    def test_rgbd_adds_depth_maps(self):
        net = small_net("rgbd")
        depth = Tensor(np.random.default_rng(2).uniform(size=(1, 1, 64, 64)))
        out = net.forward(rand_image(), depth)
        assert len(out["depth_logits"]) == 4

    def test_mode_contracts(self):
        with pytest.raises(ModeError):
            small_net("rgb").forward(rand_image(), Tensor(np.zeros((1, 1, 64, 64))))
        with pytest.raises(ModeError):
            small_net("rgbd").forward(rand_image())
        image = rand_image().data[0]
        with pytest.raises(ModeError):
            small_net("rgb").infer(image, np.zeros((64, 64)))
        with pytest.raises(ModeError):
            small_net("rgbd").infer(image)


class TestInfer:
    """``infer`` is the graph-free, final-head-only fast path of ``forward``."""

    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from(["rgb", "rgbd"]),
        toggles=st.lists(st.booleans(), min_size=4, max_size=4),
        side=st.sampled_from([32, 64, 96]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_recorded_forward(self, mode, toggles, side, seed):
        ca, cha, ms, af = toggles
        crace = CraceConfig(
            n=8, sampling_rates=(1, 2), dilation_rates=(1, 2),
            enable_cross_attention=ca, enable_channel_attention=cha,
            enable_multiscale=ms, enable_attentive_fusion=af,
        )
        net = SodNetwork(NetworkConfig(EncoderConfig(widths=(4, 8, 12, 16)), crace, mode), seed)
        rng = np.random.default_rng(seed)
        for name, buf in net.buffers():  # non-trivial running statistics
            if name.endswith("running_var"):
                buf[...] = rng.uniform(0.5, 2.0, buf.shape)
            else:
                buf[...] = rng.normal(size=buf.shape)
        image = rng.uniform(size=(3, side, side))
        depth = rng.uniform(size=(side, side)) if mode == "rgbd" else None
        dep = Tensor(depth[None, None]) if depth is not None else None
        logits = net.forward(Tensor(image[None]), dep)["saliency_logits"][0]
        assert logits._backward is not None  # the reference path records its graph
        want = sigmoid(logits).data[0, 0]
        assert net.infer(image, depth).tobytes() == want.tobytes()


class TestInferInputs:
    """``infer`` refuses a malformed input with a typed error before any
    encoder runs."""

    @pytest.fixture
    def no_encoder(self, monkeypatch):
        def encoder_ran(*args, **kwargs):
            raise AssertionError("an encoder ran")

        monkeypatch.setattr(SodNetwork, "encode", encoder_ran)
        monkeypatch.setattr(SodNetwork, "encode_depth", encoder_ran)

    def test_a_2d_image_is_a_shape_error_naming_image(self, no_encoder):
        with pytest.raises(ShapeError, match=re.escape("image must have shape (3, H, W)")):
            small_net().infer(np.zeros((64, 64)))

    def test_a_depth_with_a_channel_axis_is_a_shape_error_naming_depth(self, no_encoder):
        image = rand_image().data[0]
        with pytest.raises(ShapeError, match=re.escape("depth must have the image's shape")):
            small_net("rgbd").infer(image, np.zeros((1, 64, 64)))

    @pytest.mark.parametrize("mode, field", [("rgb", "image"), ("rgbd", "image"), ("rgbd", "depth")])
    def test_a_non_finite_value_is_a_value_error_naming_the_input(self, no_encoder, mode, field):
        inputs = {"image": rand_image().data[0], "depth": np.ones((64, 64)) if mode == "rgbd" else None}
        inputs[field] = np.full_like(inputs[field], np.nan if field == "image" else np.inf)
        with pytest.raises(ValueError, match=f"{field} holds non-finite values"):
            small_net(mode).infer(inputs["image"], inputs["depth"])


class TestTraining:
    def test_forward_backward_all_gradients_finite(self):
        net = small_net(seed=3)
        params = dict(net.parameters())
        img = rand_image(b=2, seed=4)
        out = net.forward(img, training=True)
        loss = None
        for logits in out["saliency_logits"] + out["edge_logits"]:
            term = (logits * logits).mean()
            loss = term if loss is None else loss + term
        zero_grads(params.values())
        backward(loss)
        for name, p in params.items():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_param_count_stable_and_frozen(self):
        a, b = small_net(seed=0), small_net(seed=99)
        assert a.param_count() == b.param_count()
        default = SodNetwork(NetworkConfig.default("rgb"), seed=0)
        assert default.param_count() == 1_075_710  # regression pin

    def test_export_load_round_trip(self):
        net = small_net(seed=6)
        arrays = net.export_arrays()
        other = small_net(seed=7)
        other.load_arrays(arrays)
        img = rand_image(seed=8)
        assert np.array_equal(
            net.forward(img)["saliency_logits"][0].data,
            other.forward(img)["saliency_logits"][0].data,
        )


ALL_STAGES_OFF = dict(
    enable_cross_attention=False,
    enable_channel_attention=False,
    enable_multiscale=False,
    enable_attentive_fusion=False,
)

# Checkpoint names are on-disk format: (array count, parameter count,
# SHA-256 of the "name shape" lines of export_arrays() in order).
EXPORT_PINS = {
    ("rgb", True): (164, 124, "5cd2d2fe3b3df10ad3af9c42e216ade5a1dcf2a58b315d6018f5399088aa0326"),
    ("rgb", False): (122, 82, "d6649734542bca36c290194c592ab56fde766eed583defabf9fc2cdb10bf9140"),
    ("rgbd", True): (252, 180, "7b3757821ee06554e4dd8eb84855b066da1ee070b5565d85e1a896d0c59d7d17"),
    ("rgbd", False): (210, 138, "d622faff93a53548e30924c7afac22e7e6c38e6aa42500464baa91dcd1bfd025"),
}


class TestCheckpointNames:
    @pytest.mark.parametrize("mode,stages", sorted(EXPORT_PINS))
    def test_export_names_shapes_and_order_pinned(self, mode, stages):
        cfg = NetworkConfig.default(mode)
        if not stages:
            cfg = NetworkConfig(cfg.encoder, replace(cfg.crace, **ALL_STAGES_OFF), mode)
        net = SodNetwork(cfg)
        arrays = net.export_arrays()
        joined = "\n".join(f"{name} {tuple(a.shape)}" for name, a in arrays.items())
        digest = hashlib.sha256(joined.encode()).hexdigest()
        assert (len(arrays), len(list(net.parameters())), digest) == EXPORT_PINS[mode, stages]

    def test_load_arrays_is_all_or_nothing(self):
        net = small_net("rgbd", seed=6)
        before = net.export_arrays()
        bad = small_net("rgbd", seed=7).export_arrays()
        last = list(bad)[-1]
        bad[last] = np.zeros(bad[last].shape + (1,))
        with pytest.raises(ShapeError, match=re.escape(last)):
            net.load_arrays(bad)
        after = net.export_arrays()
        assert list(after) == list(before)
        for name in before:
            assert after[name].tobytes() == before[name].tobytes(), name

    def test_load_arrays_names_a_missing_buffer(self):
        net = small_net(seed=6)
        arrays = net.export_arrays()
        name = next(n for n in arrays if n.endswith("running_var"))
        del arrays[name]
        with pytest.raises(KeyError, match=re.escape(name)):
            net.load_arrays(arrays)
