import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cracenet import crace
from cracenet.crace import ConfigError, CraceConfig, CraceModule
from cracenet.tensor import Node, Tensor, ShapeError, backward, no_grad, zero_grads
from oracles import assert_rel_close, channel_attention_composed, check_gradients


def tiny_cfg(**kw):
    base = dict(n=4, sampling_rates=(1, 2), dilation_rates=(1, 2))
    base.update(kw)
    return CraceConfig(**base)


def rand(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


def zero_attention(module):
    for conv in (module.att_cross, module.att_global):
        if conv is not None:
            conv.weight.data = np.zeros_like(conv.weight.data)
            conv.bias.data = np.zeros_like(conv.bias.data)


class TestConfig:
    def test_default_branch_pairing(self):
        cfg = CraceConfig()
        assert cfg.branch_plan() == ((1, 1), (2, 1), (4, 4), (8, 6))

    def test_unpairable_raises(self):
        with pytest.raises(ConfigError):
            CraceConfig(sampling_rates=(1, 2, 4), dilation_rates=(1,)).branch_plan()

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            CraceConfig(n=0)
        with pytest.raises(ConfigError):
            CraceConfig(sampling_rates=(0, 2))


class TestCrossAttention:
    def test_attention_strictly_inside_unit_interval(self):
        m = CraceModule(3, 4, tiny_cfg(), rng=np.random.default_rng(0))
        _, parts = m.cross_attention(rand((2, 3, 8, 8)), rand((2, 4, 4, 4), 1), return_parts=True)
        attn = parts["attention"].data
        assert attn.shape == (2, 1, 8, 8)
        assert np.all(attn > 0.0) and np.all(attn < 1.0)

    def test_zeroed_logits_give_exact_residual_scaling(self):
        m = CraceModule(3, 4, tiny_cfg(), rng=np.random.default_rng(1))
        zero_attention(m)
        fused, parts = m.cross_attention(
            rand((1, 3, 8, 8)), rand((1, 4, 4, 4), 2), return_parts=True
        )
        n = m.config.n
        for i, key in enumerate(("proj_local", "proj_global")):
            stream = fused.data[:, i * n : (i + 1) * n]
            assert np.max(np.abs(stream - 1.5 * parts[key].data)) <= 1e-12

    def test_output_resolution_follows_local(self):
        m = CraceModule(3, 4, tiny_cfg(), rng=np.random.default_rng(2))
        out = m.cross_attention(rand((2, 3, 8, 8)), rand((2, 4, 4, 4)))
        assert out.shape == (2, 2 * 4, 8, 8)
        out = m.cross_attention(rand((2, 3, 8, 8)), rand((2, 4, 8, 8)))
        assert out.shape == (2, 2 * 4, 8, 8)

    def test_bad_spatial_ratio(self):
        m = CraceModule(3, 4, tiny_cfg(), rng=np.random.default_rng(3))
        with pytest.raises(ShapeError):
            m.cross_attention(rand((1, 3, 8, 8)), rand((1, 4, 3, 3)))

    def test_depth_against_config(self):
        m = CraceModule(3, 4, tiny_cfg(), rng=np.random.default_rng(4))
        assert m.proj_depth is None
        with pytest.raises(ConfigError):
            m.cross_attention(rand((1, 3, 8, 8)), rand((1, 4, 4, 4)), rand((1, 3, 8, 8)))
        m3 = CraceModule(3, 4, tiny_cfg(), rng=np.random.default_rng(4), in_depth=3)
        with pytest.raises(ConfigError):
            m3.cross_attention(rand((1, 3, 8, 8)), rand((1, 4, 4, 4)))

    def test_three_stream_concat_width(self):
        cfg = tiny_cfg()
        m = CraceModule(3, 4, cfg, rng=np.random.default_rng(5), in_depth=2)
        out = m.cross_attention(rand((1, 3, 8, 8)), rand((1, 4, 4, 4)), rand((1, 2, 8, 8)))
        assert out.shape == (1, 3 * cfg.n, 8, 8)


class TestChannelAttention:
    def test_constant_input_gap_squares(self):
        # A constant channel pools to its own value, so the re-weighted half
        # sees its square: out = W_a v^2 + W_b v + bias at every pixel.
        cfg = tiny_cfg()
        m = CraceModule(3, 4, cfg, rng=np.random.default_rng(6))
        m.channel_reduce.bias.data = np.random.default_rng(16).normal(size=cfg.n)
        vals = np.arange(1.0, 2 * cfg.n + 1)
        fused = Tensor(np.tile(vals[:, None, None], (1, 6, 6))[None])
        out = m.channel_attention(fused)
        w = m.channel_reduce.weight.data[:, :, 0, 0]
        want = w[:, : 2 * cfg.n] @ vals**2 + w[:, 2 * cfg.n :] @ vals + m.channel_reduce.bias.data
        assert out.shape == (1, cfg.n, 6, 6)
        assert_rel_close(out.data, np.broadcast_to(want[None, :, None, None], out.shape))

    @settings(max_examples=60, deadline=None)
    @given(
        B=st.integers(1, 3),
        streams=st.integers(2, 3),
        n=st.integers(1, 4),
        H=st.integers(1, 9),
        W=st.integers(1, 9),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(B=1, streams=2, n=1, H=1, W=1, seed=0)
    @example(B=3, streams=3, n=4, H=1, W=1, seed=1)
    def test_matches_pool_product_concat_reduction(self, B, streams, n, H, W, seed):
        rng = np.random.default_rng(seed)
        m = CraceModule(
            1, 1, tiny_cfg(n=n), rng=rng, in_depth=1 if streams == 3 else None
        )
        conv = m.channel_reduce
        conv.bias.data = rng.normal(size=n)
        x = Tensor(rng.normal(size=(B, streams * n, H, W)), requires_grad=True)
        g = Tensor(rng.normal(size=(B, n, H, W)))
        results = []
        for op in (m.channel_attention, lambda f: channel_attention_composed(m, f)):
            zero_grads([x, conv.weight, conv.bias])
            out = op(x)
            backward((out * g).sum())
            results.append(
                [out.data, x.grad.copy(), conv.weight.grad.copy(), conv.bias.grad.copy()]
            )
        for got, want in zip(*results):
            assert_rel_close(got, want)

    def test_forward_and_backward_peaks_stay_below_five_quarters_of_the_input(self):
        # The concatenation the stage reduces is twice its input; the node
        # never builds it.  Its output is half the input and its gradient
        # one input; the rest is numpy's fixed 64 KB broadcasting buffer.
        cfg = tiny_cfg(n=8)
        rng = np.random.default_rng(17)
        m = CraceModule(3, 4, cfg, rng=rng)
        x = Tensor(rng.normal(size=(2, 2 * cfg.n, 64, 64)), requires_grad=True)
        node = m.channel_attention(x)
        g = rng.normal(size=node.shape)
        for run in (lambda: m.channel_attention(x), lambda: node._backward(g)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * x.data.nbytes, peak / x.data.nbytes

    def test_disabled_is_plain_reduction(self):
        cfg = tiny_cfg(enable_channel_attention=False)
        m = CraceModule(3, 4, cfg, rng=np.random.default_rng(7))
        fused = rand((2, 2 * cfg.n, 6, 6))
        out = m.channel_attention(fused)
        ref = m.channel_reduce.forward(fused)
        assert np.array_equal(out.data, ref.data)

    def test_output_channel_count(self):
        for flag in (True, False):
            cfg = tiny_cfg(enable_channel_attention=flag)
            m = CraceModule(3, 4, cfg, rng=np.random.default_rng(8))
            assert m.channel_attention(rand((1, 2 * cfg.n, 5, 5))).shape == (1, cfg.n, 5, 5)


class TestMultiScale:
    def test_zero_kernels_zero_output(self):
        cfg = tiny_cfg()
        m = CraceModule(3, 4, cfg, rng=np.random.default_rng(9))
        for conv in m.branch_convs:
            conv.weight.data = np.zeros_like(conv.weight.data)
            conv.bias.data = np.zeros_like(conv.bias.data)
        out = m.multi_scale(rand((1, cfg.n, 8, 8)))
        assert np.array_equal(out.data, np.zeros_like(out.data))

    @pytest.mark.parametrize("side", [8, 16, 24, 33])
    def test_shape_preserved_including_pad_path(self, side):
        cfg = CraceConfig(n=4, sampling_rates=(1, 2, 4, 8), dilation_rates=(1, 4, 6))
        m = CraceModule(3, 4, cfg, rng=np.random.default_rng(10))
        out = m.multi_scale(rand((1, 4, side, side)))
        assert out.shape == (1, 4, side, side)

    def test_identity_branch_reproduces_input(self):
        cfg = tiny_cfg(sampling_rates=(1,), dilation_rates=(1,))
        m = CraceModule(3, 4, cfg, rng=np.random.default_rng(11))
        conv = m.branch_convs[0]
        w = np.zeros_like(conv.weight.data)
        for c in range(cfg.n):
            w[c, c, 1, 1] = 1.0  # center tap
        conv.weight.data = w
        conv.bias.data = np.zeros_like(conv.bias.data)
        x = rand((1, cfg.n, 7, 7), 12)
        assert np.allclose(m.multi_scale(x).data, x.data, atol=1e-12)

    def test_disabled_passthrough(self):
        m = CraceModule(3, 4, tiny_cfg(enable_multiscale=False), rng=np.random.default_rng(13))
        x = rand((1, 4, 6, 6))
        assert m.multi_scale(x) is x


class TestAttentiveFusion:
    def test_global_attention_range_and_zeroed_residual(self):
        cfg = tiny_cfg()
        m = CraceModule(3, 4, cfg, rng=np.random.default_rng(14))
        pg = rand((1, cfg.n, 8, 8), 3)
        _, parts = m.attentive_fusion(rand((1, cfg.n, 8, 8)), pg, return_parts=True)
        attn = parts["attention"].data
        assert attn.shape == (1, 1, 8, 8)
        assert np.all(attn > 0.0) and np.all(attn < 1.0)
        zero_attention(m)
        _, parts = m.attentive_fusion(rand((1, cfg.n, 8, 8)), pg, return_parts=True)
        assert np.max(np.abs(parts["gated_global"].data - 1.5 * pg.data)) <= 1e-12

    def test_shapes(self):
        cfg = tiny_cfg()
        m = CraceModule(3, 4, cfg, rng=np.random.default_rng(15))
        out = m.attentive_fusion(rand((2, cfg.n, 6, 6)), rand((2, cfg.n, 6, 6)))
        assert out.shape == (2, cfg.n, 6, 6)


class TestFullModule:
    def test_baseline_is_projected_concat_plus_reduce(self):
        cfg = tiny_cfg(
            enable_cross_attention=False,
            enable_channel_attention=False,
            enable_multiscale=False,
            enable_attentive_fusion=False,
        )
        m = CraceModule(3, 4, cfg, rng=np.random.default_rng(16))
        f_l, f_g = rand((1, 3, 8, 8)), rand((1, 4, 4, 4), 1)
        out = m.forward(f_l, f_g)
        pl, pg, _ = m.project(f_l, f_g)
        from cracenet.tensor import concat_channels

        ref = m.channel_reduce.forward(concat_channels([pl, pg]))
        assert np.array_equal(out.data, ref.data)

    def test_output_shape_for_any_toggle_combo(self):
        f_l, f_g = rand((2, 3, 8, 8)), rand((2, 4, 4, 4), 1)
        for bits in range(16):
            cfg = tiny_cfg(
                enable_cross_attention=bool(bits & 1),
                enable_channel_attention=bool(bits & 2),
                enable_multiscale=bool(bits & 4),
                enable_attentive_fusion=bool(bits & 8),
            )
            m = CraceModule(3, 4, cfg, rng=np.random.default_rng(17))
            assert m.forward(f_l, f_g).shape == (2, cfg.n, 8, 8)

    def test_depth_fallback_matches_two_input_path(self):
        # without in_depth, passing depth=None is the two-input path
        cfg = tiny_cfg()
        m = CraceModule(3, 4, cfg, rng=np.random.default_rng(18))
        f_l, f_g = rand((1, 3, 8, 8)), rand((1, 4, 4, 4), 1)
        assert np.array_equal(
            m.forward(f_l, f_g, None).data, m.forward(f_l, f_g).data
        )

    def test_full_module_gradients_tiny_dims(self):
        cfg = tiny_cfg()
        m = CraceModule(2, 3, cfg, rng=np.random.default_rng(19))
        f_l = rand((1, 2, 8, 8), 20)
        f_g = rand((1, 3, 4, 4), 21)
        params = [p for _, p in m.parameters()]

        def loss():
            return (m.forward(f_l, f_g) ** 2.0).mean()

        check_gradients(loss, params, max_coords=12, rng=np.random.default_rng(22))

    def test_deterministic_forward(self):
        m = CraceModule(3, 4, tiny_cfg(), rng=np.random.default_rng(23))
        f_l, f_g = rand((1, 3, 8, 8)), rand((1, 4, 4, 4), 1)
        assert np.array_equal(m.forward(f_l, f_g).data, m.forward(f_l, f_g).data)


def _held(value):
    """``value`` and, inside tuples, lists and dicts, everything it holds."""
    yield value
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _held(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _held(item)


class TestGraphRetention:
    def test_no_backward_rule_holds_a_tensor(self):
        # Train-mode RGB-D module with every stage on: the rules capture
        # arrays, shapes and flags, never a tensor and so never its value.
        m = CraceModule(5, 6, tiny_cfg(n=8), rng=np.random.default_rng(4), in_depth=3)
        f_local = Tensor(np.random.default_rng(5).normal(size=(2, 5, 32, 32)), requires_grad=True)
        out = m.forward(f_local, rand((2, 6, 16, 16), 6), rand((2, 3, 32, 32), 7), training=True)
        nodes, seen, stack = [], set(), [out._node]
        while stack:
            node = stack.pop()
            if node is None or node in seen:
                continue
            seen.add(node)
            nodes.append(node)
            stack.extend(node.parents)
        rules = [n.backward_fn for n in nodes if n.backward_fn is not None]
        assert len(rules) > 25
        for rule in rules:
            for cell in rule.__closure__ or ():
                held = list(_held(cell.cell_contents))
                assert not any(isinstance(v, (Tensor, Node)) for v in held), rule.__qualname__

    @pytest.mark.parametrize("in_depth", [None, 3], ids=["rgb", "rgbd"])
    def test_forward_frees_stage_1_before_multi_scale(self, in_depth):
        # Every stage on, so the streams are new tensors.  Of stage 1, only
        # the projected global stream, which stage 4 gates, may outlive
        # stage 2.
        m = CraceModule(5, 6, tiny_cfg(n=8), rng=np.random.default_rng(8), in_depth=in_depth)
        cross_attention, multi_scale = m.cross_attention, m.multi_scale
        refs, alive = [], []

        def spy_cross_attention(*args, return_parts=False, **kw):
            fused, parts = cross_attention(*args, return_parts=True, **kw)
            held = [fused, *parts["streams"], parts["proj_local"], parts["attention"]]
            if in_depth is not None:
                held.append(parts["proj_depth"])
            refs.extend(weakref.ref(t) for t in held)
            return (fused, parts) if return_parts else fused

        def spy_multi_scale(x):
            alive.extend(r() is not None for r in refs)
            return multi_scale(x)

        m.cross_attention, m.multi_scale = spy_cross_attention, spy_multi_scale
        depth = rand((1, 3, 16, 16), 3) if in_depth is not None else None
        with no_grad():
            out = m.forward(rand((1, 5, 16, 16), 1), rand((1, 6, 8, 8), 2), depth)
        assert isinstance(out, Tensor) and out.shape == (1, 8, 16, 16)
        assert len(alive) == len(refs) == (5 if in_depth is None else 7)
        assert not any(alive)


class TestRebuiltInputs:
    """Backward rebuilds the inputs the module marks (the upsampled global
    map, the summed projections, stage 2's concatenation and the gated half
    of the fusion input) instead of keeping them; every gradient keeps the
    bytes it has when they are kept."""

    @settings(max_examples=30, deadline=None)
    @given(
        toggles=st.lists(st.booleans(), min_size=4, max_size=4),
        with_depth=st.booleans(),
        factor=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_gradients_equal_those_of_kept_inputs(self, toggles, with_depth, factor, seed):
        ca, cha, ms, af = toggles
        cfg = tiny_cfg(
            enable_cross_attention=ca, enable_channel_attention=cha,
            enable_multiscale=ms, enable_attentive_fusion=af,
        )
        rng = np.random.default_rng(seed)
        m = CraceModule(3, 5, cfg, rng=rng, in_depth=2 if with_depth else None)
        params = [p for _, p in m.parameters()]
        side = 8 // factor
        arrays = [rng.normal(size=(2, 3, 8, 8)), rng.normal(size=(2, 5, side, side))]
        arrays += [rng.normal(size=(2, 2, 8, 8))] if with_depth else [None]

        def gradients():
            inputs = [None if a is None else Tensor(a, requires_grad=True) for a in arrays]
            for p in params:
                p.grad = None
            out = m.forward(*inputs, training=True)
            backward((out * out).sum())
            grads = [p.grad for p in params] + [t.grad for t in inputs if t is not None]
            return [None if g is None else g.tobytes() for g in grads]

        rebuilt = gradients()
        with mock.patch.object(crace, "_rebuilt", lambda t, *pieces: t):
            kept = gradients()
        assert rebuilt == kept
