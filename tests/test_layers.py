import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cracenet import layers
from cracenet.layers import (
    BatchNormLayer,
    Conv2dLayer,
    DegenerateStatisticsError,
    conv2d,
    downsample_avg,
    erode,
    upsample,
)
from cracenet import tensor as tensor_module
from cracenet.tensor import Tensor, ShapeError, backward, make_node, relu, zero_grads
from oracles import (
    assert_rel_close,
    batchnorm_train_composed,
    check_gradients,
    conv2d_bruteforce,
    conv2d_grad_bruteforce,
    erode_bruteforce,
    erode_windows,
    relu_where,
    upsample_bruteforce,
)


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestConv2d:
    def test_identity_1x1_selects_channels(self):
        rng = np.random.default_rng(0)
        x = t(rng.uniform(size=(2, 4, 5, 5)))
        layer = Conv2dLayer(4, 2, kernel=1, rng=rng)
        w = np.zeros((2, 4, 1, 1))
        w[0, 2, 0, 0] = 1.0  # select channel 2 and 0
        w[1, 0, 0, 0] = 1.0
        layer.weight.data = w
        out = conv2d(x, layer)
        assert np.allclose(out.data[:, 0], x.data[:, 2])
        assert np.allclose(out.data[:, 1], x.data[:, 0])

    def test_ones_kernel_constant_interior(self):
        # frozen from the direct-summation oracle: interior of a constant
        # field under an all-ones 3x3 kernel sums 9 contributions
        c = 0.7
        x = t(np.full((1, 1, 6, 6), c))
        layer = Conv2dLayer(1, 1, kernel=3)
        layer.weight.data = np.ones((1, 1, 3, 3))
        layer.bias.data = np.zeros(1)
        out = conv2d(x, layer)
        assert np.allclose(out.data[0, 0, 1:-1, 1:-1], 9 * c)
        ref = conv2d_bruteforce(x.data, layer.weight.data, layer.bias.data)
        assert np.allclose(out.data, ref)

    def test_matches_bruteforce_with_stride_and_dilation(self):
        rng = np.random.default_rng(3)
        for stride, dilation in [(1, 1), (2, 1), (1, 2), (1, 4)]:
            x = t(rng.normal(size=(2, 3, 10, 12)))
            layer = Conv2dLayer(3, 5, kernel=3, stride=stride, dilation=dilation, rng=rng)
            out = conv2d(x, layer)
            ref = conv2d_bruteforce(
                x.data, layer.weight.data, layer.bias.data, stride, dilation
            )
            assert np.allclose(out.data, ref, atol=1e-12)

    def test_dilation_keeps_same_padding_dims(self):
        x = t(np.zeros((1, 2, 9, 9)))
        layer = Conv2dLayer(2, 2, kernel=3, dilation=4)
        assert conv2d(x, layer).shape == (1, 2, 9, 9)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(t(np.zeros((1, 3, 8, 8))), Conv2dLayer(4, 2))

    def test_linearity_bias_free(self):
        rng = np.random.default_rng(5)
        layer = Conv2dLayer(2, 3, kernel=3, bias=False, rng=rng)
        x = rng.normal(size=(1, 2, 6, 6))
        y = rng.normal(size=(1, 2, 6, 6))
        a, b = 1.7, -0.3
        lhs = conv2d(t(a * x + b * y), layer).data
        rhs = a * conv2d(t(x), layer).data + b * conv2d(t(y), layer).data
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        x = t(rng.normal(size=(1, 2, 5, 5)), grad=True)
        layer = Conv2dLayer(2, 3, kernel=3, rng=rng)
        layer.weight.requires_grad = True

        def loss():
            return (conv2d(x, layer) ** 2.0).mean()

        check_gradients(loss, [x, layer.weight, layer.bias], rng=rng)

    @pytest.mark.parametrize("kernel, stride", [(3, 2), (3, 1), (1, 1)])
    def test_input_without_grad_gets_none_and_same_weight_grad(self, kernel, stride):
        # The stem convs read the image and depth map, which need no gradient.
        rng = np.random.default_rng(17)
        data = rng.normal(size=(2, 3, 8, 8))
        layer = Conv2dLayer(3, 4, kernel, stride, rng=rng)
        g = rng.normal(size=conv2d(t(data), layer).shape)
        stem = conv2d(t(data), layer)._backward(g)
        full = conv2d(t(data, grad=True), layer)._backward(g)
        assert stem[0] is None and full[0] is not None
        for got, want in zip(stem[1:], full[1:]):
            assert got.tobytes() == want.tobytes()
        x = t(data)
        zero_grads([layer.weight, layer.bias])
        backward((conv2d(x, layer) ** 2.0).sum())
        assert x.grad is None and layer.weight.grad is not None

    @pytest.mark.parametrize(
        "kernel, stride, dilation", [(3, 1, 1), (3, 2, 1), (3, 1, 2), (1, 2, 1), (1, 1, 1)]
    )
    def test_backward_keeps_no_array_larger_than_its_input(self, kernel, stride, dilation):
        # The polyphase copy is as large as the padded input; backward rebuilds it.
        rng = np.random.default_rng(19)
        x = t(rng.normal(size=(2, 3, 16, 16)), grad=True)
        node = conv2d(x, Conv2dLayer(3, 4, kernel, stride, dilation, rng=rng))
        cells = [cell.cell_contents for cell in node._backward.__closure__]
        held = [value for value in cells if isinstance(value, np.ndarray)]
        assert held and max(a.nbytes for a in held) <= x.data.nbytes

    def test_1x1_stride_1_forward_copies_nothing_of_its_input(self):
        # The one phase of a 1x1 stride-1 plan is the input itself, and with
        # R = 0 each product is written straight into its output rows.
        rng = np.random.default_rng(41)
        x = t(rng.normal(size=(2, 32, 24, 24)), grad=True)
        layer = Conv2dLayer(32, 2, 1, rng=rng)
        conv2d(x, layer)  # builds and caches the plan
        tracemalloc.start()
        try:
            out = conv2d(x, layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.data.nbytes + x.data.nbytes // 8, peak / x.data.nbytes

    @pytest.mark.parametrize(
        "stride, dilation, O",
        [pytest.param(s, d, O, id=f"{prefix}{s}-{d}")
         for prefix, O in (("", 4), ("stacked-", 16))
         for s, d in ((1, 1), (2, 1), (1, 2))],
    )
    def test_backward_keeps_the_weight_array_not_a_repack(self, stride, dilation, O):
        # Parameters get new arrays, never in-place writes, so the node can
        # hold the weight array itself and repack it only for the input
        # gradient; a weight replaced after the forward leaves it unchanged.
        rng = np.random.default_rng(23)
        x = t(rng.normal(size=(2, 3, 10, 10)), grad=True)
        layer = Conv2dLayer(3, O, 3, stride, dilation, rng=rng)
        node = conv2d(x, layer)
        g = rng.normal(size=node.shape)
        want = conv2d(x, layer)._backward(g)
        cells = [cell.cell_contents for cell in node._backward.__closure__]
        held = [value for value in cells if isinstance(value, np.ndarray)]
        assert len(held) == 2
        assert any(a is x.data for a in held) and any(a is layer.weight.data for a in held)
        layer.weight.data = layer.weight.data + 1.0
        for got, ref in zip(node._backward(g), want):
            assert got.tobytes() == ref.tobytes()

    def test_gradients_strided_1x1(self):
        rng = np.random.default_rng(13)
        x = t(rng.normal(size=(1, 3, 6, 6)), grad=True)
        for layer in (
            Conv2dLayer(3, 2, kernel=1, rng=rng),
            Conv2dLayer(3, 2, kernel=3, stride=2, rng=rng),
        ):
            check_gradients(lambda: (conv2d(x, layer) ** 2.0).sum(), [x, layer.weight], rng=rng)

    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from([1, 3]),
        stride=st.sampled_from([1, 2, 3]),
        dilation=st.sampled_from([1, 2, 4, 6]),
        bias=st.booleans(),
        B=st.integers(1, 3),
        C=st.integers(1, 5),
        O=st.integers(1, 4),
        H=st.integers(1, 12),
        W=st.integers(1, 12),
        seed=st.integers(0, 2**31 - 1),
    )
    # The real net's smallest multi-scale branch: a 2x2 map under dilation 6.
    @example(kernel=3, stride=1, dilation=6, bias=False, B=2, C=3, O=2, H=2, W=2, seed=0)
    # A saliency head: 1x1, stride 1, one output channel with a bias.
    @example(kernel=1, stride=1, dilation=1, bias=True, B=2, C=5, O=1, H=3, W=7, seed=1)
    def test_values_and_gradients_match_direct_summation(
        self, kernel, stride, dilation, bias, B, C, O, H, W, seed
    ):
        rng = np.random.default_rng(seed)
        layer = Conv2dLayer(C, O, kernel, stride, dilation, bias=bias, rng=rng)
        if bias:
            layer.bias.data = rng.normal(size=O)
        x = t(rng.normal(size=(B, C, H, W)), grad=True)
        out = conv2d(x, layer)
        b = layer.bias.data if bias else None
        assert_rel_close(
            out.data, conv2d_bruteforce(x.data, layer.weight.data, b, stride, dilation)
        )
        g = rng.normal(size=out.shape)
        grads = out._backward(g)
        want = conv2d_grad_bruteforce(x.data, layer.weight.data, g, stride, dilation)
        assert len(grads) == (3 if bias else 2)
        for got, ref in zip(grads, want):
            assert_rel_close(got, ref)


    @pytest.mark.parametrize(
        "dilation, stride, C, O",
        [pytest.param(d, s, C, O, id=f"{prefix}{d}-{s}")
         for prefix, C, O in (("", 8, 8), ("C1-O16-", 1, 16), ("C8-O32-", 8, 32))
         for d, s in ((1, 1), (2, 1), (1, 2), (2, 2))],
    )
    def test_forward_and_backward_peaks_stay_below_three_padded_inputs(self, dilation, stride, C, O):
        # The polyphase copy, its gradient and a stacked group's workspace
        # are each at most about one padded input; the accumulator and the
        # output gradient are each one padded output, which a few-channel
        # class's stacked taps make the larger of the two.
        B, H = 2, 32
        rng = np.random.default_rng(29)
        x = t(rng.normal(size=(B, C, H, H)), grad=True)
        layer = Conv2dLayer(C, O, 3, stride, dilation, bias=False, rng=rng)
        side = (H - 1) // stride + 1
        padded_bytes = 8 * max(
            B * C * (H + 2 * dilation) ** 2, B * O * side * (side + 2 * dilation // stride)
        )
        node = conv2d(x, layer)
        g = rng.normal(size=node.shape)
        for run in (lambda: conv2d(x, layer), lambda: node._backward(g)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * padded_bytes, peak / padded_bytes

    @settings(max_examples=40, deadline=None)
    @given(
        C=st.sampled_from([1, 2, 3, 8, 16]),
        O=st.integers(1, 64),
        stride=st.integers(1, 3),
        dilation=st.integers(1, 3),
        B=st.integers(1, 2),
        H=st.integers(1, 7),
        W=st.integers(1, 7),
        seed=st.integers(0, 2**31 - 1),
    )
    # The stems of the network: one depth and three image channels into 16.
    @example(C=1, O=16, stride=2, dilation=1, B=2, H=7, W=6, seed=0)
    @example(C=3, O=16, stride=2, dilation=1, B=1, H=6, W=7, seed=1)
    # crace2's projections, stacked, next to a class that is not.
    @example(C=16, O=64, stride=1, dilation=1, B=1, H=2, W=3, seed=2)
    @example(C=16, O=32, stride=1, dilation=2, B=1, H=3, W=2, seed=3)
    def test_tap_groups_match_direct_summation(self, C, O, stride, dilation, B, H, W, seed):
        # Both sides of the group rule, on maps small enough that taps die:
        # the forward, the weight gradient and the input gradient.
        Ho, Wo = (H - 1) // stride + 1, (W - 1) // stride + 1
        assume(B * C * O * Ho * Wo <= 2048)
        rng = np.random.default_rng(seed)
        layer = Conv2dLayer(C, O, 3, stride, dilation, bias=False, rng=rng)
        x = t(rng.normal(size=(B, C, H, W)), grad=True)
        out = conv2d(x, layer)
        assert_rel_close(
            out.data, conv2d_bruteforce(x.data, layer.weight.data, None, stride, dilation)
        )
        g = rng.normal(size=out.shape)
        gx, gw = out._backward(g)
        want = conv2d_grad_bruteforce(x.data, layer.weight.data, g, stride, dilation)
        assert_rel_close(gw, want[1])
        assert_rel_close(gx, want[0])

    @settings(max_examples=200, deadline=None)
    @given(
        C=st.sampled_from([1, 2, 3, 8, 16]),
        O=st.integers(1, 64),
        stride=st.integers(1, 3),
        dilation=st.integers(1, 3),
        B=st.integers(1, 2),
        H=st.integers(1, 7),
        W=st.integers(1, 7),
    )
    @example(C=1, O=16, stride=2, dilation=1, B=2, H=7, W=6)
    @example(C=16, O=32, stride=1, dilation=2, B=1, H=3, W=2)
    def test_plan_groups_cover_the_live_taps_in_bounded_blocks(
        self, C, O, stride, dilation, B, H, W
    ):
        # A lone tap's product is the tap-by-tap sum to the bit only because
        # it spans a whole image; a stacked group's workspace stays bounded.
        plan = layers._conv_plan((B, C, H, W), O, 3, stride, dilation)
        T = len(plan.taps)
        assert [t0 + t for t0, n in plan.groups for t in range(n)] == list(range(T))
        assert [r for r0, r1 in plan.blocks for r in range(r0, r1)] == list(range(plan.Ho))
        if plan.stacked:
            assert plan.groups == [(0, T)]
            # A block holds at least one row, which on a map of a few rows
            # (C1 -> O4 at 2x2: 36 values) outgrows the 18-value copy.
            workspace = plan.copied * plan.block_rows * plan.Wq
            bound = min(plan.phases * C * plan.length, layers._WORKSPACE_VALUES)
            assert workspace <= bound or plan.block_rows == 1
        else:
            assert plan.groups == [(t, 1) for t in range(T)]
            assert plan.blocks == [(0, plan.Ho)] and plan.copied == 0

    @pytest.mark.parametrize(
        "C, O, H, dilation, stacked",
        [(1, 16, 8, 1, True), (3, 16, 8, 1, True), (16, 64, 8, 1, True),
         (16, 63, 8, 1, False), (32, 64, 8, 1, False), (64, 64, 8, 1, False),
         # Only the centre tap reads a 2x2 map under dilation 6: nothing to stack.
         (1, 16, 2, 6, False)],
    )
    def test_group_rule_stacks_few_channel_classes(self, C, O, H, dilation, stacked):
        assert layers._conv_plan((2, C, H, H), O, 3, 1, dilation).stacked == stacked

    def test_equal_shapes_get_one_cached_plan(self):
        rng = np.random.default_rng(37)
        layers._conv_plan.cache_clear()
        first = Conv2dLayer(3, 16, 3, 2, rng=rng)
        second = Conv2dLayer(3, 16, 3, 2, bias=False, rng=rng)
        for layer in (first, second, first):
            node = conv2d(t(rng.normal(size=(2, 3, 12, 12)), grad=True), layer)
            node._backward(rng.normal(size=node.shape))
        info = layers._conv_plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert layers._conv_plan((2, 3, 12, 12), 16, 3, 2, 1) is layers._conv_plan(
            (2, 3, 12, 12), 16, 3, 2, 1
        )
        conv2d(t(rng.normal(size=(2, 3, 12, 10))), first)
        assert layers._conv_plan.cache_info().misses == 2

    @pytest.mark.parametrize(
        "H, W, dilation, dead",
        [
            # The multi-scale branch's 2x2 map under dilation 6: only the
            # centre tap reads the image.
            (2, 2, 6, [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]),
            # Three rows under dilation 4: the top and bottom rows of taps
            # read only padding; every column of taps reads the image.
            (3, 8, 4, [(i, j) for i in (0, 2) for j in range(3)]),
        ],
    )
    def test_taps_in_the_padding_get_exact_zero_weight_gradient(self, H, W, dilation, dead):
        rng = np.random.default_rng(31)
        layer = Conv2dLayer(3, 2, 3, 1, dilation, rng=rng)
        x = t(rng.normal(size=(2, 3, H, W)), grad=True)
        out = conv2d(x, layer)
        g = rng.normal(size=out.shape)
        gx, gw, gb = out._backward(g)
        for i, j in dead:
            assert np.all(gw[:, :, i, j] == 0.0)
        want = conv2d_grad_bruteforce(x.data, layer.weight.data, g, 1, dilation)
        for got, ref in zip((gx, gw, gb), want):
            assert_rel_close(got, ref)
        assert_rel_close(
            out.data,
            conv2d_bruteforce(x.data, layer.weight.data, layer.bias.data, 1, dilation),
        )


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(1)
        bn = BatchNormLayer(3)
        x = t(rng.normal(2.0, 3.0, size=(4, 3, 6, 6)))
        bn.gamma.data = np.ones(3)
        bn.beta.data = np.zeros(3)
        y = bn.forward(x, training=True).data
        assert np.all(np.abs(y.mean(axis=(0, 2, 3))) < 1e-6)
        assert np.all(np.abs(y.var(axis=(0, 2, 3)) - 1.0) < 1e-3)  # epsilon floor

    def test_constant_channel_zeros_pre_affine(self):
        bn = BatchNormLayer(2)
        y = bn.forward(t(np.full((2, 2, 3, 3), 5.0)), training=True).data
        assert np.allclose(y, 0.0)

    def test_eval_deterministic(self):
        rng = np.random.default_rng(2)
        bn = BatchNormLayer(2)
        x = t(rng.normal(size=(2, 2, 4, 4)))
        bn.forward(x, training=True)  # populate running stats
        a = bn.forward(x, training=False).data
        b = bn.forward(x, training=False).data
        assert np.array_equal(a, b)

    def test_single_element_statistics_error(self):
        bn = BatchNormLayer(4)
        with pytest.raises(DegenerateStatisticsError):
            bn.forward(t(np.zeros((1, 4, 1, 1))), training=True)

    def test_gradients_both_modes(self):
        rng = np.random.default_rng(21)
        bn = BatchNormLayer(2)
        x = t(rng.normal(size=(2, 2, 3, 3)), grad=True)
        bn.forward(x, training=True)
        for training in (True, False):
            check_gradients(
                lambda: (bn.forward(x, training) ** 2.0).mean(),
                [x, bn.gamma, bn.beta],
                rng=rng,
            )

    @settings(max_examples=60, deadline=None)
    @given(
        B=st.integers(1, 3),
        C=st.integers(1, 4),
        H=st.integers(1, 5),
        W=st.integers(1, 5),
        constant=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(B=1, C=2, H=1, W=2, constant=False, seed=0)
    @example(B=2, C=3, H=1, W=1, constant=True, seed=1)
    def test_train_mode_equals_the_composed_graph(self, B, C, H, W, constant, seed):
        assume(B * H * W >= 2)
        rng = np.random.default_rng(seed)
        bn = BatchNormLayer(C)
        bn.gamma.data = rng.normal(size=C)
        bn.beta.data = rng.normal(size=C)
        bn.running_mean = rng.normal(size=C)
        bn.running_var = rng.uniform(0.2, 3.0, size=C)
        xd = rng.normal(1.0, 2.0, size=(B, C, H, W))
        if constant:
            xd[:, 0] = 3.7
        upstream = t(rng.normal(size=xd.shape))
        x_ref = t(xd, grad=True)
        ref, ref_mean, ref_var = batchnorm_train_composed(bn, x_ref)
        backward((ref * upstream).sum())
        ref_grads = [x_ref.grad, bn.gamma.grad, bn.beta.grad]
        zero_grads([bn.gamma, bn.beta])

        x = t(xd, grad=True)
        out = bn.forward(x, training=True)
        assert out.data.tobytes() == ref.data.tobytes()
        assert bn.running_mean.tobytes() == ref_mean.tobytes()
        assert bn.running_var.tobytes() == ref_var.tobytes()
        backward((out * upstream).sum())
        # The x gradient is a difference of terms of size |gamma*rstd*g|; with
        # two elements per channel it cancels to nearly 0, so it is measured
        # against the size of those terms.
        rstd = 1.0 / np.sqrt(xd.var(axis=(0, 2, 3)) + bn.epsilon)
        gx_scale = np.abs(bn.gamma.data * rstd).max() * np.abs(upstream.data).max()
        assert_rel_close(x.grad, ref_grads[0], scale=gx_scale)
        assert_rel_close(bn.gamma.grad, ref_grads[1])
        assert_rel_close(bn.beta.grad, ref_grads[2])

    def test_train_mode_records_one_node(self, monkeypatch):
        nodes = []

        def counting_make_node(data, parents, backward_fn):
            nodes.append(parents)
            return make_node(data, parents, backward_fn)

        monkeypatch.setattr(layers, "make_node", counting_make_node)
        monkeypatch.setattr(tensor_module, "make_node", counting_make_node)
        bn = BatchNormLayer(3)
        x = t(np.random.default_rng(24).normal(size=(2, 3, 4, 4)), grad=True)
        out = bn.forward(x, training=True)
        assert nodes == [(x, bn.gamma, bn.beta)]
        assert out._node.parents == (x._node, bn.gamma._node, bn.beta._node)

    def _eval_layer(self, rng):
        bn = BatchNormLayer(3)
        bn.gamma.data = rng.normal(size=3)
        bn.beta.data = rng.normal(size=3)
        bn.running_mean = rng.normal(size=3)
        bn.running_var = rng.uniform(0.2, 3.0, size=3)
        return bn

    def test_eval_mode_is_one_node_equal_to_the_formula(self):
        rng = np.random.default_rng(22)
        bn = self._eval_layer(rng)
        x = t(rng.normal(size=(2, 3, 4, 5)), grad=True)
        out = bn.forward(x, training=False)
        assert out._node.parents == (x._node, bn.gamma._node, bn.beta._node)
        c = (1, 3, 1, 1)
        rstd = 1.0 / np.sqrt(bn.running_var + bn.epsilon).reshape(c)
        want = ((x.data - bn.running_mean.reshape(c)) * rstd) * bn.gamma.data.reshape(
            c
        ) + bn.beta.data.reshape(c)
        assert out.data.tobytes() == want.tobytes()

    def test_eval_mode_gradients(self):
        rng = np.random.default_rng(23)
        bn = self._eval_layer(rng)
        x = t(rng.normal(size=(2, 3, 3, 4)), grad=True)
        check_gradients(
            lambda: (bn.forward(x, training=False) ** 3.0).mean(),
            [x, bn.gamma, bn.beta],
            rng=rng,
        )


    @settings(max_examples=60, deadline=None)
    @given(
        B=st.integers(1, 3),
        C=st.integers(1, 4),
        H=st.integers(1, 5),
        W=st.integers(1, 5),
        constant=st.booleans(),
        zeros=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
        training=st.booleans(),
    )
    @example(B=1, C=2, H=1, W=2, constant=False, zeros=False, seed=0, training=True)
    @example(B=2, C=3, H=1, W=1, constant=True, zeros=True, seed=1, training=True)
    @example(B=1, C=2, H=1, W=1, constant=False, zeros=False, seed=0, training=False)
    @example(B=2, C=3, H=1, W=1, constant=True, zeros=True, seed=1, training=False)
    def test_fused_relu_equals_relu_of_batchnorm(
        self, B, C, H, W, constant, zeros, seed, training
    ):
        # The reference is the plain node followed by a node of its own
        # that applies the selection oracle and masks the upstream by it.
        assume(not training or B * H * W >= 2)
        rng = np.random.default_rng(seed)
        gamma, beta = rng.normal(size=C), rng.normal(size=C)
        running_mean, running_var = rng.normal(size=C), rng.uniform(0.2, 3.0, size=C)
        xd = rng.normal(0.5, 2.0, size=(B, C, H, W))
        if constant:
            xd[:, 0] = 3.7
        if zeros:
            # Exact zeros in the input, and a channel whose output sits
            # exactly on the ReLU's kink, as -0.0.
            xd[rng.uniform(size=xd.shape) < 0.3] = 0.0
            xd[:, -1] = 0.0
            gamma[-1], beta[-1] = -1.5, -0.0
            running_mean[-1] = 0.0
        upstream = t(rng.normal(size=xd.shape))
        results = []
        for fused in (False, True):
            bn = BatchNormLayer(C)
            bn.gamma.data = gamma.copy()
            bn.beta.data = beta.copy()
            if not training:
                bn.running_mean = running_mean.copy()
                bn.running_var = running_var.copy()
            x = t(xd, grad=True)
            if fused:
                out = bn.forward(x, training, relu=True)
            else:
                y = bn.forward(x, training)
                mask = y.data > 0
                out = make_node(relu_where(y.data), (y,), lambda g: (g * mask,))
            backward((out * upstream).sum())
            arrays = (out.data, bn.running_mean, bn.running_var, x.grad, bn.gamma.grad,
                      bn.beta.grad)
            results.append([a.tobytes() for a in arrays])
        assert results[0] == results[1]

    def test_fused_relu_zeroes_nan_like_relu(self):
        bn = BatchNormLayer(2)
        xd = np.random.default_rng(28).normal(size=(2, 2, 3, 3))
        xd[0, 0, 1, 1] = np.nan
        want = relu_where(BatchNormLayer(2).forward(t(xd), True).data)
        got = bn.forward(t(xd), True, relu=True).data
        assert np.all(got[:, 0] == 0.0)
        assert got.tobytes() == want.tobytes()

    def test_fused_relu_records_one_node(self, monkeypatch):
        nodes = []

        def counting_make_node(data, parents, backward_fn):
            nodes.append(parents)
            return make_node(data, parents, backward_fn)

        monkeypatch.setattr(layers, "make_node", counting_make_node)
        monkeypatch.setattr(tensor_module, "make_node", counting_make_node)
        bn = BatchNormLayer(3)
        x = t(np.random.default_rng(25).normal(size=(2, 3, 4, 4)), grad=True)
        out = bn.forward(x, training=True, relu=True)
        assert nodes == [(x, bn.gamma, bn.beta)]
        assert out._node.parents == (x._node, bn.gamma._node, bn.beta._node)

    @pytest.mark.parametrize("fused", [False, True])
    def test_train_closure_keeps_only_per_channel_arrays(self, fused):
        # x_hat is recomputed from the input in backward, not kept, in
        # train and eval mode alike.
        C = 3
        rng = np.random.default_rng(26)
        for training in (True, False):
            bn = self._eval_layer(rng)
            x = t(rng.normal(size=(2, C, 4, 4)), grad=True)
            out = bn.forward(x, training=training, relu=fused)
            cells = [cell.cell_contents for cell in out._backward.__closure__]
            for value in cells:
                assert not isinstance(value, Tensor)
                if isinstance(value, np.ndarray) and value is not out.data and value is not x.data:
                    assert value.size <= C, value.shape

    def test_eval_mode_relu_is_relu_of_the_eval_node(self):
        rng = np.random.default_rng(27)
        bn = self._eval_layer(rng)
        x = t(rng.normal(size=(2, 3, 4, 5)), grad=True)
        out = bn.forward(x, training=False, relu=True)
        assert out._node.parents == (x._node, bn.gamma._node, bn.beta._node)
        assert out.data.tobytes() == relu(bn.forward(x, training=False)).data.tobytes()


class TestRelu:
    def test_definition(self):
        assert np.array_equal(relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


class TestUpsample:
    def test_factor_one_identity(self):
        x = t(np.random.default_rng(0).uniform(size=(1, 2, 3, 3)))
        assert upsample(x, 1) is x

    def test_constant_stays_exactly_constant(self):
        c = 0.3777777777777123
        out = upsample(t(np.full((1, 1, 4, 4), c)), 2)
        assert np.all(out.data == c)

    def test_matches_formula_oracle_default_convention(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(size=(3, 5))
        out = upsample(t(img[None, None]), 3).data[0, 0]
        assert np.allclose(out, upsample_bruteforce(img, 3, align_corners=False), atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(31)
        x = t(rng.normal(size=(1, 2, 3, 4)), grad=True)
        check_gradients(lambda: (upsample(x, 2) ** 2.0).mean(), [x], rng=rng)

    def test_cached_resample_arrays_are_read_only(self):
        # Shared by every caller, so a write must fail rather than corrupt them.
        grid = layers._interp_grid(3, 12)
        assert grid is layers._interp_grid(3, 12)
        matrix = layers._interp_matrix(3, 12)
        for arr in (*grid, matrix, *layers._interp_grid(1, 4)):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestDownsample:
    def test_factor_one_identity(self):
        x = t(np.zeros((1, 1, 4, 4)))
        assert downsample_avg(x, 1) is x

    def test_window_mean(self):
        x = t(np.array([[0.0, 1.0], [2.0, 3.0]])[None, None])
        assert downsample_avg(x, 2).data[0, 0, 0, 0] == 1.5

    def test_mean_conserved(self):
        rng = np.random.default_rng(6)
        x = t(rng.uniform(size=(2, 3, 8, 8)))
        for f in (2, 4):
            assert abs(downsample_avg(x, f).data.mean() - x.data.mean()) < 1e-12

    def test_round_trip_constant_cells_exact(self):
        rng = np.random.default_rng(7)
        x = t(rng.uniform(size=(1, 2, 4, 4)))
        for f in (2, 4, 8):
            up = upsample(Tensor(np.full((1, 1, 3, 3), 0.123456789)), f)
            back = downsample_avg(up, f)
            assert np.array_equal(back.data, np.full((1, 1, 3, 3), 0.123456789))
        # windows of equal values pool back exactly for power-of-two factors
        for f in (2, 4, 8):
            cells = np.repeat(np.repeat(x.data, f, axis=2), f, axis=3)
            assert np.array_equal(downsample_avg(t(cells), f).data, x.data)

    def test_indivisible_dims_error(self):
        with pytest.raises(ShapeError):
            downsample_avg(t(np.zeros((1, 1, 5, 5))), 2)

    def test_gradients(self):
        rng = np.random.default_rng(41)
        x = t(rng.normal(size=(1, 2, 4, 4)), grad=True)
        check_gradients(lambda: (downsample_avg(x, 2) ** 2.0).sum(), [x], rng=rng)

    def test_factor_three_is_the_window_mean(self):
        # 3 is not a power of two, so it takes the plain-mean branch.
        rng = np.random.default_rng(42)
        x = t(rng.uniform(size=(2, 3, 6, 9)), grad=True)
        got = downsample_avg(x, 3).data
        want = np.zeros((2, 3, 2, 3))
        for i in range(2):
            for j in range(3):
                window = x.data[:, :, 3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
                want[:, :, i, j] = window.mean(axis=(2, 3))
        assert np.allclose(got, want, rtol=0.0, atol=1e-15)
        assert abs(got.mean() - x.data.mean()) < 1e-12
        check_gradients(lambda: (downsample_avg(x, 3) ** 2.0).sum(), [x], rng=rng)


class TestErode:
    def test_all_zeros(self):
        assert np.array_equal(erode(np.zeros((5, 5))), np.zeros((5, 5)))

    def test_all_ones_loses_border(self):
        out = erode(np.ones((6, 6)), radius=1)
        expected = np.zeros((6, 6))
        expected[1:-1, 1:-1] = 1.0
        assert np.array_equal(out, expected)

    def test_centered_block_leaves_center(self):
        mask = np.zeros((7, 7))
        mask[2:5, 2:5] = 1.0
        out = erode(mask, radius=1)
        assert np.array_equal(out, erode_bruteforce(mask, 1))
        assert out.sum() == 1.0 and out[3, 3] == 1.0

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            erode(np.full((4, 4), 0.5))

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            mask = (rng.uniform(size=(9, 9)) > 0.5).astype(np.float64)
            radius = int(rng.integers(1, 3))
            assert np.array_equal(erode(mask, radius), erode_bruteforce(mask, radius))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        H=st.integers(1, 40),
        W=st.integers(1, 40),
        radius=st.integers(1, 3),
        density=st.floats(0.0, 1.0),
    )
    def test_separable_minimum_equals_the_window_minimum(self, seed, H, W, radius, density):
        mask = (np.random.default_rng(seed).uniform(size=(H, W)) < density).astype(np.float64)
        assert erode(mask, radius).tobytes() == erode_windows(mask, radius).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**16 - 1))
    def test_monotone_and_shrinking(self, seed):
        rng = np.random.default_rng(seed)
        m2 = (rng.uniform(size=(8, 8)) > 0.4).astype(np.float64)
        m1 = m2 * (rng.uniform(size=(8, 8)) > 0.3)  # m1 is a subset of m2
        e1, e2 = erode(m1), erode(m2)
        assert np.all(e1 <= m1)  # output within input
        assert np.all(e1 <= e2)  # monotone in the mask ordering
