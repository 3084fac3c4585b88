import gc
import itertools
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cracenet.crace import CraceConfig
from cracenet.network import EncoderConfig, NetworkConfig, SodNetwork
from cracenet import tensor as tensor_module
from cracenet.tensor import (
    Tensor,
    GraphError,
    ShapeError,
    backward,
    concat_channels,
    make_node,
    no_grad,
    sigmoid,
    relu,
    zero_grads,
)
from oracles import backward_every_node, check_gradients, relu_where, sigmoid_masked


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestElementwise:
    def test_add(self):
        out = t([1.0, 2.0]) + t([3.0, 4.0])
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_mul_identity(self):
        x = t(np.random.default_rng(0).normal(size=(3, 4)))
        out = x * Tensor(np.ones((3, 4)))
        assert np.array_equal(out.data, x.data)

    def test_broadcast_shapes(self):
        out = t(np.ones((2, 3, 1))) + t(np.ones((1, 3, 5)))
        assert out.shape == (2, 3, 5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            t(np.ones((2, 3))) + t(np.ones((4, 5)))

    def test_broadcast_gradients_unbroadcast(self):
        a = t(np.ones((2, 1, 3)))
        b = t(np.ones((4, 3)))
        out = (a * b).sum()
        zero_grads([a, b])
        backward(out)
        assert a.grad.shape == (2, 1, 3)
        assert b.grad.shape == (4, 3)
        assert np.array_equal(a.grad, np.full((2, 1, 3), 4.0))
        assert np.array_equal(b.grad, np.full((4, 3), 2.0))


class TestConcat:
    def test_concat_channels_shape(self):
        out = concat_channels([t(np.zeros((2, 3, 4, 4))), t(np.zeros((2, 5, 4, 4)))])
        assert out.shape == (2, 8, 4, 4)

    def test_concat_channels_dim_mismatch(self):
        with pytest.raises(ShapeError):
            concat_channels([t(np.zeros((2, 3, 4, 4))), t(np.zeros((2, 5, 6, 4)))])

    def test_concat_grad_splits(self):
        a, b = t(np.ones((1, 2, 2, 2))), t(np.ones((1, 3, 2, 2)))
        out = (concat_channels([a, b]) * 2.0).sum()
        zero_grads([a, b])
        backward(out)
        assert np.array_equal(a.grad, np.full((1, 2, 2, 2), 2.0))
        assert np.array_equal(b.grad, np.full((1, 3, 2, 2), 2.0))


class TestSigmoid:
    def test_symmetry_at_zero(self):
        assert sigmoid(t([0.0])).data[0] == 0.5

    def test_saturation_stays_open(self):
        hi = sigmoid(t([800.0])).data[0]
        lo = sigmoid(t([-800.0])).data[0]
        assert 0.0 < lo < hi < 1.0
        assert np.isfinite([lo, hi]).all()

    def test_gradient_at_zero(self):
        # frozen via the central-difference oracle, h=1e-5
        x = t([0.0])
        y = sigmoid(x).sum()
        zero_grads([x])
        backward(y)
        assert abs(x.grad[0] - 0.25) < 1e-10
        check_gradients(lambda: sigmoid(x).sum(), [x])


TINY = np.finfo(np.float64).tiny
SPECIAL_LOGITS = [0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, 1e-310, -1e-310,
                  np.nan, -np.nan, np.inf, -np.inf, 36.7, -36.7, 708.0, -745.0]


class TestSigmoidPaths:
    """The branch-free forward and the flushing backward."""

    def test_special_values_byte_equal_to_masked_formula(self):
        x = np.array(SPECIAL_LOGITS)
        assert sigmoid(t(x, grad=False)).data.tobytes() == sigmoid_masked(x).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40),
           st.integers(0, 2**31 - 1))
    def test_byte_equal_to_masked_formula(self, values, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([values, rng.normal(scale=40.0, size=200), SPECIAL_LOGITS])
        rng.shuffle(x)
        assert sigmoid(t(x, grad=False)).data.tobytes() == sigmoid_masked(x).tobytes()

    def test_backward_flushes_subnormals_and_keeps_other_bits(self):
        rng = np.random.default_rng(3)
        x = t(np.concatenate([[-800.0, -745.0, -700.0, 800.0], rng.normal(scale=30.0, size=300)]))
        scale = np.where(np.arange(300) % 7 == 0, 1e-300, 1.0)
        g = np.concatenate([[0.5, 1.0, 1e-10, 0.25], rng.normal(size=300) * scale])
        y = sigmoid(x)
        zero_grads([x])
        backward((y * Tensor(g)).sum())
        plain = g * y.data * (1.0 - y.data)
        sub = (plain != 0.0) & (np.abs(plain) < TINY)
        # sigmoid(-745) clamps to tiny itself, which is kept
        assert sub[0] and not sub[1] and sub[2] and sub.sum() > 3
        assert np.all(x.grad[sub] == 0.0)
        # array_equal: accumulating into zeroed grads turns -0.0 into 0.0
        assert np.array_equal(x.grad[~sub], plain[~sub])


class TestReluKernel:
    """The one ReLU kernel against the selection oracle."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40),
           st.integers(0, 2**31 - 1))
    def test_byte_equal_to_where_and_masks_the_gradient(self, values, seed):
        rng = np.random.default_rng(seed)
        specials = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                    1e-310, -1e-310, TINY, -TINY]
        x = np.concatenate([values, rng.normal(size=50), specials])
        rng.shuffle(x)
        # fmax's sign for -0.0 depends on where the element falls in numpy's
        # vector loop, so -0.0 is also checked at every position of short runs.
        for a in [x] + [np.full(n, -0.0) for n in range(1, 18)]:
            assert tensor_module._relu_(a.copy()).tobytes() == relu_where(a).tobytes()
        out = relu(t(x))
        assert out.data.tobytes() == relu_where(x).tobytes()
        # The rule itself: a loss over these values would overflow.
        g = rng.normal(size=x.shape)
        (gx,) = out._node.backward_fn(g)
        assert gx.tobytes() == (g * (x > 0)).tobytes()


class TestBackward:
    def test_sum_of_squares(self):
        x = t([1.0, 2.0, 3.0])
        loss = (x * x).sum()
        zero_grads([x])
        backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = t([1.0, 2.0])
        with pytest.raises(GraphError):
            backward(x * x)

    def test_disconnected_leaf_stays_zero(self):
        x, other = t([1.0, 2.0]), t([3.0])
        zero_grads([x, other])
        backward((x * x).sum())
        assert np.array_equal(other.grad, [0.0])

    def test_repeated_backward_accumulates(self):
        x = t([2.0])
        zero_grads([x])
        backward((x * x).sum())
        backward((x * x).sum())
        assert np.array_equal(x.grad, [8.0])

    def test_reused_node_sums_both_paths(self):
        x = t([3.0])
        y = x * x + x  # x used three times
        zero_grads([x])
        backward(y.sum())
        assert np.array_equal(x.grad, [7.0])

    def test_deterministic_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            x = t(rng.normal(size=(4, 5)))
            w = t(rng.normal(size=(4, 5)))
            loss = (sigmoid(x * w) + relu(x - w)).mean()
            zero_grads([x, w])
            backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def _random_graph(rng):
    """A small random composition of the differentiable op vocabulary."""
    shape = tuple(rng.integers(1, 5, size=int(rng.integers(1, 4))))
    x = t(rng.normal(size=shape) + 0.1)
    w = t(rng.normal(size=shape) + 0.1)
    ops = [
        lambda a, b: a + b,
        lambda a, b: a * b,
        lambda a, b: a - b,
        lambda a, b: a / (b * b + 1.0),
        lambda a, b: sigmoid(a) * b,
        lambda a, b: (a * a) + sigmoid(b),
    ]
    f = ops[int(rng.integers(len(ops)))]
    g = ops[int(rng.integers(len(ops)))]

    def loss():
        return g(f(x, w), w).mean() + f(x, x).sum() * 0.01

    return loss, [x, w]


def test_composed_graphs_match_finite_differences():
    # spec oracle: 100 random graphs, rtol 1e-4 / atol 1e-6
    rng = np.random.default_rng(7)
    for _ in range(100):
        loss, leaves = _random_graph(rng)
        check_gradients(loss, leaves, rng=rng)


def test_shape_closure_reductions():
    x = t(np.ones((2, 3, 4, 5)))
    assert x.sum(axis=(2, 3), keepdims=True).shape == (2, 3, 1, 1)
    assert x.mean(axis=1).shape == (2, 4, 5)
    assert x.sum().shape == ()
    assert x.reshape(6, 20).shape == (6, 20)
    assert x.transpose((0, 2, 3, 1)).shape == (2, 4, 5, 3)


def _graph_nodes(root):
    """Every node reachable from tensor ``root`` through recorded parents."""
    nodes, seen, stack = [], set(), [root._node]
    while stack:
        node = stack.pop()
        if node is None or node in seen:
            continue
        seen.add(node)
        nodes.append(node)
        stack.extend(node.parents)
    return nodes


def _made_by_ops(fn):
    """``fn()`` and every tensor that an op of ``tensor`` made while it ran."""
    made = []

    def recording_make_node(data, parents, backward_fn):
        out = make_node(data, parents, backward_fn)
        made.append(out)
        return out

    tensor_module.make_node = recording_make_node
    try:
        result = fn()
    finally:
        tensor_module.make_node = make_node
    return result, made


def _deterministic_graph():
    """The graph of ``TestBackward.test_deterministic_bit_identical``."""
    rng = np.random.default_rng(42)
    x = t(rng.normal(size=(4, 5)))
    w = t(rng.normal(size=(4, 5)))
    return (sigmoid(x * w) + relu(x - w)).mean(), [x, w]


class TestLeafGradients:
    def test_interior_nodes_keep_no_grad(self):
        (loss, leaves), interior = _made_by_ops(_deterministic_graph)
        backward(loss)
        assert len(interior) > 5
        assert all(n._backward is not None and n.grad is None for n in interior)
        assert all(leaf.grad is not None for leaf in leaves)
        reached = {id(n.leaf()) for n in _graph_nodes(loss) if n.backward_fn is None}
        assert reached == {id(leaf) for leaf in leaves}

    def test_leaf_grads_equal_the_every_node_walk(self):
        loss, leaves = _deterministic_graph()
        want = backward_every_node(loss)
        backward(loss)
        for leaf in leaves:
            assert leaf.grad.tobytes() == want[leaf._node].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_graphs_leaf_grads_equal_the_every_node_walk(self, seed):
        loss_fn, leaves = _random_graph(np.random.default_rng(seed))
        loss, made = _made_by_ops(loss_fn)
        want = backward_every_node(loss)
        backward(loss)
        for leaf in leaves:
            assert leaf.grad.tobytes() == want[leaf._node].tobytes()
        assert all(n.grad is None for n in made if n._backward is not None)


class TestGraphKeepsOnlyWhatBackwardReads:
    def test_a_value_no_rule_reads_dies_with_its_tensor(self):
        rng = np.random.default_rng(5)
        a, b, c = (t(rng.normal(size=(3, 4))) for _ in range(3))
        u = a * b
        y = u + c
        gone = weakref.ref(u.data)
        del u
        assert gone() is None
        zero_grads([a, b, c])
        backward(y.sum())
        assert a.grad.tobytes() == b.data.tobytes()
        assert b.grad.tobytes() == a.data.tobytes()
        assert np.array_equal(c.grad, np.ones((3, 4)))

    def test_a_used_leaf_is_freed_without_a_cyclic_collection(self):
        x = t([1.0, 2.0])
        backward((x * x).sum())
        gone = weakref.ref(x)
        gc.disable()
        try:
            del x
            assert gone() is None
        finally:
            gc.enable()

    def test_backward_frees_what_only_a_rule_holds(self):
        a = t(np.random.default_rng(6).normal(size=(3, 4)))
        s = sigmoid(a)
        y = s.data.copy()
        gone = weakref.ref(s.data)
        loss = (s * s).sum()
        del s
        assert gone() is not None
        backward(loss)
        assert gone() is None
        assert a.grad.tobytes() == ((y + y) * y * (1.0 - y)).tobytes()

    def test_a_walked_graph_raises_and_changes_no_grad(self):
        rng = np.random.default_rng(7)
        x, w, c = (t(rng.normal(size=(2, 3))) for _ in range(3))
        h = x * w
        loss = (h * h).sum()
        backward(loss)
        c.grad = np.zeros((2, 3))
        before = [leaf.grad.copy() for leaf in (x, w, c)]
        with pytest.raises(GraphError, match="already walked"):
            backward(loss)
        # c comes before h's walked node in this walk's order.
        with pytest.raises(GraphError, match="already walked"):
            backward((c * h).sum())
        with pytest.raises(GraphError, match="already walked"):
            loss._node.backward_fn(np.ones(()))
        for leaf, grad in zip((x, w, c), before):
            assert leaf.grad.tobytes() == grad.tobytes()

    def test_node_fields_of_a_leaf_and_an_op(self):
        x = t([1.0, 2.0])
        y = x * 3.0
        assert x._node.leaf() is x and x._node.backward_fn is None
        assert y._node.leaf is None and y._node.parents[1] is None
        with pytest.raises(GraphError):
            x._backward = lambda g: (g,)


class TestGradientAccumulation:
    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), broadcast=st.booleans())
    def test_four_consumers_match_the_every_node_walk(self, order, seed, broadcast):
        # h has four consumers and five contributions, summed in every order.
        # y's rule hands one upstream array to both h and k; in some orders
        # h gets more after that while k still waits, so adding into that
        # array in place would corrupt k's gradient.
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(1, 4) if broadcast else (3, 4)))
        c = t(rng.normal(size=(3, 4)))
        h = a * b
        k = c * a
        y = h + k
        terms = [
            lambda: (y * y).sum(),
            lambda: (h * h).mean(),
            lambda: (sigmoid(h) * k).sum(),
            lambda: (h.reshape(12) * 2.0).sum(),
        ]
        loss = terms[order[0]]()
        for i in order[1:]:
            loss = loss + terms[i]()
        want = backward_every_node(loss)
        zero_grads([a, b, c])
        backward(loss)
        for leaf in (a, b, c):
            assert leaf.grad.tobytes() == want[leaf._node].tobytes()

    def test_leaf_grad_is_a_fresh_array(self):
        x = t([1.0, 2.0])
        backward((x * x + x).sum())
        first = x.grad
        kept = first.copy()
        backward((x * x + x).sum())
        assert first.tobytes() == kept.tobytes()
        assert np.array_equal(x.grad, 2.0 * kept)


class TestNoGrad:
    def test_records_nothing(self, monkeypatch):
        net = SodNetwork(
            NetworkConfig(
                EncoderConfig(widths=(4, 8, 12, 16)),
                CraceConfig(n=8, sampling_rates=(1, 2), dilation_rates=(1, 2)),
                "rgb",
            )
        )
        x = t(np.random.default_rng(0).uniform(size=(2, 3, 32, 32)))
        made = []
        init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        with no_grad():
            for training in (False, True):
                out = net.forward(x, training=training)
            loss = (sigmoid(out["saliency_logits"][0]) * x.sum()).mean()
        monkeypatch.undo()
        assert len(made) > 100
        assert all(n._node is None for n in made)
        assert not loss.requires_grad

    def test_restores_recording_after_an_exception(self):
        x = t([1.0, 2.0])
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("boom")
        assert (x * x)._backward is not None

    def test_nests(self):
        x = t([1.0, 2.0])
        with no_grad():
            with no_grad():
                assert (x * x)._backward is None
            assert (x * x)._backward is None
        y = x * x
        assert y._node.parents == (x._node, x._node)
        assert x._node.leaf() is x and x._node.parents == ()
        assert y._backward is not None

    def test_other_threads_still_record(self):
        x = t([1.0, 2.0])
        results = {}

        def work():
            results["y"] = x * x

        with no_grad():
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=30)
            here = x * x
        assert not thread.is_alive()
        assert results["y"]._backward is not None
        assert here._backward is None
        backward(results["y"].sum())
        assert np.array_equal(x.grad, [2.0, 4.0])
