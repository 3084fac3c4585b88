import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cracenet.losses import (
    PROB_EPS,
    LossConfig,
    bce_loss,
    iou_loss,
    make_edge_gt,
    multilevel_edge_loss,
    multilevel_saliency_loss,
    total_loss,
    total_loss_rgb,
    total_loss_rgbd,
)
from cracenet.tensor import Tensor, ShapeError, backward, zero_grads
from oracles import bce_composed, check_gradients, erode_bruteforce, iou_composed


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestBce:
    def test_perfect_prediction_near_zero(self):
        s = np.ones((6, 6))
        assert bce_loss(t(np.ones((6, 6))), s).item() <= 1e-5

    def test_uniform_half_is_ln2(self):
        s = (np.random.default_rng(0).uniform(size=(5, 7)) > 0.5).astype(float)
        assert abs(bce_loss(t(np.full((5, 7), 0.5)), s).item() - np.log(2.0)) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            bce_loss(t(np.ones((3, 3))), np.ones((4, 4)))

    def test_gradient(self):
        rng = np.random.default_rng(1)
        p = t(rng.uniform(0.1, 0.9, size=(8, 8)), grad=True)
        s = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
        check_gradients(lambda: bce_loss(p, s), [p], rng=rng)

    def test_batch_axis_means_per_image(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.1, 0.9, size=(3, 1, 4, 4))
        s = (rng.uniform(size=(3, 1, 4, 4)) > 0.5).astype(float)
        batched = bce_loss(t(p), s).item()
        singles = [bce_loss(t(p[i]), s[i]).item() for i in range(3)]
        assert abs(batched - np.mean(singles)) < 1e-12


class TestIou:
    def test_binary_identical_is_zero(self):
        s = (np.random.default_rng(3).uniform(size=(6, 6)) > 0.5).astype(float)
        assert iou_loss(t(s), s).item() == 0.0

    def test_empty_prediction_full_gt(self):
        # frozen from direct evaluation of the smoothed formula
        for n in (4, 9, 64):
            side = int(np.sqrt(n))
            p = t(np.zeros((side, side)))
            s = np.ones((side, side))
            assert iou_loss(p, s).item() == 1.0 - 1.0 / (n + 1.0)

    def test_both_empty_is_zero(self):
        z = np.zeros((5, 5))
        assert iou_loss(t(z), z).item() == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(size=(6, 6))
        b = rng.uniform(size=(6, 6))
        assert iou_loss(t(a), b).item() == pytest.approx(iou_loss(t(b), a).item(), abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**16 - 1))
    def test_bounded_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=(5, 5))
        s = (rng.uniform(size=(5, 5)) > 0.5).astype(float)
        val = iou_loss(t(p), s).item()
        assert 0.0 <= val < 1.0

    def test_gradient(self):
        rng = np.random.default_rng(5)
        p = t(rng.uniform(0.1, 0.9, size=(8, 8)), grad=True)
        s = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
        check_gradients(lambda: iou_loss(p, s), [p], rng=rng)


# Probabilities at and beyond the BCE clamp's bounds, which the clamp's
# inclusive gradient mask has to treat like the composed clip node.
EDGE_PROBS = (
    0.0,
    PROB_EPS,
    float(np.nextafter(PROB_EPS, 0.0)),
    1.0 - PROB_EPS,
    float(np.nextafter(1.0 - PROB_EPS, 1.0)),
    1.0,
    -0.25,
    1.25,
)


def _interior_nodes(loss):
    """Every graph node reachable from ``loss`` that has a backward rule."""
    found, stack, seen = [], [loss._node], set()
    while stack:
        node = stack.pop()
        if node is None or node in seen:
            continue
        seen.add(node)
        if node.backward_fn is not None:
            found.append(node)
        stack.extend(node.parents)
    return found


def _value_and_grads(fn, p, s):
    pred, target = t(p, grad=True), t(s, grad=True)
    loss = fn(pred, target)
    zero_grads([pred, target])
    backward(loss)
    return loss, pred.grad, target.grad


class TestFusedAgainstComposed:
    """``bce_loss`` / ``iou_loss`` against the elementwise graphs in oracles."""

    CASES = {
        "bce": (bce_loss, lambda p, s: bce_composed(p, s, PROB_EPS)),
        "iou": (iou_loss, iou_composed),
    }

    @settings(max_examples=80, deadline=None)
    @given(
        which=st.sampled_from(sorted(CASES)),
        four_d=st.booleans(),
        B=st.integers(1, 3),
        H=st.integers(1, 7),
        W=st.integers(1, 7),
        soft_target=st.booleans(),
        n_edges=st.integers(0, 12),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_values_byte_equal_and_gradients_match(
        self, which, four_d, B, H, W, soft_target, n_edges, seed
    ):
        rng = np.random.default_rng(seed)
        shape = (B, 1, H, W) if four_d else (H, W)
        p = rng.uniform(0.0, 1.0, size=shape)
        where = rng.choice(p.size, min(n_edges, p.size), replace=False)
        p.flat[where] = rng.choice(EDGE_PROBS, where.size)
        s = rng.uniform(size=shape)
        if not soft_target:
            s = (s > 0.5).astype(np.float64)
        fused, composed = self.CASES[which]
        got, got_gp, got_gs = _value_and_grads(fused, p, s)
        want, want_gp, want_gs = _value_and_grads(composed, p, s)
        assert got.shape == want.shape == ()
        assert got.data.tobytes() == want.data.tobytes()
        for g, ref in ((got_gp, want_gp), (got_gs, want_gs)):
            assert np.all(np.abs(g - ref) <= 1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("which", sorted(CASES))
    @pytest.mark.parametrize("shape", [(5, 6), (3, 1, 4, 5)])
    def test_one_node_keeping_no_per_pixel_array(self, which, shape):
        rng = np.random.default_rng(10)
        pred = t(rng.uniform(size=shape), grad=True)
        target = (rng.uniform(size=shape) > 0.5).astype(float)
        loss = self.CASES[which][0](pred, target)
        assert _interior_nodes(loss) == [loss._node]
        cells = [cell.cell_contents for cell in loss._backward.__closure__]
        assert not any(isinstance(v, Tensor) for v in cells)
        held = [v for v in cells if isinstance(v, np.ndarray) and v.size == pred.size]
        inputs = [pred.data, target]
        assert all(any(a is x for x in inputs) for a in held)

    def test_clamp_mask_includes_both_bounds(self):
        p = np.array([0.0, PROB_EPS, 0.5, 1.0 - PROB_EPS, 1.0])
        s = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        _, gp, _ = _value_and_grads(bce_loss, p, s)
        assert np.array_equal(gp != 0.0, [False, True, True, True, False])

    def test_gradient_reaches_a_target_that_requires_it(self):
        rng = np.random.default_rng(11)
        p = t(rng.uniform(0.1, 0.9, size=(2, 1, 3, 3)))
        s = t(rng.uniform(0.1, 0.9, size=(2, 1, 3, 3)), grad=True)
        check_gradients(lambda: bce_loss(p, s) + iou_loss(p, s), [s], rng=rng)


class TestEdgeGt:
    def test_empty_mask(self):
        assert np.array_equal(make_edge_gt(np.zeros((6, 6))), np.zeros((6, 6)))

    def test_full_frame_keeps_border_band(self):
        out = make_edge_gt(np.ones((6, 6)), radius=1)
        expected = np.ones((6, 6))
        expected[1:-1, 1:-1] = 0.0
        assert np.array_equal(out, expected)

    def test_centered_block_perimeter(self):
        mask = np.zeros((7, 7))
        mask[2:5, 2:5] = 1.0
        out = make_edge_gt(mask, radius=1)
        assert out.sum() == 8.0 and out[3, 3] == 0.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            mask = (rng.uniform(size=(16, 16)) > 0.5).astype(np.float64)
            assert np.array_equal(make_edge_gt(mask, 1), mask - erode_bruteforce(mask, 1))

    def test_thin_band_fixed_point(self):
        # a 1-pixel band erodes to nothing, so edge-of-edge is the band itself
        band = make_edge_gt(np.ones((6, 6)), radius=1)
        from cracenet.layers import erode

        assert np.array_equal(erode(band, 1), np.zeros((6, 6)))
        assert np.array_equal(make_edge_gt(band, 1), band)


class TestMultilevel:
    def preds(self, value, n=4, shape=(2, 1, 6, 6)):
        return [t(np.full(shape, value)) for _ in range(n)]

    def test_perfect_predictions_near_zero(self):
        s = np.ones((2, 1, 6, 6))
        loss = multilevel_saliency_loss(self.preds(1.0), s)
        assert loss.item() <= 1e-4

    def test_sum_of_identical_levels(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.2, 0.8, size=(2, 1, 6, 6))
        s = (rng.uniform(size=(2, 1, 6, 6)) > 0.5).astype(float)
        single = (bce_loss(t(p), s) + iou_loss(t(p), s)).item()
        total = multilevel_saliency_loss([t(p)] * 4, s).item()
        assert total == pytest.approx(4.0 * single, rel=1e-12)

    def test_wrong_level_count(self):
        with pytest.raises(ShapeError):
            multilevel_saliency_loss(self.preds(0.5, n=3), np.ones((2, 1, 6, 6)))
        with pytest.raises(ShapeError):
            multilevel_edge_loss(self.preds(0.5, n=5), np.ones((2, 1, 6, 6)))

    def test_iou_ablation_changes_value_but_works(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0.2, 0.8, size=(1, 1, 6, 6))
        s = (rng.uniform(size=(1, 1, 6, 6)) > 0.5).astype(float)
        full = multilevel_saliency_loss([t(p)] * 4, s).item()
        no_iou = multilevel_saliency_loss([t(p)] * 4, s, use_iou=False).item()
        assert no_iou != full and np.isfinite(no_iou)

    def test_edge_loss_is_bce_only(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(0.2, 0.8, size=(1, 1, 6, 6))
        e = (rng.uniform(size=(1, 1, 6, 6)) > 0.7).astype(float)
        assert multilevel_edge_loss([t(p)] * 4, e).item() == pytest.approx(
            4.0 * bce_loss(t(p), e).item(), rel=1e-12
        )


class TestPerImageRule:
    """A 4-D input is a batch of images; any other input is one image."""

    @settings(max_examples=100, deadline=None)
    @given(
        which=st.sampled_from(["bce", "iou"]),
        B=st.integers(1, 4),
        C=st.integers(1, 3),
        H=st.integers(1, 9),
        W=st.integers(1, 9),
        soft_target=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_batch_loss_is_the_mean_of_its_images_losses_byte_for_byte(
        self, which, B, C, H, W, soft_target, seed
    ):
        fn = {"bce": bce_loss, "iou": iou_loss}[which]
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=(B, C, H, W))
        s = rng.uniform(size=p.shape)
        if not soft_target:
            s = (s > 0.5).astype(np.float64)
        batched = fn(t(p), s).data
        singles = np.array([fn(t(p[i]), s[i]).item() for i in range(B)])
        assert batched.tobytes() == singles.mean().tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        B=st.integers(1, 3),
        H=st.integers(1, 8),
        W=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_edge_loss_is_the_level_sum_of_bce_byte_for_byte(self, B, H, W, seed):
        rng = np.random.default_rng(seed)
        levels = [rng.uniform(size=(B, 1, H, W)) for _ in range(4)]
        e = (rng.uniform(size=(B, 1, H, W)) > 0.7).astype(np.float64)
        got_preds = [t(p, grad=True) for p in levels]
        want_preds = [t(p, grad=True) for p in levels]
        got = multilevel_edge_loss(got_preds, e)
        want = bce_loss(want_preds[0], e)
        for pred in want_preds[1:]:
            want = want + bce_loss(pred, e)
        assert got.data.tobytes() == want.data.tobytes()
        backward(got)
        backward(want)
        for a, b in zip(got_preds, want_preds):
            assert a.grad.tobytes() == b.grad.tobytes()


class TestTotals:
    @pytest.mark.parametrize("terms", [(0.7,), (1.0, 0.5), (0.9, 0.6, 0.3)])
    def test_total_loss_is_the_mean_of_its_terms(self, terms):
        assert total_loss(*(t(v) for v in terms)).item() == sum(terms) / len(terms)

    def test_total_loss_of_no_terms_is_refused(self):
        with pytest.raises(ValueError):
            total_loss()

    def test_zero_components(self):
        assert total_loss_rgb(t(0.0), t(0.0)).item() == 0.0

    def test_rgb_average(self):
        assert total_loss_rgb(t(1.0), t(0.5)).item() == (1.0 + 0.5) / 2.0

    def test_rgbd_average(self):
        assert total_loss_rgbd(t(0.9), t(0.6), t(0.3)).item() == (0.9 + 0.6 + 0.3) / 3.0

    def test_config_requires_a_pixel_loss(self):
        with pytest.raises(ValueError):
            LossConfig(use_bce=False, use_iou=False)
