import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cracenet.losses import (
    LossConfig,
    bce_loss,
    iou_loss,
    make_edge_gt,
    multilevel_edge_loss,
    multilevel_saliency_loss,
    total_loss_rgb,
    total_loss_rgbd,
)
from cracenet.tensor import Tensor, ShapeError
from oracles import check_gradients, erode_bruteforce


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


class TestTotals:
    def test_zero_components(self):
        assert total_loss_rgb(t(0.0), t(0.0)).item() == 0.0

    def test_rgb_average(self):
        assert total_loss_rgb(t(1.0), t(0.5)).item() == (1.0 + 0.5) / 2.0

    def test_rgbd_average(self):
        assert total_loss_rgbd(t(0.9), t(0.6), t(0.3)).item() == (0.9 + 0.6 + 0.3) / 3.0

    def test_config_requires_a_pixel_loss(self):
        with pytest.raises(ValueError):
            LossConfig(use_bce=False, use_iou=False)
