import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cracenet.data import save_gray
from cracenet.metrics import (
    _WF_KERNEL,
    DatasetMismatchError,
    _border_norm,
    _conv_same,
    _nearest_fg,
    e_measure,
    evaluate_dataset,
    evaluate_pairs,
    f_beta,
    mae,
    max_f,
    mean_f,
    pr_curve,
    s_measure,
    weighted_f,
)
from oracles import (
    e_measure_bruteforce,
    f_beta_scalar,
    nearest_fg_bruteforce,
    pr_bruteforce,
    s_measure_bruteforce,
    weighted_f_bruteforce,
)


def toy_pair(seed=0, side=3):
    """Quantized prediction and binary ground truth; ``side`` is an int for
    a square map or an (H, W) pair."""
    shape = (side, side) if isinstance(side, int) else tuple(side)
    rng = np.random.default_rng(seed)
    pred = np.round(rng.uniform(size=shape) * 255) / 255.0
    gt = (rng.uniform(size=shape) > 0.5).astype(np.float64)
    if not gt.any():
        gt[shape[0] // 2, shape[1] // 2] = 1.0
    return pred, gt


class TestPrCurve:
    def test_perfect_map_all_thresholds(self):
        _, gt = toy_pair(1)
        precision, recall = pr_curve([gt], [gt])
        assert np.all(precision == 1.0) and np.all(recall == 1.0)

    def test_all_positive_predictor(self):
        _, gt = toy_pair(2, side=4)
        ones = np.ones_like(gt)
        precision, recall = pr_curve([ones], [gt])
        assert np.all(recall == 1.0)
        assert np.allclose(precision, gt.mean())

    def test_matches_bruteforce_counting(self):
        pairs = [toy_pair(3), toy_pair(4)]
        preds = [p for p, _ in pairs]
        gts = [g for _, g in pairs]
        precision, recall = pr_curve(preds, gts)
        ref_p, ref_r = pr_bruteforce(preds, gts)
        assert np.allclose(precision, ref_p, atol=1e-12)
        assert np.allclose(recall, ref_r, atol=1e-12)

    def test_recall_monotone_nonincreasing(self):
        preds = [toy_pair(5, 8)[0]]
        gts = [toy_pair(6, 8)[1]]
        _, recall = pr_curve(preds, gts)
        assert np.all(np.diff(recall) <= 0.0)

    def test_empty_dataset_error(self):
        with pytest.raises(ValueError):
            pr_curve([], [])

    def test_all_empty_gt_error(self):
        z = np.zeros((4, 4))
        with pytest.raises(ValueError):
            pr_curve([z], [z])


class TestFMeasure:
    def test_fixed_point(self):
        for p in (0.2, 0.5, 0.9):
            assert f_beta(p, p) == pytest.approx(p, abs=1e-12)

    def test_zero_recall(self):
        assert f_beta(1.0, 0.0) == 0.0

    def test_direct_evaluation(self):
        # frozen: 1.3 * 0.8 * 0.5 / (0.3 * 0.8 + 0.5) = 0.52 / 0.74
        assert f_beta(0.8, 0.5) == pytest.approx(0.52 / 0.74, abs=1e-12)
        assert f_beta(0.8, 0.5) == pytest.approx(f_beta_scalar(0.8, 0.5), abs=1e-15)

    def test_max_and_mean_on_identical_maps(self):
        _, gt = toy_pair(9, 6)
        curve = pr_curve([gt], [gt])
        assert max_f(curve) == 1.0
        assert mean_f([gt], [gt]) == 1.0

    def test_max_dominates_mean(self):
        pred, gt = toy_pair(10, 8)
        assert max_f(pr_curve([pred], [gt])) >= mean_f([pred], [gt])


class TestMae:
    def test_identical(self):
        _, gt = toy_pair(12)
        assert mae([gt], [gt]) == 0.0

    def test_extremes(self):
        z = np.zeros((4, 4))
        assert mae([np.ones((4, 4))], [z]) == 1.0

    def test_constant_offset(self):
        assert mae([np.full((4, 4), 0.25)], [np.zeros((4, 4))]) == 0.25


@st.composite
def fg_masks(draw):
    """Non-empty foreground masks up to 24x24 in the shapes that stress the
    nearest-foreground search: noise, mirror-symmetric shapes (ties), discs
    cut by the image border, a single pixel and all-but-one pixel."""
    H = draw(st.integers(1, 24))
    W = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["noise", "symmetric", "disc", "single", "all_but_one"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("single", "all_but_one"):
        mask = np.zeros((H, W), dtype=bool)
        mask[draw(st.integers(0, H - 1)), draw(st.integers(0, W - 1))] = True
        if kind == "all_but_one":
            mask = ~mask
    elif kind == "disc":
        cy = draw(st.integers(-2, H + 1))
        cx = draw(st.integers(-2, W + 1))
        r2 = draw(st.integers(0, 100))
        rows, cols = np.mgrid[:H, :W]
        mask = (rows - cy) ** 2 + (cols - cx) ** 2 <= r2
    else:
        mask = rng.uniform(size=(H, W)) < draw(st.floats(0.02, 0.98))
        if kind == "symmetric":
            mask = mask | mask[::-1] | mask[:, ::-1] | mask[::-1, ::-1]
    if not mask.any():
        mask[draw(st.integers(0, H - 1)), draw(st.integers(0, W - 1))] = True
    return mask


class TestNearestForeground:
    @settings(max_examples=300, deadline=None)
    @given(fg_masks())
    def test_separable_transform_equals_full_scan(self, fg):
        dist, near_r, near_c = _nearest_fg(fg)
        ref_dist, ref_r, ref_c = nearest_fg_bruteforce(fg)
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(near_r, ref_r)
        assert np.array_equal(near_c, ref_c)

    def test_tie_resolves_row_major_first(self):
        fg = np.zeros((3, 3), dtype=bool)
        fg[0, 1] = fg[1, 0] = fg[1, 2] = fg[2, 1] = True
        _, near_r, near_c = _nearest_fg(fg)
        assert (near_r[1, 1], near_c[1, 1]) == (0, 1)
        # Equal distance from two columns: the higher row wins across columns.
        fg = np.zeros((5, 3), dtype=bool)
        fg[4, 2] = fg[2, 0] = True
        dist, near_r, near_c = _nearest_fg(fg)
        assert (near_r[2, 2], near_c[2, 2], dist[2, 2]) == (2, 0, 2.0)


class TestWeightedF:
    def test_identical_binary_is_exactly_one(self):
        _, gt = toy_pair(13, 7)
        assert weighted_f([gt], [gt]) == 1.0

    def test_empty_prediction_is_zero(self):
        _, gt = toy_pair(14, 7)
        assert weighted_f([np.zeros_like(gt)], [gt]) == 0.0

    def test_matches_dense_oracle_5x5(self):
        for seed in range(6):
            pred, gt = toy_pair(seed + 20, 5)
            assert weighted_f([pred], [gt]) == pytest.approx(
                weighted_f_bruteforce(pred, gt), abs=1e-9
            )

    def test_matches_dense_oracle_non_square(self):
        for seed, shape in enumerate([(9, 13), (13, 9), (4, 17)]):
            pred, gt = toy_pair(seed + 26, shape)
            assert weighted_f([pred], [gt]) == pytest.approx(
                weighted_f_bruteforce(pred, gt), abs=1e-9
            )

    def test_border_normalizer_is_cached_read_only_and_exact(self):
        norm = _border_norm((9, 13))
        assert _border_norm((9, 13)) is norm
        assert not norm.flags.writeable
        assert norm.tobytes() == _conv_same(np.ones((9, 13)), _WF_KERNEL).tobytes()

    def test_skips_empty_gt_images(self):
        pred, gt = toy_pair(15, 5)
        with_eq = weighted_f([pred], [gt])
        with_extra = weighted_f([pred, np.ones((5, 5))], [gt, np.zeros((5, 5))])
        assert with_extra == with_eq


class TestSMeasure:
    def test_identical_is_one(self):
        _, gt = toy_pair(16, 8)
        assert s_measure([gt], [gt]) == 1.0

    def test_matches_transcription_oracle(self):
        for seed in range(6):
            pred, gt = toy_pair(seed + 30, 8)
            assert s_measure([pred], [gt]) == pytest.approx(
                s_measure_bruteforce(pred, gt), abs=1e-9
            )

    def test_degenerate_branches(self):
        pred = np.full((6, 6), 0.3)
        assert s_measure([pred], [np.zeros((6, 6))]) == pytest.approx(0.7, abs=1e-6)
        assert s_measure([pred], [np.ones((6, 6))]) == pytest.approx(0.3, abs=1e-6)


class TestEMeasure:
    def test_identical_is_one(self):
        _, gt = toy_pair(17, 8)
        assert e_measure([gt], [gt]) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_is_zero(self):
        _, gt = toy_pair(18, 8)
        assert e_measure([1.0 - gt], [gt]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_transcription_oracle(self):
        for seed in range(6):
            pred, gt = toy_pair(seed + 40, 8)
            assert e_measure([pred], [gt]) == pytest.approx(
                e_measure_bruteforce(pred, gt), abs=1e-9
            )

    def test_degenerate_branches(self):
        pred = np.full((6, 6), 0.2)
        assert e_measure([pred], [np.zeros((6, 6))]) == pytest.approx(0.8, abs=1e-6)
        assert e_measure([pred], [np.ones((6, 6))]) == pytest.approx(0.2, abs=1e-6)


class TestInvariances:
    def test_order_invariance(self):
        pairs = [toy_pair(s, 6) for s in range(50, 54)]
        preds = [p for p, _ in pairs]
        gts = [g for _, g in pairs]
        fwd = evaluate_pairs(preds, gts)
        rev = evaluate_pairs(preds[::-1], gts[::-1])
        assert fwd.as_dict() == rev.as_dict()

    def test_quantization_stability(self):
        rng = np.random.default_rng(60)
        pred = rng.uniform(size=(16, 16))
        gt = (rng.uniform(size=(16, 16)) > 0.5).astype(np.float64)
        quant = np.round(pred * 255) / 255.0
        assert abs(max_f(pr_curve([pred], [gt])) - max_f(pr_curve([quant], [gt]))) <= 0.02
        assert abs(mean_f([pred], [gt]) - mean_f([quant], [gt])) <= 0.02
        assert mae([quant], [gt]) == mae([quant.copy()], [gt])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=5),
        st.lists(st.booleans(), min_size=5, max_size=5),
        st.integers(1, 12),
        st.integers(1, 12),
    )
    def test_aggregates_equal_separate_metrics(self, seeds, empty, H, W):
        # images after the first lose their foreground where ``empty`` says
        pairs = [toy_pair(s, (H, W)) for s in seeds]
        preds = [p for p, _ in pairs]
        gts = [
            np.zeros_like(g) if i and e else g
            for i, ((_, g), e) in enumerate(zip(pairs, empty))
        ]
        report = evaluate_pairs(preds, gts)
        assert report.weighted_f == weighted_f(preds, gts)
        assert report.mae == mae(preds, gts)
        assert report.s_measure == s_measure(preds, gts)
        assert report.e_measure == e_measure(preds, gts)
        assert report.skipped_empty_gt == sum(not g.any() for g in gts)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16 - 1))
    def test_report_values_in_unit_interval(self, seed):
        pred, gt = toy_pair(seed, 6)
        report = evaluate_pairs([pred], [gt])
        for value in report.as_dict().values():
            assert 0.0 <= value <= 1.0
        assert report.max_f >= report.mean_f


def _report_values(preds, gts):
    report = evaluate_pairs(preds, gts)
    return report.as_dict(), report.pr.tobytes(), report.per_image


# Every public entry point that takes prediction / ground-truth lists, with
# its result in a form that compares with ==.
LIST_METRICS = {
    "pr_curve": lambda p, g: tuple(a.tobytes() for a in pr_curve(p, g)),
    "mean_f": mean_f,
    "weighted_f": weighted_f,
    "mae": mae,
    "s_measure": s_measure,
    "e_measure": e_measure,
    "evaluate_pairs": _report_values,
}


class TestInputCheck:
    @pytest.mark.parametrize("case", ["empty", "count", "shape", "no_pixels", "not_2d"])
    @pytest.mark.parametrize("name", sorted(LIST_METRICS))
    def test_malformed_lists_are_errors(self, name, case):
        pred, gt = toy_pair(100, 5)
        preds, gts, match = {
            "empty": ([], [], "empty dataset"),
            "count": ([pred, pred], [gt], "2 predictions vs 1 ground truths"),
            "shape": ([pred], [gt[:, :4]], "shape mismatch"),
            "no_pixels": ([pred, pred[:0, :0]], [gt, gt[:0, :0]], r"map 1 has no pixels"),
            "not_2d": ([pred[None]], [gt[None]], r"map 0 has shape \(1, 5, 5\)"),
        }[case]
        with pytest.raises(ValueError, match=match):
            LIST_METRICS[name](preds, gts)

    @pytest.mark.parametrize(
        "case",
        ["pred_above_one", "pred_below_zero", "pred_nan", "pred_inf", "gt_fraction", "gt_two"],
    )
    @pytest.mark.parametrize("name", sorted(LIST_METRICS))
    def test_values_outside_the_contract_are_errors(self, name, case):
        pairs = [toy_pair(s, 6) for s in (107, 108)]
        preds = [p for p, _ in pairs]
        gts = [g for _, g in pairs]
        kind, what = case.split("_", 1)
        bad = {"above_one": 2.0, "below_zero": -0.1, "nan": np.nan, "inf": np.inf,
               "fraction": 0.6, "two": 2.0}[what]
        if kind == "pred":
            preds[1] = np.where(gts[1] == 1, bad, preds[1])
        else:
            gts[1] = np.where(gts[1] == 1, bad, gts[1])
        match = "prediction 1" if kind == "pred" else "ground truth 1"
        with pytest.raises(ValueError, match=match):
            LIST_METRICS[name](preds, gts)

    def test_bounds_of_the_contract_are_accepted(self):
        pred, gt = toy_pair(109, 6)
        pred[0, 0], pred[0, 1] = 0.0, 1.0
        for metric in LIST_METRICS.values():
            metric([pred, gt], [gt, gt.astype(bool)])

    @pytest.mark.parametrize("name", sorted(LIST_METRICS))
    def test_bool_and_uint8_ground_truth_equal_float(self, name):
        metric = LIST_METRICS[name]
        pairs = [toy_pair(s, (6, 7)) for s in (101, 102, 103)]
        preds = [p for p, _ in pairs]
        gts = [g for _, g in pairs]
        gts[1] = np.zeros_like(gts[1])  # an empty ground truth among them
        expected = metric(preds, gts)
        for dtype in (bool, np.uint8):
            assert metric(preds, [g.astype(dtype) for g in gts]) == expected, dtype

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_evaluate_pairs_rejects_an_id_count_unequal_to_the_pairs(self, count):
        pairs = [toy_pair(s, 6) for s in (104, 105, 106)]
        preds = [p for p, _ in pairs]
        gts = [g for _, g in pairs]
        with pytest.raises(ValueError):
            evaluate_pairs(preds, gts, ids=[f"img{i}" for i in range(count)])
        report = evaluate_pairs(preds, gts, ids=["a", "b", "c"])
        assert [row["id"] for row in report.per_image] == ["a", "b", "c"]


class TestEvaluateDataset:
    def test_identical_dirs_perfect_report(self, tmp_path):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir(), gt_dir.mkdir()
        for i in range(3):
            _, gt = toy_pair(i + 70, 8)
            save_gray(pred_dir / f"{i}.pgm", gt)
            save_gray(gt_dir / f"{i}.pgm", gt)
        report = evaluate_dataset(pred_dir, gt_dir)
        assert report.max_f == 1.0 and report.mean_f == 1.0
        assert report.weighted_f == 1.0 and report.s_measure == 1.0
        assert report.mae == 0.0
        assert report.pr.shape == (256, 2)

    def test_inverted_predictions_mae(self, tmp_path):
        # expected value computed directly on the same toy set
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir(), gt_dir.mkdir()
        expected = []
        for i in range(3):
            _, gt = toy_pair(i + 90, 8)
            save_gray(pred_dir / f"{i}.pgm", 1.0 - gt)
            save_gray(gt_dir / f"{i}.pgm", gt)
            expected.append(np.abs((1.0 - gt) - gt).mean())
        report = evaluate_dataset(pred_dir, gt_dir)
        assert report.mae == pytest.approx(np.mean(expected), abs=1e-12)

    def test_unmatched_files_error(self, tmp_path):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir(), gt_dir.mkdir()
        _, gt = toy_pair(80, 6)
        save_gray(pred_dir / "a.pgm", gt)
        save_gray(gt_dir / "b.pgm", gt)
        with pytest.raises(DatasetMismatchError) as err:
            evaluate_dataset(pred_dir, gt_dir)
        assert "a" in str(err.value) and "b" in str(err.value)

    def test_report_formats(self):
        pred, gt = toy_pair(81, 6)
        report = evaluate_pairs([pred], [gt])
        assert "maxF" in report.text_table()
        assert report.delimited().count("\n") == 7
        assert len(report.pr_rows().strip().splitlines()) == 256
