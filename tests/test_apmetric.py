"""AP metric tests: frozen cases, cross-form equivalences, oracle checks."""

import numpy as np
import pytest

from paramloss.apmetric import (
    COCO_THRESHOLDS,
    DetectionBatch,
    _pr_area_by_threshold,
    _pr_area_stack,
    _ranked_iou,
    ap_pr_area,
    ap_ranked,
    ap_reformulated,
    assign,
    loc_score,
    loc_scores,
)
from paramloss.errors import EmptyPositiveError, InvalidInputError
from paramloss.geometry import pairwise_iou

UNIT = np.array([0.0, 0.0, 1.0, 1.0])


def shifted(dx, dy=0.0, w=1.0, h=1.0):
    return np.array([dx, dy, dx + w, dy + h])


class TestAssign:
    def test_above_threshold_positive(self):
        # candidate overlaps the single GT with IoU 0.6
        cand = np.array([[0.0, 0.0, 1.0, 0.75]])
        gt = np.array([[0.0, 0.0, 1.0, 1.25]])
        assert assign(cand, gt, 0.5).tolist() == [0]

    def test_disjoint_negative(self):
        cand = np.array([shifted(5.0)])
        gt = np.array([UNIT])
        assert assign(cand, gt, 0.5).tolist() == [-1]

    def test_argmax_selects_best_gt(self):
        # IoU 0.4 to gt0 and 0.7 to gt1 (within rounding of the constructions)
        cand = np.array([[0.0, 0.0, 1.0, 1.0]])
        gt0 = np.array([0.0, 0.0, 1.0, 0.4])   # IoU 0.4
        gt1 = np.array([0.0, 0.0, 1.0, 0.7])   # IoU 0.7
        out = assign(cand, np.stack([gt0, gt1]), 0.5)
        assert out.tolist() == [1]

    def test_empty_ground_truths(self):
        out = assign(np.array([UNIT]), np.zeros((0, 4)), 0.5)
        assert out.tolist() == [-1]

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            assign(np.zeros((0, 4)), np.array([UNIT]), 0.5)
        with pytest.raises(InvalidInputError):
            assign(np.array([UNIT]), np.array([UNIT]), 1.0)

    def test_threshold_inclusive(self):
        cand = np.array([[0.0, 0.0, 1.0, 0.5]])  # IoU exactly 0.5
        gt = np.array([UNIT])
        assert assign(cand, gt, 0.5).tolist() == [0]


class TestLocScores:
    def make_batch(self):
        boxes = np.stack([
            UNIT,                                # exact match
            np.array([0.0, 0.5, 1.0, 1.5]),     # giou 1/3 vs UNIT
            shifted(5.0),                        # negative
        ])
        gt = np.array([UNIT])
        return DetectionBatch(boxes, np.array([0.9, 0.8, 0.7]), gt,
                              np.array([0, 0, -1]))

    def test_negative_is_zero(self):
        batch = self.make_batch()
        for kind in ("iou", "giou", "l1"):
            assert loc_score(batch, 2, kind) == 0.0

    def test_giou_rescaled(self):
        batch = self.make_batch()
        assert abs(loc_score(batch, 0, "giou") - 1.0) < 1e-12
        assert abs(loc_score(batch, 1, "giou") - 2.0 / 3.0) < 1e-12

    def test_iou_unchanged(self):
        batch = self.make_batch()
        assert abs(loc_score(batch, 1, "iou") - 1.0 / 3.0) < 1e-12

    def test_vector_matches_scalar(self):
        batch = self.make_batch()
        for kind in ("iou", "giou", "l1"):
            vec = loc_scores(batch, kind)
            for i in range(3):
                assert vec[i] == loc_score(batch, i, kind)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            loc_score(self.make_batch(), 3)


class TestBatchValidation:
    def test_assignment_out_of_range(self):
        with pytest.raises(InvalidInputError):
            DetectionBatch(np.array([UNIT]), np.array([0.5]),
                           np.array([UNIT]), np.array([1]))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            DetectionBatch(np.array([UNIT]), np.array([0.5, 0.6]),
                           np.array([UNIT]), np.array([0]))

    def test_non_integer_assignment(self):
        with pytest.raises(InvalidInputError):
            DetectionBatch(np.array([UNIT]), np.array([0.5]),
                           np.array([UNIT]), np.array([0.0]))


class TestApRanked:
    def test_perfect_ordering(self):
        scores = [0.9, 0.8, 0.3, 0.2]
        labels = [True, True, False, False]
        assert ap_ranked(scores, labels) == 1.0

    def test_interleaved(self):
        assert abs(ap_ranked([0.9, 0.7, 0.5], [True, False, True]) - 5.0 / 6.0) < 1e-12

    def test_single_swap(self):
        assert abs(ap_ranked([0.5, 0.9], [True, False]) - 0.5) < 1e-12

    def test_no_positive_raises(self):
        with pytest.raises(EmptyPositiveError):
            ap_ranked([0.4, 0.2], [False, False])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(211)
        for _ in range(200):
            n = rng.integers(2, 20)
            scores = rng.uniform(-2.0, 2.0, size=n)
            labels = rng.uniform(size=n) < 0.5
            if not labels.any():
                labels[0] = True
            transformed = scores**3 + 2.0 * scores
            assert abs(ap_ranked(scores, labels) - ap_ranked(transformed, labels)) <= 1e-12


class TestApReformulated:
    def test_matches_rank_form_example(self):
        got = ap_reformulated([0.9, 0.7, 0.5], [0.8, 0.0, 0.6])
        assert abs(got - 5.0 / 6.0) < 1e-12

    def test_single_prediction(self):
        assert ap_reformulated([0.3], [0.9]) == 1.0

    def test_all_zero_loc_raises(self):
        with pytest.raises(EmptyPositiveError):
            ap_reformulated([0.9, 0.1], [0.0, 0.0])

    def test_agrees_with_rank_form_on_random_instances(self):
        rng = np.random.default_rng(223)
        for _ in range(500):
            n = int(rng.integers(1, 21))
            scores = rng.uniform(size=n)
            while len(np.unique(scores)) < n:  # distinct scores only
                scores = rng.uniform(size=n)
            labels = rng.uniform(size=n) < 0.4
            if not labels.any():
                labels[rng.integers(n)] = True
            loc = np.where(labels, rng.uniform(0.05, 1.0, size=n), 0.0)
            assert abs(ap_reformulated(scores, loc) - ap_ranked(scores, labels)) <= 1e-12


class TestApPrArea:
    def test_perfect_single_detection(self):
        assert ap_pr_area(np.array([UNIT]), [0.9], np.array([UNIT]), [0.5]) == 1.0

    def test_duplicate_detection_keeps_full_area(self):
        boxes = np.stack([UNIT, UNIT])
        got = ap_pr_area(boxes, [0.9, 0.8], np.array([UNIT]), [0.5])
        assert got == 1.0

    def test_false_positive_ranked_first(self):
        boxes = np.stack([shifted(5.0), UNIT])
        got = ap_pr_area(boxes, [0.9, 0.7], np.array([UNIT]), [0.5])
        assert abs(got - 0.5) < 1e-12

    def test_coco_threshold_sweep(self):
        # IoU 0.72 passes thresholds 0.50 through 0.70, five of ten
        pred = np.array([[0.0, 0.0, 1.0, 0.72]])
        got = ap_pr_area(pred, [0.9], np.array([UNIT]))
        assert abs(got - 0.5) < 1e-12
        assert len(COCO_THRESHOLDS) == 10

    def test_empty_predictions(self):
        assert ap_pr_area(np.zeros((0, 4)), [], np.array([UNIT]), [0.5]) == 0.0

    @pytest.mark.parametrize("thresholds", [[0.0], [-1.0], [float("nan")], [0.5, 1.5],
                                            [float("inf")], []],
                             ids=["zero", "negative", "nan", "above-one", "inf", "empty"])
    def test_thresholds_outside_unit_interval_rejected(self, thresholds):
        # at a threshold of 0, three copies of the ground truth all matched,
        # for an AP of 3
        boxes = np.stack([UNIT, UNIT, UNIT])
        with pytest.raises(InvalidInputError, match="IoU thresholds"):
            ap_pr_area(boxes, [0.9, 0.8, 0.7], np.array([UNIT]), thresholds)
        with pytest.raises(InvalidInputError, match="IoU thresholds"):
            ap_pr_area(np.zeros((0, 4)), [], np.array([UNIT]), thresholds)

    def test_threshold_one_accepted(self):
        assert ap_pr_area(np.array([UNIT]), [0.9], np.array([UNIT]), [1.0]) == 1.0

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(InvalidInputError):
            ap_pr_area(np.array([UNIT]), [0.9], np.zeros((0, 4)), [0.5])

    def test_range_and_fp_monotonicity(self):
        rng = np.random.default_rng(227)
        for _ in range(100):
            n_gt = int(rng.integers(1, 5))
            gts = np.stack([shifted(3.0 * g) for g in range(n_gt)])
            n = int(rng.integers(1, 8))
            idx = rng.integers(0, n_gt, size=n)
            jitter = rng.uniform(-0.2, 0.2, size=(n, 4))
            boxes = gts[idx] + jitter
            boxes[:, 2] = np.maximum(boxes[:, 2], boxes[:, 0] + 0.05)
            boxes[:, 3] = np.maximum(boxes[:, 3], boxes[:, 1] + 0.05)
            scores = rng.uniform(0.1, 1.0, size=n)
            base = ap_pr_area(boxes, scores, gts)
            assert 0.0 <= base <= 1.0
            # append one disjoint detection scored below everything
            boxes2 = np.vstack([boxes, shifted(-10.0)])
            scores2 = np.append(scores, 0.01)
            assert ap_pr_area(boxes2, scores2, gts) <= base + 1e-12


class TestRankFormEqualsPrArea:
    """One-to-one assignments make the rank form and the PR area coincide."""

    def build_instance(self, rng):
        n_gt = int(rng.integers(1, 7))
        gts = np.stack([shifted(3.0 * g) for g in range(n_gt)])
        boxes = []
        labels = []
        for g in range(n_gt):
            # one true positive per GT, IoU well above 0.5, disjoint from others
            dy = rng.uniform(-0.1, 0.1)
            boxes.append(shifted(3.0 * g, dy))
            labels.append(True)
        n_fp = int(rng.integers(0, 6))
        for k in range(n_fp):
            boxes.append(shifted(-5.0 - 2.0 * k))
            labels.append(False)
        boxes = np.stack(boxes)
        scores = rng.permutation(np.linspace(0.1, 0.9, len(boxes)))
        return boxes, scores, gts, np.array(labels)

    def test_equivalence_on_constructed_instances(self):
        rng = np.random.default_rng(229)
        for _ in range(60):
            boxes, scores, gts, labels = self.build_instance(rng)
            lhs = ap_ranked(scores, labels)
            rhs = ap_pr_area(boxes, scores, gts, [0.5])
            assert abs(lhs - rhs) <= 1e-9


def _reference_by_threshold(pred_boxes, scores, gt_boxes, iou_thresholds):
    """The scalar greedy match, one threshold and one ranked prediction at a
    time: the reference the stacked kernel must equal bit for bit."""
    gt = np.asarray(gt_boxes, dtype=float).reshape(-1, 4)
    boxes = np.asarray(pred_boxes, dtype=float).reshape(-1, 4)
    s = np.asarray(scores, dtype=float).reshape(-1)
    if boxes.shape[0] == 0:
        return [0.0] * len(iou_thresholds)
    order = np.argsort(-s, kind="stable")
    mat = pairwise_iou(boxes[order], gt)
    values = []
    for thr in iou_thresholds:
        matched = np.zeros(gt.shape[0], dtype=bool)
        tp = 0
        precision_sum = 0.0
        for pos_rank, row in enumerate(mat, start=1):
            cand = row * ~matched
            g = int(np.argmax(cand))
            if cand[g] >= thr:
                matched[g] = True
                tp += 1
                precision_sum += tp / pos_rank
        values.append(precision_sum / gt.shape[0])
    return values


def _random_scene(rng, jitter, max_pred=40):
    """1-5 ground truths and 0-max_pred predictions jittered from them,
    scores rounded to 0.1 so that ties occur; on every other call all
    coordinates sit on a 1/8 grid, so that IoU values tie too."""
    n_gt = int(rng.integers(1, 6))
    lo = rng.uniform(0.0, 0.7, size=(n_gt, 2))
    gts = np.hstack([lo, lo + rng.uniform(0.1, 0.5, size=(n_gt, 2))])
    n = int(rng.integers(0, max_pred + 1))
    boxes = gts[rng.integers(0, n_gt, size=n)] + rng.normal(0.0, jitter, size=(n, 4))
    if rng.integers(2):
        gts = np.round(gts * 8.0) / 8.0
        gts[:, 2:] = np.maximum(gts[:, 2:], gts[:, :2] + 0.125)
        boxes = np.round(boxes * 8.0) / 8.0
        boxes[:, 2:] = np.maximum(boxes[:, 2:], boxes[:, :2] + 0.125)
    else:
        boxes[:, 2:] = np.maximum(boxes[:, 2:], boxes[:, :2] + 0.01)
    return boxes, np.round(rng.uniform(size=n), 1), gts


def _random_thresholds(rng):
    if rng.integers(2):
        return COCO_THRESHOLDS
    return tuple(rng.uniform(0.01, 0.99, size=int(rng.integers(1, 13))))


def _padded(ious):
    """The (S, R, G) stack of (R_s, G_s) IoU matrices, padded with -1.0,
    and the ground-truth count of each."""
    n_gt = [m.shape[1] for m in ious]
    iou = np.full((len(ious), max(m.shape[0] for m in ious), max(n_gt)), -1.0)
    for scene, m in enumerate(ious):
        iou[scene, :m.shape[0], :m.shape[1]] = m
    return iou, n_gt


class TestPrAreaStack:
    """The one greedy-matching pass over scenes x thresholds against the
    scalar loop."""

    @pytest.mark.parametrize("jitter", [0.02, 0.1, 0.3])
    def test_one_scene_equals_scalar_loop(self, jitter):
        rng = np.random.default_rng([241, int(jitter * 100)])
        for _ in range(300):
            boxes, scores, gts = _random_scene(rng, jitter)
            thresholds = _random_thresholds(rng)
            ref = _reference_by_threshold(boxes, scores, gts, thresholds)
            got = _pr_area_by_threshold(boxes, scores, gts, thresholds)
            assert got.tolist() == ref
            total = 0.0
            for value in ref:
                total += value
            assert ap_pr_area(boxes, scores, gts, thresholds) == total / len(ref)

    def test_multi_scene_rows_equal_one_scene_calls(self):
        # ragged scenes of 0-40 predictions and 1-5 ground truths, their
        # scores rounded to 0.1 so that they tie within and across scenes,
        # ranked and matched in one pass each
        rng = np.random.default_rng(243)
        for _ in range(40):
            scenes = [_random_scene(rng, [0.02, 0.1, 0.3][int(rng.integers(3))])
                      for _ in range(int(rng.integers(1, 9)))]
            boxes, scores, gts = (np.concatenate(parts) for parts in zip(*scenes))
            n_pred = [len(s) for _, s, _ in scenes]
            n_gt = [len(g) for _, _, g in scenes]
            thresholds = _random_thresholds(rng)
            stacked = _pr_area_stack(_ranked_iou(boxes, scores, gts, n_pred, n_gt), n_gt,
                                     thresholds)
            assert stacked.shape == (len(scenes), len(thresholds))
            for row, scene in zip(stacked, scenes):
                assert row.tolist() == _reference_by_threshold(*scene, thresholds)

    def test_padding_never_hits(self):
        # a one-prediction scene, perfectly matched, padded to the rank and
        # ground-truth count of a larger scene: the padded rows and columns
        # add no true positive, and a scene with no predictions scores 0
        _, _, gts = _random_scene(np.random.default_rng(245), 0.1)
        big = pairwise_iou(np.tile(gts, (4, 1)), gts)
        small = pairwise_iou(np.array([UNIT]), np.array([UNIT]))
        none = np.zeros((0, 2))
        thresholds = np.linspace(0.01, 1.0, 12)
        stacked = _pr_area_stack(*_padded([big, small, none]), thresholds)
        assert stacked[1].tolist() == [1.0] * 12
        assert stacked[2].tolist() == [0.0] * 12
        assert stacked[0].tolist() == _pr_area_stack(*_padded([big]), thresholds)[0].tolist()
        # _ranked_iou pads the same way
        ranked = _ranked_iou(np.vstack([np.tile(gts, (4, 1)), [UNIT]]), np.zeros(len(big) + 1),
                             np.vstack([gts, [UNIT], [UNIT, UNIT]]), [len(big), 1, 0],
                             [len(gts), 1, 2])
        assert ranked.tolist() == _padded([big, small, none])[0].tolist()

    def test_iou_ties_take_the_first_ground_truth(self):
        # the first prediction straddles both ground truths at IoU 1/3 each
        # and takes the first; the second is an exact copy of that first
        # ground truth and so finds nothing left at the threshold
        gts = np.array([UNIT, shifted(1.0)])
        boxes = np.array([shifted(0.5), UNIT])
        got = ap_pr_area(boxes, [0.9, 0.8], gts, [0.3])
        assert got == 0.5
        assert got == _reference_by_threshold(boxes, [0.9, 0.8], gts, [0.3])[0]
