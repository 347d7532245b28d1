"""Exact average-precision computation in three equivalent forms.

The rank form works purely on classification scores with positive/negative
labels. The reformulated form replaces the summation-range bookkeeping with
Heaviside step functions of localization scores, so positives are exactly
the predictions with a positive localization score; both forms agree
identically. The precision-recall-area form is the conventional ranked
evaluation (greedy matching at one or more IoU thresholds) and serves as the
independent oracle and the search reward.

Score ties contribute nothing to the rank counts (the step function is
strict at zero); tests use distinct scores to stay out of tie territory.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPositiveError, InvalidInputError
from .geometry import MEASUREMENTS, _measure_arrays, _overlap_arrays, pairwise_iou, validate_boxes

# COCO-style threshold sweep 0.50:0.05:0.95
COCO_THRESHOLDS = tuple(np.linspace(0.5, 0.95, 10))

NEGATIVE = -1

# stands in for a missing box where scenes are padded to one shape
_PAD_BOX = np.array([0.0, 0.0, 1.0, 1.0])


@dataclass(frozen=True, eq=False)
class DetectionBatch:
    """Scored predictions with ground truths and a per-prediction assignment.

    assignment[i] is the index of the ground truth assigned to prediction i,
    or -1 for negatives. Many predictions may share one ground truth.
    """

    boxes: np.ndarray
    scores: np.ndarray
    gt_boxes: np.ndarray
    assignment: np.ndarray

    def __post_init__(self):
        boxes = validate_boxes(np.asarray(self.boxes, dtype=float).reshape(-1, 4))
        scores = np.asarray(self.scores, dtype=float).reshape(-1)
        gt = np.asarray(self.gt_boxes, dtype=float).reshape(-1, 4)
        if gt.shape[0] > 0:
            gt = validate_boxes(gt)
        asg = np.asarray(self.assignment).reshape(-1)
        if not np.issubdtype(asg.dtype, np.integer):
            raise InvalidInputError("assignment must be an integer array")
        if boxes.shape[0] != scores.shape[0] or boxes.shape[0] != asg.shape[0]:
            raise InvalidInputError("boxes, scores and assignment lengths differ")
        if not np.all(np.isfinite(scores)):
            raise InvalidInputError("scores must be finite")
        if np.any(asg < NEGATIVE) or np.any(asg >= gt.shape[0]):
            raise InvalidInputError("assignment indexes a missing ground truth")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "gt_boxes", gt)
        object.__setattr__(self, "assignment", asg.astype(np.int64))

    @property
    def positive_mask(self) -> np.ndarray:
        return self.assignment >= 0

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self.positive_mask))

    @classmethod
    def from_predictions(cls, boxes, scores, gt_boxes):
        """Build a batch by running the standard assignment rule at IoU 0.5."""
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
        gt = np.asarray(gt_boxes, dtype=float).reshape(-1, 4)
        return cls(boxes, scores, gt, assign(boxes, gt))


def assign(candidate_boxes, ground_truths, iou_threshold: float = 0.5) -> np.ndarray:
    """Anchor-style assignment: argmax-IoU ground truth if IoU >= threshold.

    Returns an int array with the matched ground-truth index per candidate,
    -1 where no ground truth reaches the threshold. Several candidates may
    map to the same ground truth. An empty ground-truth list yields all -1.
    """
    cand = validate_boxes(np.asarray(candidate_boxes, dtype=float).reshape(-1, 4))
    if cand.shape[0] == 0:
        raise InvalidInputError("candidate list must be non-empty")
    if not (0.0 < iou_threshold < 1.0):
        raise InvalidInputError(f"iou_threshold must lie in (0, 1), got {iou_threshold}")
    gt = np.asarray(ground_truths, dtype=float).reshape(-1, 4)
    if gt.shape[0] == 0:
        return np.full(cand.shape[0], NEGATIVE, dtype=np.int64)
    return assignment_from_iou(pairwise_iou(cand, gt), iou_threshold)


def assignment_from_iou(iou: np.ndarray, iou_threshold: float) -> np.ndarray:
    """assign's rule on a precomputed (candidates, ground truths) IoU matrix
    with at least one column, for a caller that already holds the matrix."""
    best = np.argmax(iou, axis=1)
    best_iou = iou[np.arange(iou.shape[0]), best]
    return np.where(best_iou >= iou_threshold, best, NEGATIVE).astype(np.int64)


def loc_scores(batch: DetectionBatch, measurement: str = "iou") -> np.ndarray:
    """Localization score per prediction, in [0, 1].

    Negatives get 0. Positives get the measurement between the prediction
    and its assigned ground truth, min-max rescaled to [0, 1]: IoU and the
    L1-based score already live there, GIoU in [-1, 1] is mapped through
    (g + 1) / 2.
    """
    pos = batch.positive_mask
    out = np.zeros(batch.boxes.shape[0])
    if np.any(pos):
        if measurement not in MEASUREMENTS:
            raise InvalidInputError(f"unknown measurement {measurement!r}")
        rows = np.flatnonzero(pos)
        out[pos] = _positive_loc_scores(batch.gt_boxes[batch.assignment[rows]],
                                        batch.boxes[rows], measurement)[0]
    return out


def _positive_loc_scores(gt_rows: np.ndarray, box_rows: np.ndarray, measurement: str):
    """(loc_scores of positive boxes against their assigned ground truths,
    their gradients wrt those boxes), for paired (P, 4) arrays, from one
    overlap pass; the caller checks the measurement."""
    vals, grads = _measure_arrays(gt_rows, box_rows, measurement)
    if measurement == "giou":
        return (vals + 1.0) / 2.0, grads / 2.0
    return vals, grads


def ap_ranked(scores, positive_mask) -> float:
    """Rank-form AP over labeled scores.

    (1/|P|) sum over positives of 1 - rank_neg(s_i) / rank(s_i), where
    rank_neg counts strictly higher-scored negatives and rank is 1 plus the
    count of strictly higher-scored predictions overall.
    """
    s = np.asarray(scores, dtype=float).reshape(-1)
    pos = np.asarray(positive_mask, dtype=bool).reshape(-1)
    if s.shape != pos.shape:
        raise InvalidInputError("scores and labels must have equal length")
    n_pos = int(np.count_nonzero(pos))
    if n_pos == 0:
        raise EmptyPositiveError("rank-form AP needs at least one positive")
    higher = s[None, :] > s[:, None]  # higher[i, j]: s_j strictly above s_i
    rank_all = 1 + higher.sum(axis=1)
    rank_neg = (higher & ~pos[None, :]).sum(axis=1)
    terms = 1.0 - rank_neg[pos] / rank_all[pos]
    return float(terms.sum() / n_pos)


def ap_reformulated(scores, loc_values) -> float:
    """Step-function form of AP over scores and localization scores.

    Positives are exactly the predictions with loc score > 0; the strict
    step on score differences reproduces the rank counts.
    """
    s = np.asarray(scores, dtype=float).reshape(-1)
    l = np.asarray(loc_values, dtype=float).reshape(-1)
    if s.shape != l.shape:
        raise InvalidInputError("scores and localization scores must have equal length")
    h_loc = (l > 0.0).astype(float)
    n_pos = int(h_loc.sum())
    if n_pos == 0:
        raise EmptyPositiveError("step-form AP needs a positive localization score")
    h_diff = (s[None, :] > s[:, None]).astype(float)  # H(s_j - s_i), j != i free: diag is 0
    numer = (h_diff * (1.0 - h_loc)[None, :]).sum(axis=1)
    denom = 1.0 + h_diff.sum(axis=1)
    terms = h_loc - (numer / denom) * h_loc
    return float(terms.sum() / n_pos)


def ap_pr_area(pred_boxes, scores, gt_boxes, iou_thresholds=None) -> float:
    """Ranked-evaluation AP: greedy matching, all-points area under PR.

    Predictions are visited in descending score order; each one matches the
    highest-IoU still-unmatched ground truth at or above the threshold.
    Precision is accumulated at every true positive and divided by the
    ground-truth count, then averaged over the thresholds.
    """
    return _mean_in_order(_pr_area_by_threshold(pred_boxes, scores, gt_boxes, iou_thresholds))


def _mean_in_order(values) -> float:
    """Sum from left to right, then divide by the count."""
    total = 0.0
    for value in values:  # in order: sum() is compensated on Python >= 3.12
        total += value
    return float(total / len(values))


def _pr_area_by_threshold(pred_boxes, scores, gt_boxes, iou_thresholds=None) -> np.ndarray:
    """ap_pr_area at each IoU threshold: the one-scene case of _pr_area_stack,
    with the scene passed as (1, R, G).

    Raises InvalidInputError unless the thresholds are a non-empty list of
    finite values in (0, 1].
    """
    gt = np.asarray(gt_boxes, dtype=float).reshape(-1, 4)
    if gt.shape[0] == 0:
        raise InvalidInputError("precision-recall AP needs at least one ground truth")
    validate_boxes(gt)
    boxes = np.asarray(pred_boxes, dtype=float).reshape(-1, 4)
    s = np.asarray(scores, dtype=float).reshape(-1)
    if boxes.shape[0] != s.shape[0]:
        raise InvalidInputError("boxes and scores lengths differ")
    if iou_thresholds is None:
        iou_thresholds = COCO_THRESHOLDS
    thr = np.asarray(iou_thresholds, dtype=float)
    # at a threshold <= 0 a matched ground truth, masked to IoU 0, matches again
    if not (thr.ndim == 1 and thr.size > 0 and np.all((thr > 0.0) & (thr <= 1.0))):
        raise InvalidInputError("IoU thresholds must be a non-empty list of values in (0, 1]")
    validate_boxes(boxes)
    n_pred, n_gt = [boxes.shape[0]], [gt.shape[0]]
    return _pr_area_stack(_ranked_iou(boxes, s, gt, n_pred, n_gt), n_gt, thr)[0]


def _ranked_iou(boxes: np.ndarray, scores: np.ndarray, gt: np.ndarray,
                n_pred, n_gt) -> np.ndarray:
    """(S, R, G) IoU of each scene's predictions against its ground truths,
    rows in descending score order (ties keep input order), padded with -1.0.

    boxes and scores hold the validated predictions of S scenes one after
    another, n_pred[s] of them for scene s; gt holds their validated ground
    truths the same way, n_gt[s] for scene s. One stable argsort over the
    (S, R) scores, padded with -inf so that padding ranks last, orders every
    scene at once; the IoU is one elementwise pass over (S, R, G), with the
    padding held at the unit box so that it never divides by zero, and then
    masked to -1.0.
    """
    n_pred, n_gt = np.asarray(n_pred), np.asarray(n_gt)
    rows = np.arange(n_pred.max()) < n_pred[:, None]
    cols = np.arange(n_gt.max()) < n_gt[:, None]
    padded_scores = np.full(rows.shape, -np.inf)
    padded_scores[rows] = scores
    padded_boxes = np.tile(_PAD_BOX, rows.shape + (1,))
    padded_boxes[rows] = boxes
    padded_gt = np.tile(_PAD_BOX, cols.shape + (1,))
    padded_gt[cols] = gt
    order = np.argsort(-padded_scores, axis=1, kind="stable")
    ranked = np.take_along_axis(padded_boxes, order[..., None], axis=1)
    iou = _overlap_arrays(ranked[:, :, None, :], padded_gt[:, None, :, :])[0]
    iou[~(rows[:, :, None] & cols[:, None, :])] = -1.0
    return iou


def _pr_area_stack(iou: np.ndarray, n_gt, iou_thresholds) -> np.ndarray:
    """PR-area AP of each scene at each threshold, as an (S, T) array.

    iou is the (S, R, G) tensor of _ranked_iou: scene s's rows in ranked
    order against its n_gt[s] >= 1 ground truths, padded with IoU -1.0;
    thresholds are positive. The padding never reaches a threshold and never
    beats a real IoU of 0, so every (scene, threshold) lane of the (S, T, G)
    state runs the scalar greedy match with the same float operations in the
    same order: argmax takes the first maximum, and precision is added at
    each true positive only.
    """
    thr = np.asarray(iou_thresholds, dtype=float)
    lanes = (iou.shape[0], thr.size)
    matched = np.zeros(lanes + (iou.shape[2],), dtype=bool)
    columns = np.arange(iou.shape[2])
    tp = np.zeros(lanes)
    precision_sum = np.zeros(lanes)
    for rank in range(iou.shape[1]):
        cand = iou[:, rank, None, :] * ~matched
        g = np.argmax(cand, axis=2)[..., None]
        hit = np.take_along_axis(cand, g, axis=2)[..., 0] >= thr
        matched |= (columns == g) & hit[..., None]
        tp += hit
        precision_sum += np.where(hit, tp / (rank + 1), 0.0)
    return precision_sum / np.asarray(n_gt)[:, None]
