"""Axis-aligned box geometry: overlap measurements and their gradients.

Boxes use the corner representation (x1, y1, x2, y2) in normalized image
coordinates. All measurements are exposed in two flavours: scalar operations
on :class:`Box` pairs, and vectorized operations on ``(N, 4)`` arrays used by
the loss and the benchmark. Both share one array kernel, which computes the
intersection, union and enclosing hull for IoU and GIoU values and gradients.
The kernels treat a box as two (x, y) corner pairs, ``lo = b[..., :2]`` and
``hi = b[..., 2:]``, so that one ``(..., 2)`` expression covers both axes.

Gradients are piecewise affine. At non-differentiable configurations
(coincident edges, exactly touching boxes) the right-sided derivative is
used: ``d/dx max(c, x) = 1`` and ``d/dx min(c, x) = 0`` at the tie, and the
intersection term is active only while strictly positive.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

MEASUREMENTS = ("iou", "giou", "l1")


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with strictly positive width and height."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        validate_boxes(self.array)

    @property
    def array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "Box":
        a = np.asarray(arr, dtype=float).reshape(4)
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


def validate_boxes(boxes: np.ndarray) -> np.ndarray:
    """Check an (..., 4) array of corner boxes; returns the array unchanged.

    Raises:
        InvalidInputError: non-finite coordinates or zero/negative extent.
    """
    b = np.asarray(boxes, dtype=float)
    if b.shape[-1] != 4:
        raise InvalidInputError(f"boxes must have last dimension 4, got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise InvalidInputError("box coordinates must be finite")
    if not np.all(b[..., 2:] > b[..., :2]):
        raise InvalidInputError("degenerate box: requires x1 < x2 and y1 < y2")
    return b


def _areas(b: np.ndarray) -> np.ndarray:
    wh = b[..., 2:] - b[..., :2]
    return wh[..., 0] * wh[..., 1]


def _overlap_arrays(a: np.ndarray, b: np.ndarray):
    """Elementwise IoU, GIoU and the intermediates their gradients reuse.

    Returns (iou, giou, (iwh, inter, union, cwh, hull)), where iwh and cwh
    are the (..., 2) intersection and hull extents. iwh stays unclipped
    (negative when disjoint) so the gradient's zeros keep their sign.
    """
    iwh = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
    clipped = np.maximum(iwh, 0.0)
    inter = clipped[..., 0] * clipped[..., 1]
    union = _areas(a) + _areas(b) - inter
    iou = inter / union

    cwh = np.maximum(a[..., 2:], b[..., 2:]) - np.minimum(a[..., :2], b[..., :2])
    hull = cwh[..., 0] * cwh[..., 1]
    giou = iou - (hull - union) / hull
    return iou, giou, (iwh, inter, union, cwh, hull)


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint, symmetric."""
    return float(_overlap_arrays(a.array, b.array)[0])


def giou(a: Box, b: Box) -> float:
    """Generalized IoU in [-1, 1]: IoU minus the enclosing-hull penalty.

    Equals plain IoU whenever the smallest enclosing box coincides with the
    union hull.
    """
    return float(_overlap_arrays(a.array, b.array)[1])


def l1_score(a: Box, b: Box) -> float:
    """Similarity score max(0, 1 - sum(|a - b|) / 4) in [0, 1].

    The raw coordinate distance is mapped to a "higher is better" score on
    the same scale as the overlap measurements; with coordinates in [0, 1]
    the per-coordinate distance is at most 1, so the sum is divided by 4.
    """
    return float(_measure_arrays(a.array[None, :], b.array[None, :], "l1")[0][0])


def giou_grad(a: Box, b: Box, include_enclosing: bool = True) -> np.ndarray:
    """Gradient of giou(a, b) with respect to b's four coordinates.

    With ``include_enclosing=False`` the enclosing-hull penalty term is
    dropped, which yields the gradient of plain IoU through the same code
    path.
    """
    _, g = _measure_arrays(a.array[None, :], b.array[None, :],
                           "giou" if include_enclosing else "iou")
    return g[0]


def l1_score_grad(a: Box, b: Box) -> np.ndarray:
    """Gradient of l1_score(a, b) with respect to b's four coordinates."""
    return _measure_arrays(a.array[None, :], b.array[None, :], "l1")[1][0]


def _measure_arrays(a: np.ndarray, b: np.ndarray, kind: str):
    """Elementwise measurement values of b against a, and their gradients
    wrt b, for (N, 4) arrays (a fixed); one overlap pass serves both.

    Returns (values, grads). The caller checks the boxes and kind: anything
    but "l1" or "iou" is measured as GIoU.
    """
    if kind == "l1":
        slack = 1.0 - np.abs(b - a).sum(axis=-1) / 4.0
        grad = -np.sign(b - a) / 4.0
        grad[slack <= 0.0] = 0.0
        return np.maximum(0.0, slack), grad

    a_lo, a_hi, b_lo, b_hi = a[..., :2], a[..., 2:], b[..., :2], b[..., 2:]
    iou, giou, (iwh, inter, union, cwh, hull) = _overlap_arrays(a, b)

    # Right-sided tie rules: max picks the variable at a tie, min does not.
    # A corner's x moves the area by the height and its y by the width, hence
    # the swapped extents [..., ::-1].
    ihw = iwh[..., ::-1]
    act = ((iwh[..., 0] > 0.0) & (iwh[..., 1] > 0.0)).astype(float)[..., None]
    d_inter = np.concatenate([-(b_lo >= a_lo).astype(float) * ihw * act,
                              (b_hi < a_hi).astype(float) * ihw * act], axis=-1)

    bhw = (b_hi - b_lo)[..., ::-1]
    d_area_b = np.concatenate([-bhw, bhw], axis=-1)

    d_union = d_area_b - d_inter
    d_iou = (d_inter * union[..., None] - inter[..., None] * d_union) / union[..., None] ** 2
    if kind == "iou":
        return iou, d_iou

    chw = cwh[..., ::-1]
    d_hull = np.concatenate([-(b_lo < a_lo).astype(float) * chw,
                             (b_hi >= a_hi).astype(float) * chw], axis=-1)

    # giou = iou - 1 + union / hull
    return giou, d_iou + d_union / hull[..., None] - (union / hull**2)[..., None] * d_hull


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU matrix of shape (N, M) for boxes a (N, 4) and b (M, 4)."""
    a = validate_boxes(a)
    b = validate_boxes(b)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    return _overlap_arrays(a[:, None, :], b[None, :, :])[0]


def _checked_measure(pred, gt, kind):
    pred = validate_boxes(pred)
    gt = validate_boxes(gt)
    if kind not in MEASUREMENTS:
        raise InvalidInputError(f"unknown measurement {kind!r}")
    return _measure_arrays(gt, pred, kind)


def measure(pred: np.ndarray, gt: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise measurement values for paired (N, 4) box arrays."""
    return _checked_measure(pred, gt, kind)[0]


def measure_grad(pred: np.ndarray, gt: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise measurement gradients wrt pred for paired (N, 4) arrays."""
    return _checked_measure(pred, gt, kind)[1]
