"""Axis-aligned box geometry: overlap measurements and their gradients.

Boxes use the corner representation (x1, y1, x2, y2) in normalized image
coordinates. All measurements are exposed in two flavours: scalar operations
on :class:`Box` pairs, and vectorized operations on ``(N, 4)`` arrays used by
the loss and the benchmark. Both share one array kernel, which computes the
intersection, union and enclosing hull for IoU and GIoU values and gradients.

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
    if not (np.all(b[..., 2] > b[..., 0]) and np.all(b[..., 3] > b[..., 1])):
        raise InvalidInputError("degenerate box: requires x1 < x2 and y1 < y2")
    return b


def _areas(b: np.ndarray) -> np.ndarray:
    return (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])


def _overlap_arrays(a: np.ndarray, b: np.ndarray):
    """Elementwise IoU, GIoU and the intermediates their gradients reuse.

    Returns (iou, giou, (iw, ih, inter, union, cw, ch, hull)). iw and ih stay
    unclipped (negative when disjoint) so the gradient's zeros keep their sign.
    """
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = _areas(a) + _areas(b) - inter
    iou = inter / union

    cw = np.maximum(a[..., 2], b[..., 2]) - np.minimum(a[..., 0], b[..., 0])
    ch = np.maximum(a[..., 3], b[..., 3]) - np.minimum(a[..., 1], b[..., 1])
    hull = cw * ch
    giou = iou - (hull - union) / hull
    return iou, giou, (iw, ih, inter, union, cw, ch, hull)


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
    d = float(np.abs(a.array - b.array).sum())
    return max(0.0, 1.0 - d / 4.0)


def giou_grad(a: Box, b: Box, include_enclosing: bool = True) -> np.ndarray:
    """Gradient of giou(a, b) with respect to b's four coordinates.

    With ``include_enclosing=False`` the enclosing-hull penalty term is
    dropped, which yields the gradient of plain IoU through the same code
    path.
    """
    g = _measure_grad_arrays(a.array[None, :], b.array[None, :],
                             "giou" if include_enclosing else "iou")
    return g[0]


def l1_score_grad(a: Box, b: Box) -> np.ndarray:
    """Gradient of l1_score(a, b) with respect to b's four coordinates."""
    return _measure_grad_arrays(a.array[None, :], b.array[None, :], "l1")[0]


def _measure_grad_arrays(a: np.ndarray, b: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise measurement gradient wrt b for (N, 4) arrays (a fixed).

    The caller checks kind: anything but "l1" or "iou" gets the GIoU gradient.
    """
    if kind == "l1":
        slack = 1.0 - np.abs(b - a).sum(axis=-1) / 4.0
        grad = -np.sign(b - a) / 4.0
        grad[slack <= 0.0] = 0.0
        return grad

    ax1, ay1, ax2, ay2 = (a[..., i] for i in range(4))
    bx1, by1, bx2, by2 = (b[..., i] for i in range(4))
    _, _, (iw, ih, inter, union, cw, ch, hull) = _overlap_arrays(a, b)

    # Right-sided tie rules: max picks the variable at a tie, min does not.
    mx1 = (bx1 >= ax1).astype(float)
    my1 = (by1 >= ay1).astype(float)
    mx2 = (bx2 < ax2).astype(float)
    my2 = (by2 < ay2).astype(float)
    act = ((iw > 0.0) & (ih > 0.0)).astype(float)
    d_inter = np.stack(
        [-mx1 * ih * act, -my1 * iw * act, mx2 * ih * act, my2 * iw * act],
        axis=-1,
    )

    bw = bx2 - bx1
    bh = by2 - by1
    d_area_b = np.stack([-bh, -bw, bh, bw], axis=-1)

    d_union = d_area_b - d_inter
    d_iou = (d_inter * union[..., None] - inter[..., None] * d_union) / union[..., None] ** 2
    if kind == "iou":
        return d_iou

    nx1 = (bx1 < ax1).astype(float)
    ny1 = (by1 < ay1).astype(float)
    nx2 = (bx2 >= ax2).astype(float)
    ny2 = (by2 >= ay2).astype(float)
    d_hull = np.stack([-nx1 * ch, -ny1 * cw, nx2 * ch, ny2 * cw], axis=-1)

    # giou = iou - 1 + union / hull
    return d_iou + d_union / hull[..., None] - (union / hull**2)[..., None] * d_hull


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU matrix of shape (N, M) for boxes a (N, 4) and b (M, 4)."""
    a = validate_boxes(a)
    b = validate_boxes(b)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    return _overlap_arrays(a[:, None, :], b[None, :, :])[0]


def measure(pred: np.ndarray, gt: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise measurement values for paired (N, 4) box arrays."""
    pred = validate_boxes(pred)
    gt = validate_boxes(gt)
    if kind == "iou":
        return _overlap_arrays(gt, pred)[0]
    if kind == "giou":
        return _overlap_arrays(gt, pred)[1]
    if kind == "l1":
        return np.maximum(0.0, 1.0 - np.abs(pred - gt).sum(axis=-1) / 4.0)
    raise InvalidInputError(f"unknown measurement {kind!r}")


def measure_grad(pred: np.ndarray, gt: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise measurement gradients wrt pred for paired (N, 4) arrays."""
    pred = validate_boxes(pred)
    gt = validate_boxes(gt)
    if kind not in MEASUREMENTS:
        raise InvalidInputError(f"unknown measurement {kind!r}")
    return _measure_grad_arrays(gt, pred, kind)
