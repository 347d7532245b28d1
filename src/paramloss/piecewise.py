"""Monotone piecewise-linear functions on [0, 1] with fixed end points.

A function with M segments is pinned at (0, 0) and (1, 1) and shaped by its
M-1 interior control points. Interior points are parameterized by ratio
pairs in the open interval (0, 1): each ratio places the next knot a fraction
of the way between the previous knot and 1,

    x_k = x_{k-1} + r_x_k * (1 - x_{k-1}),

and likewise for y. Any ratio vector in (0, 1)^(2(M-1)) therefore yields a
valid monotone function, which is what makes the family searchable without
explicit constraints.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError, DomainError, InvalidInputError


def on_unit_interval(fn, x, active=None):
    """fn applied to x, the contract every shape function shares.

    x is a scalar or an array of points in [0, 1]; a scalar or 0-d input
    gives a float, an array input an array. With an active mask (bools of
    x's shape), fn is called as fn(x, active) and returns a (value, slope)
    pair, each a float for a scalar or 0-d input.

    Raises:
        DomainError: a point is not finite or lies outside [0, 1].
        InvalidInputError: the active mask does not have x's shape.
    """
    arr = np.asarray(x, dtype=float)
    # two reductions and no temporary array; a NaN makes min() NaN and +-inf
    # lands on a bound, so both fail too; the message is worked out only on
    # failure
    if not (arr.size == 0 or (arr.min() >= 0.0 and arr.max() <= 1.0)):
        if not np.all(np.isfinite(arr)):
            raise DomainError("evaluation point must be finite")
        raise DomainError("evaluation point outside [0, 1]")
    if active is None:
        out = fn(arr)
        return float(out) if arr.ndim == 0 else out
    active = np.asarray(active, dtype=bool)
    if active.shape != arr.shape:
        raise InvalidInputError(f"active mask has shape {active.shape}, points {arr.shape}")
    value, slope = fn(arr, active)
    return (float(value), float(slope)) if arr.ndim == 0 else (value, slope)


@dataclass(frozen=True, eq=False)
class RatioParams:
    """Ratio pairs (r_x_k, r_y_k), one per interior control point.

    ratios is an (M-1, 2) array; every component must lie strictly inside
    (0, 1).
    """

    ratios: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.ratios, dtype=float)
        if r.ndim != 2 or r.shape[1] != 2:
            raise InvalidInputError(f"ratios must have shape (M-1, 2), got {r.shape}")
        if not np.all(np.isfinite(r)):
            raise InvalidInputError("ratios must be finite")
        if not np.all((r > 0.0) & (r < 1.0)):
            raise ConstraintViolationError("ratios must lie strictly inside (0, 1)")
        object.__setattr__(self, "ratios", r)

    @property
    def segments(self) -> int:
        return self.ratios.shape[0] + 1

    def flat(self) -> np.ndarray:
        """Scalars in order (r_x_1, r_y_1, r_x_2, r_y_2, ...)."""
        return self.ratios.reshape(-1).copy()

    @classmethod
    def from_flat(cls, values) -> "RatioParams":
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size % 2 != 0:
            raise InvalidInputError(f"flat ratio vector must have even length, got shape {v.shape}")
        return cls(v.reshape(-1, 2))


@dataclass(frozen=True, eq=False)
class PiecewiseFn:
    """Piecewise-linear function given by M+1 control points (x_k, y_k).

    Segment membership uses half-open intervals [x_k, x_{k+1}); x = 1 is
    assigned to the last segment so the domain is closed. The slope at a
    knot is the slope of the segment the knot belongs to under that rule.

    The segment of x is the number of interior knots at or below it,
    counted in the smallest unsigned dtype that holds M - 1. On [0, 1] that
    equals clip(searchsorted(xs, x, side="right") - 1, 0, M - 1).
    """

    control_points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.control_points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise InvalidInputError(f"control points must have shape (M+1, 2) with M >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("control points must be finite")
        if not (pts[0, 0] == 0.0 and pts[0, 1] == 0.0 and pts[-1, 0] == 1.0 and pts[-1, 1] == 1.0):
            raise InvalidInputError("control points must start at (0, 0) and end at (1, 1)")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise InvalidInputError("control points must lie in [0, 1]^2")
        xs = pts[:, 0]
        ys = pts[:, 1]
        if not np.all(np.diff(xs) > 0.0):
            raise InvalidInputError("x coordinates must be strictly increasing")
        if np.any(np.diff(ys) < 0.0):
            raise InvalidInputError("y coordinates must be non-decreasing")
        object.__setattr__(self, "control_points", pts)
        object.__setattr__(self, "_slopes", np.diff(ys) / np.diff(xs))
        object.__setattr__(self, "_index_dtype", np.min_scalar_type(pts.shape[0] - 2))

    @property
    def segments(self) -> int:
        return self.control_points.shape[0] - 1

    def _segment_index(self, x: np.ndarray) -> np.ndarray:
        """Segment of each point, counted in the small dtype and returned as
        intp once: take converts any other index dtype again on every call."""
        idx = np.zeros(x.shape, dtype=self._index_dtype)
        for knot in self.control_points[1:-1, 0]:
            idx += x >= knot
        return idx.astype(np.intp)

    def _value(self, arr: np.ndarray, keep_slope: bool):
        """(eval at arr, the segment slopes at arr if keep_slope else None).

        The value is (x - xs[k]) * slopes[k] + ys[k] for the segment k of x,
        written into its buffer in place. take with mode="clip" fills a
        buffer without copying through another one; idx never leaves the
        segment range, so nothing is clipped.
        """
        idx = self._segment_index(arr)
        value = np.empty(arr.shape)
        slope = np.empty(arr.shape)
        np.take(self.control_points[:, 0], idx, out=value, mode="clip")
        np.subtract(arr, value, out=value)
        np.take(self._slopes, idx, out=slope, mode="clip")
        value *= slope
        part = np.empty(arr.shape) if keep_slope else slope
        np.take(self.control_points[:, 1], idx, out=part, mode="clip")
        value += part
        return value, slope if keep_slope else None

    def eval(self, x):
        """Evaluate at x (scalar or array); inputs must lie in [0, 1]."""
        return on_unit_interval(lambda arr: self._value(arr, False)[0], x)

    __call__ = eval

    def slope(self, x):
        """Segment slope at x under the half-open membership rule."""
        return on_unit_interval(lambda arr: self._slopes.take(self._segment_index(arr)), x)

    def eval_with_slope(self, x, active):
        """(eval(x), slope(x) on the active entries and exactly 0.0 elsewhere),
        both from one segment count."""
        def both(arr, mask):
            value, slope = self._value(arr, True)
            np.copyto(slope, 0.0, where=~mask)
            return value, slope
        return on_unit_interval(both, x, active)

    def ratios(self) -> RatioParams:
        """Recover the ratio parameterization of the interior points."""
        pts = self.control_points
        prev = pts[:-2]  # (x_{k-1}, y_{k-1}) for each interior k
        cur = pts[1:-1]
        r = (cur - prev) / (1.0 - prev)
        return RatioParams(r)

    def to_points(self) -> list:
        """Control points as a plain list of [x, y] pairs (JSON-friendly)."""
        return [[float(x), float(y)] for x, y in self.control_points]

    @classmethod
    def from_points(cls, points) -> "PiecewiseFn":
        return cls(np.asarray(points, dtype=float))


def build(params: RatioParams, M: int) -> PiecewiseFn:
    """Construct the piecewise function for M segments from ratio pairs.

    Raises:
        InvalidInputError: M < 1 or the ratio count is not M-1.
        ConstraintViolationError: a ratio outside (0, 1), or ratios so
            extreme that consecutive knots collapse in float arithmetic.
    """
    if M < 1:
        raise InvalidInputError(f"M must be a positive integer, got {M}")
    if params.ratios.shape[0] != M - 1:
        raise InvalidInputError(
            f"expected {M - 1} ratio pairs for M={M}, got {params.ratios.shape[0]}"
        )
    pts = np.zeros((M + 1, 2))
    pts[-1] = 1.0
    for k in range(1, M):
        pts[k] = pts[k - 1] + params.ratios[k - 1] * (1.0 - pts[k - 1])
    if not np.all(np.diff(pts[:, 0]) > 0.0):
        raise ConstraintViolationError("ratios collapse adjacent x knots in float arithmetic")
    return PiecewiseFn(pts)


def identity_params(M: int) -> RatioParams:
    """Ratios of evenly spaced diagonal control points x_k = y_k = k/M.

    build(identity_params(M), M) is the identity map on [0, 1].
    """
    if M < 2:
        raise InvalidInputError(f"identity initialization needs M >= 2, got {M}")
    k = np.arange(1, M)
    r = 1.0 / (M - k + 1.0)
    return RatioParams(np.stack([r, r], axis=1))
