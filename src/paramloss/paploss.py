"""Differentiable AP surrogate loss with searchable shape parameters.

The exact step-function AP form becomes a loss by substituting each of its
five Heaviside occurrences with a monotone piecewise-linear function:

    L = -(1/|P|) sum_i [ f1(l_i)
                         - f5(l_i) * sum_{j!=i} f2(d_ji) (1 - f3(l_j))
                                     / (1 + sum_{j!=i} f4(d_ji)) ]

where l_i is the prediction's localization score and d_ji is the normalized
classification-score difference. Substituting the exact step function back
in recovers the AP value itself, which is the reduction oracle the tests
lean on.

Two training details are part of the loss definition rather than the
trainer: the denominator sum is treated as a constant under differentiation
(gradient blocking, on by default), and gradients flowing to box coordinates
are multiplied by a scale factor lambda in (0.1, 10) searched through its
log parameterization.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

# loc_scores and measure_grad stay importable from here, unused: the
# benchmark's per-layer table (perfbench/workloads.py) wraps these bindings
from .apmetric import DetectionBatch, _scatter_loc_scores, loc_scores  # noqa: F401
from .errors import (
    ConstraintViolationError,
    EmptyPositiveError,
    InvalidInputError,
    check_field_types,
    check_value_type,
)
from .geometry import MEASUREMENTS, _measure_arrays, measure_grad  # noqa: F401
from .piecewise import RatioParams, build, identity_params, on_unit_interval

HANDCRAFTED_KINDS = ("sigmoid", "sqrt", "linear", "square")


@dataclass(frozen=True, eq=False)
class AnalyticFn:
    """Closed-form function on [0, 1] with the PiecewiseFn shape-function contract."""

    fn: object
    deriv: object
    name: str = ""

    def eval(self, x):
        return on_unit_interval(self.fn, x)

    __call__ = eval

    def slope(self, x):
        return on_unit_interval(self.deriv, x)

    def eval_with_slope(self, x, active):
        def both(arr, mask):
            slope = np.zeros_like(arr)
            # deriv never sees an inactive entry, where it may diverge (sqrt at 0)
            slope[mask] = self.deriv(arr[mask])
            return self.fn(arr), slope
        return on_unit_interval(both, x, active)


@dataclass(frozen=True, eq=False)
class StepFn:
    """Exact Heaviside step, 1 for x > threshold.

    Equivalence hook for tests: plugging steps into the loss must reproduce
    the exact AP. Slope is 0 everywhere (the subgradient almost everywhere).
    """

    threshold: float = 0.0

    def _step(self, arr):
        return (arr > self.threshold).astype(float)

    def eval(self, x):
        return on_unit_interval(self._step, x)

    __call__ = eval

    def slope(self, x):
        return on_unit_interval(np.zeros_like, x)

    def eval_with_slope(self, x, active):
        return on_unit_interval(lambda arr, _: (self._step(arr), np.zeros_like(arr)), x, active)


def handcrafted_substitution(kind: str):
    """Fixed substitution baselines: linear, square, sqrt, rescaled sigmoid.

    All are monotone with f(0) = 0 and f(1) = 1. The sigmoid is a logistic
    in (x - 1/2) / tau with tau = 0.25, affinely rescaled so the end points
    land exactly on 0 and 1.
    """
    if kind == "linear":
        return AnalyticFn(lambda x: x, lambda x: np.ones_like(x), "linear")
    if kind == "square":
        return AnalyticFn(lambda x: x**2, lambda x: 2.0 * x, "square")
    if kind == "sqrt":
        # slope diverges at 0; only evaluated at strictly positive inputs
        return AnalyticFn(np.sqrt, lambda x: 0.5 / np.sqrt(x), "sqrt")
    if kind == "sigmoid":
        tau = 0.25
        lo = expit(-0.5 / tau)
        hi = expit(0.5 / tau)
        span = hi - lo

        def fn(x):
            return (expit((x - 0.5) / tau) - lo) / span

        def deriv(x):
            e = expit((x - 0.5) / tau)
            return e * (1.0 - e) / (tau * span)

        return AnalyticFn(fn, deriv, "sigmoid")
    raise InvalidInputError(f"unknown substitution kind {kind!r}")


def normalize_score_diff(s_j: float, s_i: float) -> float:
    """Map a score difference into [0, 1]: clip to [-1, 1], then rescale."""
    if not (np.isfinite(s_j) and np.isfinite(s_i)):
        raise InvalidInputError("scores must be finite")
    return float((np.clip(s_j - s_i, -1.0, 1.0) + 1.0) / 2.0)


def lambda_from_theta(theta_lambda: float) -> float:
    """Gradient scale from its searched log parameterization.

    theta in (0, 1) maps to lambda = 10^(2 theta - 1) in (0.1, 10); the
    midpoint 0.5 gives the neutral scale 1.
    """
    if not (0.0 < theta_lambda < 1.0):
        raise ConstraintViolationError(
            f"theta_lambda must lie strictly inside (0, 1), got {theta_lambda}"
        )
    return float(10.0 ** (2.0 * theta_lambda - 1.0))


@dataclass(frozen=True, eq=False)
class LossParams:
    """Complete parameterization of the loss.

    Five ratio-parameterized shape functions (theta1..theta5 substitute the
    step on l_i in the first term, on d_ji in the numerator, on l_j inside
    the numerator, on d_ji in the denominator, and on l_i as the ratio's
    multiplier), the log-scale gradient multiplier theta_lambda, the segment
    count M shared by all five functions, the box measurement used for
    localization scores, and the denominator blocking flag.

    The flat vector layout is theta1..theta5 row-major ratio pairs followed
    by theta_lambda, for a total of 10 (M - 1) + 1 scalars.
    """

    theta1: RatioParams
    theta2: RatioParams
    theta3: RatioParams
    theta4: RatioParams
    theta5: RatioParams
    theta_lambda: float
    M: int = 5
    measurement: str = "giou"
    block_denominator: bool = True

    def __post_init__(self):
        check_field_types(self, InvalidInputError)
        if self.M < 1:
            raise InvalidInputError(f"M must be a positive integer, got {self.M}")
        for k, t in enumerate(self.thetas, start=1):
            if not isinstance(t, RatioParams):
                raise InvalidInputError(f"theta{k} must be RatioParams")
            if t.ratios.shape[0] != self.M - 1:
                raise InvalidInputError(
                    f"theta{k} holds {t.ratios.shape[0]} ratio pairs, expected {self.M - 1}"
                )
        lambda_from_theta(self.theta_lambda)
        if self.measurement not in MEASUREMENTS:
            raise InvalidInputError(f"unknown measurement {self.measurement!r}")

    @property
    def thetas(self) -> tuple:
        return (self.theta1, self.theta2, self.theta3, self.theta4, self.theta5)

    @property
    def dim(self) -> int:
        return 10 * (self.M - 1) + 1

    def to_flat(self) -> np.ndarray:
        parts = [t.flat() for t in self.thetas]
        parts.append(np.array([self.theta_lambda]))
        return np.concatenate(parts)

    @classmethod
    def from_flat(cls, vec, M: int = 5, measurement: str = "giou",
                  block_denominator: bool = True) -> "LossParams":
        # M sizes the slices below, so it is checked before any use
        check_value_type("M", int, M, InvalidInputError)
        v = np.asarray(vec, dtype=float).reshape(-1)
        expected = 10 * (M - 1) + 1
        if v.size != expected:
            raise InvalidInputError(
                f"flat parameter vector must have {expected} entries for M={M}, got {v.size}"
            )
        per = 2 * (M - 1)
        thetas = [RatioParams.from_flat(v[k * per:(k + 1) * per]) for k in range(5)]
        return cls(*thetas, theta_lambda=float(v[-1]), M=M,
                   measurement=measurement, block_denominator=block_denominator)

    @classmethod
    def identity(cls, M: int = 5, measurement: str = "giou",
                 block_denominator: bool = True) -> "LossParams":
        """All five functions initialized to f(x) = x, neutral lambda."""
        t = identity_params(M)
        return cls(t, t, t, t, t, theta_lambda=0.5, M=M,
                   measurement=measurement, block_denominator=block_denominator)

    def to_json_dict(self) -> dict:
        out = {f"theta{k}": t.ratios.tolist() for k, t in enumerate(self.thetas, start=1)}
        out.update(
            theta_lambda=self.theta_lambda,
            M=self.M,
            measurement=self.measurement,
            block_denominator=self.block_denominator,
        )
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "LossParams":
        keys = {f"theta{k}" for k in range(1, 6)}
        keys.update(("theta_lambda", "M", "measurement", "block_denominator"))
        unknown = set(data) - keys
        if unknown:
            raise InvalidInputError(f"unknown loss parameter keys: {sorted(unknown)}")
        missing = keys - set(data)
        if missing:
            raise InvalidInputError(f"missing loss parameter keys: {sorted(missing)}")
        thetas = [RatioParams(np.asarray(data[f"theta{k}"], dtype=float))
                  for k in range(1, 6)]
        return cls(*thetas, theta_lambda=data["theta_lambda"], M=data["M"],
                   measurement=data["measurement"],
                   block_denominator=data["block_denominator"])


def resolve_functions(params: LossParams) -> tuple:
    """Build the five shape functions from their ratio parameters."""
    return tuple(build(t, params.M) for t in params.thetas)


@dataclass(eq=False)
class LossCache:
    """Intermediates reused by the backward pass; O(N^2) in batch size.

    The masked slopes are the shape functions' slopes at d[i, j] = d_ji
    (the normalized score differences) on the entries where the clip is not
    saturated and j != i, and exactly 0.0 elsewhere.
    """

    batch: DetectionBatch
    params: LossParams
    functions: tuple
    l: np.ndarray            # (N,) localization scores
    f2d: np.ndarray          # (N, N) f2(d) with the diagonal zeroed
    f2_slope: np.ndarray     # (N, N) f2's masked slope
    f4_slope: object         # (N, N) f4's masked slope; None under blocking
    f3l: np.ndarray          # (N,)
    f5l: np.ndarray          # (N,)
    numer: np.ndarray        # (N,) n_i
    denom: np.ndarray        # (N,) m_i
    measure_grads: np.ndarray  # (P, 4) measurement gradients of the positives
    n_pos: int


@dataclass(frozen=True, eq=False)
class LossResult:
    """Loss value with analytic gradients; box rows are zero for negatives."""

    value: float
    score_grads: np.ndarray
    box_grads: np.ndarray
    positives_count: int

    def __post_init__(self):
        if not (
            np.isfinite(self.value)
            and np.all(np.isfinite(self.score_grads))
            and np.all(np.isfinite(self.box_grads))
        ):
            raise InvalidInputError("loss produced non-finite values")


def loss_forward(batch: DetectionBatch, params: LossParams, functions=None):
    """Loss value plus the cache consumed by loss_backward.

    functions overrides the five shape functions (anything with PiecewiseFn's
    eval, slope and eval_with_slope); by default they are built from params.
    Raises EmptyPositiveError when the batch has no positive prediction, so
    the trainer can skip the step instead of averaging over an empty set.
    """
    if functions is None:
        functions = resolve_functions(params)
    elif len(functions) != 5:
        raise InvalidInputError("functions override must supply exactly 5 functions")
    f1, f2, f3, f4, f5 = functions

    n_pos = batch.n_positive
    if n_pos == 0:
        raise EmptyPositiveError("loss requires at least one positive prediction")

    # loc_scores without checking the boxes again (DetectionBatch has), and
    # the measurement gradients from the same overlap pass
    pos = batch.positive_mask
    vals, measure_grads = _measure_arrays(batch.gt_boxes[batch.assignment[pos]],
                                          batch.boxes[pos], params.measurement)
    l = _scatter_loc_scores(batch, vals, params.measurement)

    s = batch.scores
    d = s[None, :] - s[:, None]  # raw s_j - s_i at [i, j], normalized in place
    # d(d_ji)/ds is +-1/2 where the clip is not saturated and j != i, else 0
    active = (d > -1.0) & (d < 1.0)
    np.fill_diagonal(active, False)
    np.clip(d, -1.0, 1.0, out=d)
    d += 1.0
    d /= 2.0

    f1l = f1.eval(l)
    f3l = f3.eval(l)
    f5l = f5.eval(l)
    f2d, f2_slope = f2.eval_with_slope(d, active)
    np.fill_diagonal(f2d, 0.0)
    if params.block_denominator:
        f4d, f4_slope = f4.eval(d), None
    else:
        f4d, f4_slope = f4.eval_with_slope(d, active)
    np.fill_diagonal(f4d, 0.0)

    numer = f2d @ (1.0 - f3l)
    denom = 1.0 + f4d.sum(axis=1)
    value = -(f1l - (numer / denom) * f5l).sum() / n_pos

    cache = LossCache(batch, params, functions, l, f2d, f2_slope, f4_slope,
                      f3l, f5l, numer, denom, measure_grads, n_pos)
    return float(value), cache


def loss_backward(cache: LossCache):
    """Analytic gradients of the cached forward pass, under its parameters.

    Returns (score_grads, box_grads) and leaves the cache as it was. The
    denominator is differentiated only when block_denominator is false; box
    gradients carry the lambda scale and are exactly zero for negative
    predictions.
    """
    params = cache.params
    f1, _, f3, _, f5 = cache.functions
    batch = cache.batch
    n_pos = cache.n_pos
    l = cache.l

    g = cache.f5l / cache.denom  # per-i ratio weight f5(l_i) / m_i

    # the masked slopes already carry d(d_ji)/ds up to its sign and 1/2
    w = cache.f2_slope * (1.0 - cache.f3l)[None, :]
    score_grads = (g @ w - g * w.sum(axis=1)) / (2.0 * n_pos)
    if not params.block_denominator:
        h = cache.f5l * cache.numer / cache.denom**2
        v = cache.f4_slope
        score_grads -= (h @ v - h * v.sum(axis=1)) / (2.0 * n_pos)

    # loss_forward builds no cache for a batch without positives
    box_grads = np.zeros_like(batch.boxes)
    pos = batch.positive_mask
    lp = l[pos]
    cross = (g @ cache.f2d)[pos]  # sum_{i != k} g_i f2(d_ki), diagonal already zero
    dsum_dl = f1.slope(lp) - (cache.numer / cache.denom)[pos] * f5.slope(lp) \
        + f3.slope(lp) * cross
    dl_dloss = -dsum_dl / n_pos
    rescale = 0.5 if params.measurement == "giou" else 1.0
    lam = lambda_from_theta(params.theta_lambda)
    box_grads[pos] = lam * (dl_dloss * rescale)[:, None] * cache.measure_grads
    return score_grads, box_grads


def loss_with_grads(batch: DetectionBatch, params: LossParams, functions=None) -> LossResult:
    """Forward and backward in one call."""
    value, cache = loss_forward(batch, params, functions)
    score_grads, box_grads = loss_backward(cache)
    return LossResult(value, score_grads, box_grads, cache.n_pos)
