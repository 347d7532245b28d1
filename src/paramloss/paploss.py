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

The outer sum runs over the positives alone: each positive is ranked
against the whole batch. That equals the sum over all N predictions,
because every shape function is pinned at f(0) = 0 and a negative has
l_i = 0, so its term f1(0) - f5(0) * (...) is exactly 0 and so is its
weight in every gradient. So the loss keeps one value per positive, and
its pairwise arrays are (P, N), one row per positive, not (N, N). The
positives' localization scores and their box gradients come from apmetric.

On a wide batch the loss forms no pairwise array at all. When f2 and f4 are
piecewise linear, every pair sum over the batch, sum_j w_j f(d_ji), is a sum
of M affine pieces, one per score interval, so sorting the scores once and
taking prefix sums of w and w s gives all P of them in O((N + P) M log N)
(_piece_sums). Below N_SORTED predictions the (P, N) arrays are faster and
are kept; they are also the only path for the other shape functions.

Two training details are part of the loss definition rather than the
trainer: the denominator sum is treated as a constant under differentiation
(gradient blocking, on by default), and gradients flowing to box coordinates
are multiplied by a scale factor lambda in (0.1, 10) searched through its
log parameterization.
"""

from dataclasses import dataclass

import numpy as np

# loc_scores and measure_grad stay importable from here, unused: the
# benchmark's per-layer table (perfbench/workloads.py) wraps these bindings
from .apmetric import DetectionBatch, _positive_loc_scores, loc_scores  # noqa: F401
from .errors import (
    ConstraintViolationError,
    EmptyPositiveError,
    InvalidInputError,
    check_field_types,
    check_value_type,
)
from .geometry import MEASUREMENTS, measure_grad  # noqa: F401
from .piecewise import PiecewiseFn, RatioParams, build, identity_params, on_unit_interval

HANDCRAFTED_KINDS = ("sigmoid", "sqrt", "linear", "square")
# a joint ranking of at least this many predictions takes the sorted path
# when f2 and f4 are piecewise; the measured crossover of the two paths'
# forward plus backward time lies between 176 and 192 predictions
N_SORTED = 192


def expit(x):
    """The logistic sigmoid 1 / (1 + exp(-x)), elementwise.

    Overflow of exp(-x) for x below about -709 gives exactly 0.0 and no
    RuntimeWarning; the detector's score and the sigmoid baseline share it.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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


def StepFn(threshold: float = 0.0) -> AnalyticFn:
    """Exact Heaviside step, 1 for x > threshold, as an AnalyticFn.

    Equivalence hook for tests: plugging steps into the loss must reproduce
    the exact AP. Slope is 0 everywhere (the subgradient almost everywhere).
    """
    return AnalyticFn(lambda x: (x > threshold).astype(float), np.zeros_like,
                      f"step-{threshold}")


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
    """Intermediates reused by the backward pass, for P positives of N.

    Per-prediction values are kept for the positives i = rows[k] alone; the
    (N,) vectors are the scores and the numerator sums' column weights.

    On the dense path (see loss_forward) the cache holds three (P, N)
    arrays, O(P·N): row k belongs to the k-th positive i = rows[k], and the
    masked slopes of f2 and f4 are their slopes at d_ji on the entries where
    the clip is not saturated and j != i, and exactly 0.0 elsewhere. On the
    sorted path it holds those slopes summed over each row instead, O(N),
    and the backward pass sums the columns from the sorted scores again.
    The masked slopes of f1, f3 and f5 are their slopes at l on the entries
    with l > 0, and exactly 0.0 elsewhere; there the loc-score gradient is 0.
    """

    scores: np.ndarray       # (N,) the ranking's classification scores
    params: LossParams
    functions: tuple         # f1..f5
    rows: np.ndarray         # (P,) indices of the positives
    l: np.ndarray            # (P,) localization scores
    col_weights: np.ndarray  # (N,) 1 - f3(l_j); 1.0 at the negatives
    f5l: np.ndarray          # (P,)
    f1l_slope: np.ndarray    # (P,) f1's masked slope at l
    f3l_slope: np.ndarray    # (P,) f3's masked slope at l
    f5l_slope: np.ndarray    # (P,) f5's masked slope at l
    numer: np.ndarray        # (P,) n_i
    denom: np.ndarray        # (P,) m_i
    loc_grads: np.ndarray    # (P, 4) gradients of l wrt the positives' boxes
    # dense path
    f2d: object = None       # (P, N) f2(d) with the self-pairs zeroed
    f2_slope: object = None  # (P, N) f2's masked slope
    f4_slope: object = None  # (P, N) f4's masked slope; None under blocking
    # sorted path
    f2_row_slope: object = None  # (P,) sum_j f2'(d_ji) (1 - f3(l_j)) over the masked pairs
    f4_row_slope: object = None  # (P,) sum_j f4'(d_ji) over them; None under blocking


def loss_forward(batch: DetectionBatch, params: LossParams, functions=None):
    """Loss value plus the cache consumed by loss_backward.

    functions overrides the five shape functions (anything with PiecewiseFn's
    eval and eval_with_slope, pinned at f(0) = 0); by default they are built
    from params. Raises EmptyPositiveError when the batch has no positive
    prediction, so the trainer can skip the step instead of averaging over
    an empty set.

    The pair sums over the batch come from one of two paths. When f2 and f4
    are both PiecewiseFn and the batch holds at least N_SORTED predictions,
    none of them scored beyond +-2^10, they are read from the scores sorted
    once (_sorted_rows); otherwise they are summed over (P, N) arrays
    (_dense_rows). The two agree within rounding; the rest of the loss is
    the same code for both.
    """
    if functions is None:
        functions = resolve_functions(params)
    elif len(functions) != 5:
        raise InvalidInputError("functions override must supply exactly 5 functions")
    rows = np.flatnonzero(batch.positive_mask)
    if rows.size == 0:
        raise EmptyPositiveError("loss requires at least one positive prediction")
    values, caches, _ = _forward([batch.scores], [rows], batch.gt_boxes[batch.assignment[rows]],
                                 batch.boxes[rows], [params], [functions],
                                 _ShapeRows([functions]))
    return values[0], caches[0]


class _ShapeRows:
    """f1, f3 and f5 of several rankings, evaluated at each positive's
    localization score with the functions of the ranking it belongs to.

    When every ranking shares one set of functions (a single ranking, or
    one override for all), each function runs once over all rows.
    Otherwise they are the PiecewiseFns of one segment count built from
    each ranking's parameters, read from knot tables stacked once: a row's
    segment is the number of its ranking's interior knots at or below it,
    and its value is (x - x_k) * slope_k + y_k, PiecewiseFn._value's
    arithmetic, so every row equals its own function's result bit for bit.
    """

    def __init__(self, functions):
        picked = [(f[0], f[2], f[4]) for f in functions]
        first = picked[0]
        self.shared = first if all(a is b for p in picked for a, b in zip(p, first)) else None
        if self.shared is not None:
            return
        fns = [fn for p in zip(*picked) for fn in p]  # f1 of every ranking, then f3, then f5
        if not (all(isinstance(fn, PiecewiseFn) for fn in fns)
                and len({fn.segments for fn in fns}) == 1):
            raise InvalidInputError("rankings with their own shape functions need "
                                    "PiecewiseFns of one segment count")
        self.count = len(functions)
        self.xs = np.stack([fn.control_points[:, 0] for fn in fns])  # (3 S, M + 1)
        self.ys = np.stack([fn.control_points[:, 1] for fn in fns])
        self.slopes = np.stack([fn.pieces()[1] for fn in fns])      # (3 S, M)

    def eval_with_slope(self, x, active, counts):
        """[(value, masked slope) of f1, of f3, of f5] at the rows x: the
        first counts[0] rows belong to ranking 0, the next counts[1] to
        ranking 1, and so on. Slopes are 0.0 off the active rows."""
        if self.shared is not None:
            return [fn.eval_with_slope(x, active) for fn in self.shared]
        ranking = np.repeat(np.arange(self.count), counts)

        def stacked(arr, mask):
            # table row of each (function, row) pair: f1, f3, f5 of its ranking
            cell = np.arange(0, 3 * self.count, self.count)[:, None] + ranking
            knots = self.xs.shape[1]
            idx = np.count_nonzero(arr[:, None] >= self.xs[cell, 1:-1], axis=2)
            at = cell * knots + idx
            slope = self.slopes.take(cell * (knots - 1) + idx)
            value = (arr - self.xs.take(at)) * slope + self.ys.take(at)
            return value, np.where(mask, slope, 0.0)

        value, slope = on_unit_interval(stacked, x, active)
        return list(zip(value, slope))


def _forward(scores, rows, gt_rows, box_rows, params, functions, shapes):
    """loss_forward of several joint rankings at once: (values, caches, rows).

    Ranking k ranks the (N,) scores[k], with the positive rows rows[k],
    loss parameters params[k] (all of one measurement) and shape functions
    functions[k]; shapes is their _ShapeRows. gt_rows and box_rows hold the
    positives' assigned ground truths and boxes, ranking after ranking. The
    positives' localization scores and f1, f3 and f5 at them are computed
    for all rankings at once, and the pair sums ranking by ranking. A
    ranking with no rows gets nan for its value and None for its cache.
    Every cache holds views of the stacked row arrays, returned as the
    third item for _box_row_grads.
    """
    counts = [r.size for r in rows]
    l, loc_grads = _positive_loc_scores(gt_rows, box_rows, params[0].measurement)
    # a slope at l = 0 may diverge (sqrt), and the loc-score gradient there
    # is 0, so it is masked out
    (f1l, f1l_slope), (f3l, f3l_slope), (f5l, f5l_slope) = shapes.eval_with_slope(
        l, l > 0.0, counts)
    values, caches = [], []
    end = 0
    for s, r, p, fns in zip(scores, rows, params, functions):
        if r.size == 0:
            values.append(np.nan)
            caches.append(None)
            continue
        part = slice(end, end + r.size)
        end += r.size
        # a negative has l = 0, so its weight is 1 - f3(0) = 1
        col_weights = np.ones_like(s)
        col_weights[r] = 1.0 - f3l[part]
        _, f2, _, f4, _ = fns
        # the sorted path's prefix sums round at the scale of max|s| (_piece_sums)
        sort = (s.size >= N_SORTED and isinstance(f2, PiecewiseFn)
                and isinstance(f4, PiecewiseFn) and np.abs(s).max() <= 2.0**10)
        pair_rows = _sorted_rows if sort else _dense_rows
        numer, denom_sums, pair_fields = pair_rows(s, r, f2, f4, col_weights,
                                                   p.block_denominator)
        denom = 1.0 + denom_sums
        values.append(float(-(f1l[part] - (numer / denom) * f5l[part]).sum() / r.size))
        caches.append(LossCache(s, p, fns, r, l[part], col_weights, f5l[part],
                                f1l_slope[part], f3l_slope[part], f5l_slope[part], numer,
                                denom, loc_grads[part], **pair_fields))
    return values, caches, (f1l_slope, f3l_slope, f5l_slope, loc_grads)


def _dense_rows(s, rows, f2, f4, weights, block):
    """(numer, denominator sums, cache fields) over the (P, N) pair arrays.

    numer_k = sum_{j != i} f2(d_ji) weights_j and the denominator sum is
    sum_{j != i} f4(d_ji), for i = rows[k].
    """
    self_pairs = (np.arange(rows.size), rows)
    d = s[None, :] - s[rows, None]  # raw s_j - s_i at [k, j], i = rows[k]; normalized in place
    # d(d_ji)/ds is +-1/2 where the clip is not saturated and j != i, else 0
    active = (d > -1.0) & (d < 1.0)
    active[self_pairs] = False
    np.clip(d, -1.0, 1.0, out=d)
    d += 1.0
    d /= 2.0

    f2d, f2_slope = f2.eval_with_slope(d, active)
    f2d[self_pairs] = 0.0
    if block:
        f4d, f4_slope = f4.eval(d), None
    else:
        f4d, f4_slope = f4.eval_with_slope(d, active)
    f4d[self_pairs] = 0.0
    return (f2d @ weights, f4d.sum(axis=1),
            {"f2d": f2d, "f2_slope": f2_slope, "f4_slope": f4_slope})


def _sorted_rows(s, rows, f2, f4, weights, block):
    """_dense_rows' sums from the scores sorted once, with the row slope
    sums that loss_backward needs kept in place of the (P, N) arrays."""
    order = np.argsort(s, kind="stable")
    points = s[order]
    numer, f2_row_slope = _piece_sums(f2, points, weights[order], s[rows], weights[rows])
    ones = np.ones_like(s)
    denom_sums, f4_row_slope = _piece_sums(f4, points, ones, s[rows], ones[rows])
    return numer, denom_sums, {"f2_row_slope": f2_row_slope,
                               "f4_row_slope": None if block else f4_row_slope}


def _piece_sums(fn, points, weights, queries, own_weights):
    """Pair sums of a PiecewiseFn over normalized score differences.

    For each query score q_a, over the points p_b (sorted ascending, with
    weights w_b) and d_ab = (clip(p_b - q_a, -1, 1) + 1) / 2, returns

        value_a = sum_b w_b fn(d_ab)
        slope_a = sum_b w_b fn'(d_ab) over the pairs with |p_b - q_a| < 1,

    each without the query's own pair: a point equal to q_a with weight
    own_weights[a] (0 for a query that is not among the points).

    On segment k, fn(d) = a_k + b_k d, so the pairs in it add
    (a_k + b_k (1 - q_a) / 2) W + (b_k / 2) S, where W and S are the sums of
    w and w p over the points between the segment's cuts q_a + (2 x_k - 1),
    read from prefix sums. Segment k holds the points in [cut_k, cut_k+1),
    which is PiecewiseFn's half-open rule. A point at or below q_a - 1 adds
    fn(0) = 0 and one at or above q_a + 1 adds fn(1) w_b = w_b; neither adds
    to the slope.

    Rounding: the prefix sums of w p reach N max|w| max|s|, and the pieces
    cancel them down to the size of the result. With B = max(1, max_k |b_k|)
    and eps = 2^-52, a value is within about N eps max|w| B max(1, max|s|)
    of the pairwise sum and a slope within about N eps max|w| B (constants
    below 10 in the tests), besides a point within eps max|s| of a cut that
    lands in the next segment. So loss_forward comes here only for
    max|s| <= 2^10; detector scores lie in (0, 1).
    """
    knots, slopes, intercepts = fn.pieces()
    cuts = queries[:, None] + (2.0 * knots - 1.0)
    idx = np.searchsorted(points, cuts, side="left")
    idx[:, 0] = np.searchsorted(points, cuts[:, 0], side="right")
    w_cum = np.concatenate(([0.0], np.cumsum(weights)))
    wp_cum = np.concatenate(([0.0], np.cumsum(weights * points)))
    w_seg = np.diff(w_cum[idx], axis=1)
    slope = w_seg @ slopes
    value = (w_seg @ intercepts + (1.0 - queries) * slope / 2.0
             + np.diff(wp_cum[idx], axis=1) @ slopes / 2.0
             + (w_cum[-1] - w_cum[idx[:, -1]]))
    # the own pair has d = 1/2, in the segment the cuts place q_a in
    own = np.count_nonzero(queries[:, None] >= cuts[:, 1:-1], axis=1)
    value -= own_weights * (intercepts + slopes / 2.0)[own]
    slope -= own_weights * slopes[own]
    return value, slope


def _ranked_grad(r, col, row, rows):
    """Gradient wrt s of sum_k r_k sum_j w[k, j] (s_j - s_i), i = rows[k],
    from the column sums col = r @ w, which it updates in place, and the row
    sums row = w.sum(axis=1)."""
    col[rows] -= r * row
    return col


def _dense_grad_sums(cache, g, h):
    """((col, row) of f2's weighted slopes, cross, (col, row) of f4's or
    None) from the cached (P, N) arrays."""
    # the masked slopes already carry d(d_ji)/ds up to its sign and 1/2
    w = cache.f2_slope * cache.col_weights[None, :]
    f4_sums = None if h is None else (h @ cache.f4_slope, cache.f4_slope.sum(axis=1))
    # sum_{i != k} g_i f2(d_ki), self-pairs already zero
    return (g @ w, w.sum(axis=1)), (g @ cache.f2d)[cache.rows], f4_sums


def _sorted_grad_sums(cache, g, h):
    """_dense_grad_sums from the sorted scores: the column sums rank each
    prediction j against the positives, which is _piece_sums on the negated
    scores, since d_ji = ((-s_i) - (-s_j) + 1) / 2."""
    rows = cache.rows
    neg = -cache.scores
    order = np.argsort(neg[rows], kind="stable")
    points = neg[rows][order]

    def columns(fn, weights):
        own = np.zeros_like(neg)
        own[rows] = weights
        return _piece_sums(fn, points, weights[order], neg, own)

    _, f2, _, f4, _ = cache.functions
    values, slopes = columns(f2, g)
    f4_sums = None if h is None else (columns(f4, h)[1], cache.f4_row_slope)
    return (cache.col_weights * slopes, cache.f2_row_slope), values[rows], f4_sums


def loss_backward(cache: LossCache):
    """Analytic gradients of the cached forward pass, under its parameters.

    Returns (score_grads, box_grads) and leaves the cache as it was. The
    denominator is differentiated only when block_denominator is false; box
    gradients carry the lambda scale and are exactly zero for negative
    predictions.
    """
    score_grads, cross = _score_grads(cache)
    # loss_forward builds no cache for a batch without positives
    box_grads = np.zeros((cache.scores.size, 4))
    box_grads[cache.rows] = _box_row_grads(
        (cache.f1l_slope, cache.f3l_slope, cache.f5l_slope, cache.loc_grads), cache.numer,
        cache.denom, cross, cache.rows.size, lambda_from_theta(cache.params.theta_lambda))
    return score_grads, box_grads


def _score_grads(cache: LossCache):
    """(score gradients, cross) of one ranking: cross_k = sum_{i != k}
    f5(l_i) / m_i f2(d_ki) is the f3 term's factor in _box_row_grads."""
    params = cache.params
    rows = cache.rows
    numer, denom, f5l = cache.numer, cache.denom, cache.f5l

    g = f5l / denom  # per-positive ratio weight f5(l_i) / m_i
    h = None if params.block_denominator else f5l * numer / denom**2
    grad_sums = _dense_grad_sums if cache.f2d is not None else _sorted_grad_sums
    f2_sums, cross, f4_sums = grad_sums(cache, g, h)
    score_grads = _ranked_grad(g, *f2_sums, rows) / (2.0 * rows.size)
    if h is not None:
        score_grads -= _ranked_grad(h, *f4_sums, rows) / (2.0 * rows.size)
    return score_grads, cross


def _box_row_grads(row_arrays, numer, denom, cross, count, lam):
    """Box gradients of the loss at the positive rows, (R, 4).

    row_arrays is (f1l_slope, f3l_slope, f5l_slope, loc_grads) at the rows;
    count (the ranking's positives) and lam (its gradient scale) are
    scalars for one ranking or (R,) and (R, 1) arrays for rows of several.
    """
    f1l_slope, f3l_slope, f5l_slope, loc_grads = row_arrays
    dsum_dl = f1l_slope - (numer / denom) * f5l_slope + f3l_slope * cross
    dl_dloss = -dsum_dl / count
    return lam * dl_dloss[:, None] * loc_grads


def _stack_grads(boxes, scores, gt_boxes, assignment, positive, params, functions, shapes,
                 lams):
    """Loss values (S,), score gradients (S, N) and box gradients (S, N, 4)
    of S joint rankings at once: ranking k ranks the predictions
    (boxes[k], scores[k]) under assignment[k] into gt_boxes, with the
    positives positive[k], params[k] (all of one measurement), functions[k]
    and gradient scale lams[k]; shapes is their _ShapeRows. A ranking
    without positives gets a nan value and zero gradients.
    """
    rows = [np.flatnonzero(p) for p in positive]
    values, caches, row_arrays = _forward(scores, rows, gt_boxes[assignment[positive]],
                                          boxes[positive], params, functions, shapes)
    score_grads = np.zeros(scores.shape)
    ranked = []
    for k, cache in enumerate(caches):
        if cache is not None:
            score_grads[k], cross = _score_grads(cache)
            ranked.append((cache.numer, cache.denom, cross))
    numer, denom, cross = (np.concatenate(parts) for parts in zip(*ranked))
    counts = np.array([r.size for r in rows])
    box_grads = np.zeros(boxes.shape)
    box_grads[positive] = _box_row_grads(row_arrays, numer, denom, cross, counts.repeat(counts),
                                         lams.repeat(counts)[:, None])
    return np.array(values), score_grads, box_grads
