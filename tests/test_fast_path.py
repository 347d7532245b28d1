"""The inner-loop fast path computes exactly what the validated path does.

PiecewiseFn finds a point's segment by counting the interior knots at or
below it, and eval_with_slope takes a function's value and its masked slope
from one such count, which loss_forward uses in place of the score
differences; train_inner builds its shape functions once per training, updates
one weight buffer in place and skips DetectionBatch's re-validation on every
step. The detector and the overlap kernels treat a box as two (x, y) corner
pairs; the references below write the same arithmetic out per coordinate.
Each test compares with a plain reference by exact equality, signed zeros
included, because outputs are kept bit-identical. The loss ranks each
positive against the batch on (P, N) arrays; it is also compared, within
rounding, with the all-rows (N, N) formula, whose negative rows add exact
zeros. From N_SORTED predictions up, piecewise f2 and f4 take the loss's
pair sums from sorted scores and prefix sums instead, which is compared with
the (P, N) reference within rounding and with finite differences.
"""

import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from paramloss import geometry, paploss
from paramloss.apmetric import DetectionBatch, loc_scores
from paramloss.errors import (
    DomainError,
    EmptyPositiveError,
    InvalidInputError,
)
from paramloss.optim import Adam
from paramloss.paploss import (
    HANDCRAFTED_KINDS,
    N_SORTED,
    LossParams,
    StepFn,
    handcrafted_substitution,
    lambda_from_theta,
    loss_backward,
    loss_forward,
    resolve_functions,
)
from paramloss.piecewise import PiecewiseFn
from paramloss.search import sample_truncnorm
from paramloss.toybench import (
    DELTA_CAP,
    HIDDEN,
    MIN_BOX_SIZE,
    DatasetConfig,
    ToyModel,
    _fit_boxes_into_unit_square,
    _merge_scenes,
    _model_apply,
    _weight_grads,
    generate,
    train_inner,
)

from loss_helpers import loss_with_grads

SMALL = DatasetConfig(scenes=30, g_max=2, anchors=10, features=6, noise=0.05, seed=3)
STEPS = 40


def _random_fn(rng, M):
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, M - 1)), [1.0]])
    ys = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, M - 1)), [1.0]])
    return PiecewiseFn(np.stack([xs, ys], axis=1))


def _probe_points(rng, fn):
    """Random points, every knot, the neighbouring floats of each, 0 and 1."""
    knots = fn.control_points[:, 0]
    return np.concatenate([rng.uniform(0.0, 1.0, 500), knots,
                           np.nextafter(knots[1:], 0.0), np.nextafter(knots[:-1], 1.0)])


@pytest.mark.parametrize("M", [1, 2, 5, 128, 129, 200, 256, 257, 300])
def test_segment_index_matches_searchsorted(M):
    # 128 and 256 segments have the most interior knots one byte counts
    rng = np.random.default_rng([M, 17])
    fn = _random_fn(rng, M)
    xs, ys = fn.control_points[:, 0], fn.control_points[:, 1]
    x = _probe_points(rng, fn)
    ref = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, M - 1)
    slopes = np.diff(ys) / np.diff(xs)
    index = fn._segment_index(x)
    assert np.array_equal(index, ref) and index.dtype == np.intp
    assert np.array_equal(fn.eval(x), ys[ref] + slopes[ref] * (x - xs[ref]))
    assert np.array_equal(fn.slope(x), slopes[ref])
    for point, k in ((0.0, 0), (1.0, M - 1)):
        assert fn.eval(point) == point
        assert fn.slope(point) == slopes[k]


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


SEGMENT_COUNTS = [1, 2, 5, 128, 129, 200, 256, 257, 300]


def _shape_functions():
    """(id, function, points) for every kind of shape function the loss takes."""
    cases = []
    for M in SEGMENT_COUNTS:
        rng = np.random.default_rng([M, 23])
        fn = _random_fn(rng, M)
        cases.append((f"piecewise-M{M}", fn, _probe_points(rng, fn)))
    rng = np.random.default_rng(24)
    points = np.concatenate([rng.uniform(0.0, 1.0, 500), [0.0, 0.25, 0.5, 1.0]])
    for kind in HANDCRAFTED_KINDS:
        cases.append((kind, handcrafted_substitution(kind), points))
    for threshold in (0.0, 0.5):
        cases.append((f"step-{threshold}", StepFn(threshold), points))
    return cases


@pytest.mark.parametrize("fn, x", [case[1:] for case in _shape_functions()],
                         ids=[case[0] for case in _shape_functions()])
def test_eval_with_slope_matches_eval_and_slope(fn, x):
    rng = np.random.default_rng(x.size)
    active = rng.uniform(size=x.shape) < 0.7
    active[x == 0.0] = False  # sqrt's slope is unbounded there
    expected_slope = np.zeros_like(x)
    expected_slope[active] = fn.slope(x[active])
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        value, slope = fn.eval_with_slope(x, active)
    _assert_same_bits(value, fn.eval(x))
    _assert_same_bits(slope, expected_slope)
    assert np.all(slope[~active] == 0.0) and not np.any(np.signbit(slope[~active]))
    # 2-d, as the loss calls it
    value2, slope2 = fn.eval_with_slope(x[:500].reshape(20, 25), active[:500].reshape(20, 25))
    _assert_same_bits(value2, value[:500].reshape(20, 25))
    _assert_same_bits(slope2, slope[:500].reshape(20, 25))
    # a scalar or 0-d point gives floats, a 1-d point an array
    for point in (0.25, np.float64(1.0), np.asarray(0.5)):
        for on in (True, False, np.asarray(True)):
            pair = fn.eval_with_slope(point, on)
            assert all(type(v) is float for v in pair)
            assert pair == (fn.eval(point), fn.slope(point) if on else 0.0)
    value1, slope1 = fn.eval_with_slope(np.array([0.75]), np.array([True]))
    assert value1.shape == slope1.shape == (1,)
    # the eval/slope domain errors, and a mask of another shape
    for bad, message in ((1.5, "outside [0, 1]"), (-0.1, "outside [0, 1]"),
                         (np.nan, "must be finite"), (np.array([0.5, np.inf]), "must be finite")):
        with pytest.raises(DomainError, match=re.escape(message)):
            fn.eval_with_slope(bad, np.ones(np.shape(bad), dtype=bool))
    with pytest.raises(InvalidInputError, match="active mask has shape"):
        fn.eval_with_slope(x, active[:-1])


def _reference_decode(model, features, anchors):
    """_model_apply written out per axis: (boxes, scores, cache)."""
    u = np.tanh(features @ model.w1 + model.b1)
    out = u @ model.w2 + model.b2
    scores = paploss.expit(out[:, 0])
    corners, axes = {}, []
    for lo_col, hi_col, move, size in ((0, 2, out[:, 1], out[:, 3]),
                                       (1, 3, out[:, 2], out[:, 4])):
        extent = anchors[:, hi_col] - anchors[:, lo_col]
        exp_size = np.exp(np.clip(size, -DELTA_CAP, DELTA_CAP))
        raw = extent * exp_size
        grow_half = (np.clip(raw, MIN_BOX_SIZE, 1.0) - extent) / 2.0
        lo = anchors[:, lo_col] + move * extent - grow_half
        hi = anchors[:, hi_col] + move * extent + grow_half
        shift = np.maximum(0.0, -lo) - np.maximum(0.0, hi - 1.0)
        corners[lo_col], corners[hi_col] = lo + shift, hi + shift
        axes.append({"extent": extent, "exp_size": exp_size, "raw": raw,
                     "size_act": (raw > MIN_BOX_SIZE) & (raw < 1.0),
                     "cap_act": np.abs(size) < DELTA_CAP,
                     "out_lo": lo < 0.0, "out_hi": hi > 1.0})
    boxes = np.stack([corners[k] for k in range(4)], axis=1)
    return boxes, scores, (features, u, scores, axes)


def _reference_backprop(model, cache, score_grads, box_grads):
    """_weight_grads written out per axis."""
    features, u, scores, axes = cache
    moves, sizes = [], []
    for (lo_col, hi_col), ax in zip(((0, 2), (1, 3)), axes):
        g_lo, g_hi = box_grads[:, lo_col], box_grads[:, hi_col]
        lo_out, hi_out = ax["out_lo"].astype(float), ax["out_hi"].astype(float)
        d_lo = g_lo * (1.0 - lo_out) - g_hi * lo_out
        d_hi = g_hi * (1.0 - hi_out) - g_lo * hi_out
        moves.append((d_lo + d_hi) * ax["extent"])
        sizes.append((d_hi - d_lo) / 2.0 * ax["extent"] * ax["exp_size"]
                     * ax["size_act"] * ax["cap_act"])
    g_logit = score_grads * scores * (1.0 - scores)
    out_grad = np.stack([g_logit, *moves, *sizes], axis=1)
    g_hidden = (out_grad @ model.w2.T) * (1.0 - u**2)
    return np.concatenate([(features.T @ g_hidden).ravel(), g_hidden.sum(axis=0),
                           (u.T @ out_grad).ravel(), out_grad.sum(axis=0)])


def _reference_overlap(a, b):
    """geometry._overlap_arrays written out per coordinate."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = ((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
             + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter)
    cw = np.maximum(a[..., 2], b[..., 2]) - np.minimum(a[..., 0], b[..., 0])
    ch = np.maximum(a[..., 3], b[..., 3]) - np.minimum(a[..., 1], b[..., 1])
    hull = cw * ch
    iou = inter / union
    return iou, iou - (hull - union) / hull, (iw, ih, inter, union, cw, ch, hull)


def _reference_measure_grad(a, b, kind):
    """geometry._measure_grad_arrays for iou and giou, per coordinate."""
    ax1, ay1, ax2, ay2 = (a[..., i] for i in range(4))
    bx1, by1, bx2, by2 = (b[..., i] for i in range(4))
    _, _, (iw, ih, inter, union, cw, ch, hull) = _reference_overlap(a, b)
    mx1, my1 = (bx1 >= ax1).astype(float), (by1 >= ay1).astype(float)
    mx2, my2 = (bx2 < ax2).astype(float), (by2 < ay2).astype(float)
    act = ((iw > 0.0) & (ih > 0.0)).astype(float)
    d_inter = np.stack([-mx1 * ih * act, -my1 * iw * act, mx2 * ih * act, my2 * iw * act],
                       axis=-1)
    bw, bh = bx2 - bx1, by2 - by1
    d_union = np.stack([-bh, -bw, bh, bw], axis=-1) - d_inter
    d_iou = (d_inter * union[..., None] - inter[..., None] * d_union) / union[..., None] ** 2
    if kind == "iou":
        return d_iou
    nx1, ny1 = (bx1 < ax1).astype(float), (by1 < ay1).astype(float)
    nx2, ny2 = (bx2 >= ax2).astype(float), (by2 >= ay2).astype(float)
    d_hull = np.stack([-nx1 * ch, -ny1 * cw, nx2 * ch, ny2 * cw], axis=-1)
    return d_iou + d_union / hull[..., None] - (union / hull**2)[..., None] * d_hull


def _reference_fit(boxes):
    """_fit_boxes_into_unit_square written out per axis."""
    out = boxes.copy()
    out[:, 2] = np.maximum(out[:, 2], out[:, 0] + MIN_BOX_SIZE)
    out[:, 3] = np.maximum(out[:, 3], out[:, 1] + MIN_BOX_SIZE)
    for lo, hi in ((0, 2), (1, 3)):
        out[:, hi] = out[:, lo] + np.minimum(out[:, hi] - out[:, lo], 1.0)
        shift = np.maximum(0.0, -out[:, lo]) - np.maximum(0.0, out[:, hi] - 1.0)
        out[:, lo] += shift
        out[:, hi] += shift
    return out


def _box_pairs(rng, n):
    """Random pairs plus disjoint, touching, coincident-edge and identical ones."""
    lo = rng.uniform(-0.2, 1.0, (n, 2)).round(1)
    a = np.concatenate([lo, lo + rng.uniform(0.1, 0.5, (n, 2)).round(1)], axis=1)
    b = np.concatenate([lo[::-1], lo[::-1] + rng.uniform(0.1, 0.5, (n, 2)).round(1)], axis=1)
    k = n // 5
    b[:k] = a[:k]                                           # identical
    b[k:2 * k, 0] = a[k:2 * k, 2]                           # touching in x
    b[k:2 * k, 2] = a[k:2 * k, 2] + 0.1
    b[2 * k:3 * k, 1::2] = a[2 * k:3 * k, 1::2]             # coincident y edges
    b[3 * k:4 * k, :2] = a[3 * k:4 * k, 2:] + 0.2           # disjoint on both axes
    b[3 * k:4 * k, 2:] = b[3 * k:4 * k, :2] + 0.1
    return a, b


def test_overlap_kernels_match_per_coordinate_reference():
    rng = np.random.default_rng(31)
    a, b = _box_pairs(rng, 2000)
    iw, ih = _reference_overlap(a, b)[2][:2]
    # the seeded pairs reach every tie and sign the kernels distinguish
    assert np.any(iw < 0.0) and np.any(iw == 0.0) and np.any(ih == 0.0)
    assert np.any(np.all(a == b, axis=1)) and np.any(a[:, 3] == b[:, 3])
    for pred, gt in ((a, b), (b, a)):
        iou, giou, _ = _reference_overlap(gt, pred)
        _assert_same_bits(geometry.measure(pred, gt, "iou"), iou)
        _assert_same_bits(geometry.measure(pred, gt, "giou"), giou)
        for kind in ("iou", "giou"):
            _assert_same_bits(geometry.measure_grad(pred, gt, kind),
                              _reference_measure_grad(gt, pred, kind))
    _assert_same_bits(geometry.pairwise_iou(a[:60], b[:80]),
                      _reference_overlap(a[:60, None, :], b[None, :80, :])[0])
    assert np.any(np.signbit(_reference_measure_grad(b, a, "iou")))


def test_box_fit_matches_per_axis_reference():
    rng = np.random.default_rng(32)
    boxes = rng.uniform(-0.5, 1.5, (600, 4))
    boxes[:200, 2:] = boxes[:200, :2] + rng.uniform(-0.1, 0.01, (200, 2))  # below min size
    boxes[200:300, 2:] = boxes[200:300, :2] + 1.5                           # wider than 1
    fitted = _fit_boxes_into_unit_square(boxes)
    _assert_same_bits(fitted, _reference_fit(boxes))
    # shifts on each end, both in x and in y
    assert np.all(np.any(boxes[:, :2] < 0.0, axis=0)) and np.all(np.any(boxes[:, 2:] > 1.0, axis=0))


@pytest.mark.parametrize("scale", [0.0, 1.0, 30.0])
def test_decode_and_backprop_match_per_axis_reference(scale):
    train, _ = generate(SMALL)
    _, (feats, anchors, _, _) = _merge_scenes(train)
    base = ToyModel.init(feats.shape[1], HIDDEN, 4)
    rng = np.random.default_rng([5, int(scale)])
    model = base.with_vector(base.to_vector() + rng.normal(0.0, scale, base.to_vector().size))
    boxes, scores, cache = _model_apply(model, feats, anchors)
    ref_boxes, ref_scores, ref_cache = _reference_decode(model, feats, anchors)
    _assert_same_bits(boxes, ref_boxes)
    _assert_same_bits(scores, ref_scores)
    score_grads = rng.normal(size=scores.shape)
    box_grads = rng.normal(size=boxes.shape)
    box_grads[::7] = 0.0
    _assert_same_bits(_weight_grads(model, cache, score_grads, box_grads),
                      _reference_backprop(model, ref_cache, score_grads, box_grads))
    if scale == 30.0:
        # large weights reach the delta cap, both size clips and both shifts
        axes = ref_cache[3]
        assert not all(np.all(ax["cap_act"]) for ax in axes)
        assert any(np.any(ax["raw"] < MIN_BOX_SIZE) for ax in axes)
        assert any(np.any(ax["raw"] > 1.0) for ax in axes)
        assert any(np.any(ax["out_lo"]) for ax in axes)
        assert any(np.any(ax["out_hi"]) for ax in axes)


def _reference_train(params, train_set, steps, seed, functions=None,
                     batch_scenes=8, lr=0.02):
    """train_inner's weights, step for step, through the public path: a
    checked DetectionBatch, one loss_forward and loss_backward per step, a
    model rebuilt from the weights each step and the per-axis detector."""
    model = ToyModel.init(train_set[0].features.shape[1], HIDDEN, seed)
    shuffle_rng = np.random.default_rng([seed, 733])
    order = []
    opt = Adam(model.to_vector().size)
    weights = model.to_vector()
    for step in range(steps):
        if len(order) < batch_scenes:
            order = list(shuffle_rng.permutation(len(train_set)))
        picked = [train_set[i] for i in order[:batch_scenes]]
        order = order[batch_scenes:]
        model = model.with_vector(weights)
        _, (feats, anchors, gts, assignment) = _merge_scenes(picked)
        boxes, scores, cache = _reference_decode(model, feats, anchors)
        try:
            _, loss_cache = loss_forward(DetectionBatch(boxes, scores, gts, assignment),
                                         params, functions)
        except EmptyPositiveError:
            continue
        score_grads, box_grads = loss_backward(loss_cache)
        grad = _reference_backprop(model, cache, score_grads, box_grads)
        weights = opt.step(weights, grad, lr=lr * (1.0 - step / steps))
    return weights


def _sampled_params(seed, **kwargs):
    mu = LossParams.identity().to_flat()
    return LossParams.from_flat(sample_truncnorm(mu, 0.2, np.random.default_rng([seed, 5])),
                                **kwargs)


@pytest.mark.parametrize("params, functions", [
    (LossParams.identity(), None),
    (LossParams.identity(block_denominator=False), None),
    (_sampled_params(1), None),
    (_sampled_params(2, measurement="iou", block_denominator=False), None),
    (_sampled_params(3, measurement="l1"), None),
    (LossParams.identity(), tuple(handcrafted_substitution("sigmoid") for _ in range(5))),
], ids=["identity", "identity-unblocked", "sampled-giou", "sampled-iou-unblocked",
        "sampled-l1", "sigmoid-override"])
def test_train_inner_matches_validated_reference(params, functions):
    train, _ = generate(SMALL)
    model = train_inner(params, train, STEPS, seed=11, functions=functions)
    reference = _reference_train(params, train, STEPS, seed=11, functions=functions)
    assert np.array_equal(model.to_vector(), reference)


@pytest.mark.parametrize("batch_scenes", [5, 8])
def test_train_inner_on_ragged_scenes_matches_reference(batch_scenes):
    # scenes of 16 anchors and 1-4 ground truths: each step gathers its rows
    # from the train set stacked once, where the reference merges the picked
    # scenes and their ground truths again
    train = generate(DatasetConfig(scenes=30, g_max=4, anchors=16, features=6, seed=8))[0]
    assert {len(s.gt_boxes) for s in train} == {1, 2, 3, 4}
    params = LossParams.identity(block_denominator=False)
    model = train_inner(params, train, STEPS, seed=12, batch_scenes=batch_scenes)
    reference = _reference_train(params, train, STEPS, seed=12, batch_scenes=batch_scenes)
    assert np.array_equal(model.to_vector(), reference)


def _reference_loss(batch, params, functions=None):
    """loss_forward and loss_backward as formulas on the (P, N) score-difference
    array of the positive rows: the clip mask and the zeroed self-pairs as
    products, slopes gathered at the active entries and scattered back, and
    the positives' boxes measured by loc_scores and measured again by
    measure_grad."""
    f1, f2, f3, f4, f5 = functions or resolve_functions(params)
    n_pos = batch.n_positive
    pos = batch.positive_mask
    rows = np.flatnonzero(pos)
    l = loc_scores(batch, params.measurement)
    s = batch.scores
    raw = s[None, :] - s[rows, None]
    d = (np.clip(raw, -1.0, 1.0) + 1.0) / 2.0
    other = np.ones(raw.shape, dtype=bool)
    other[np.arange(n_pos), rows] = False
    active = (np.abs(raw) < 1.0) & other
    f1l, f3l, f5l = f1.eval(l), f3.eval(l), f5.eval(l)
    f2d = f2.eval(d) * other
    f4d = f4.eval(d) * other
    numer = f2d @ (1.0 - f3l)
    denom = 1.0 + f4d.sum(axis=1)
    value = -(f1l[pos] - (numer / denom) * f5l[pos]).sum() / n_pos

    def scattered(values, mask, fn):
        out = np.zeros_like(values)
        out[mask] = fn.slope(values[mask])
        return out

    def ranked(r, w):
        full = np.zeros_like(s)
        full[pos] = r * w.sum(axis=1)
        return r @ w - full

    g = f5l[pos] / denom
    w = scattered(d, active, f2) * (1.0 - f3l)[None, :]
    score_grads = ranked(g, w) / (2.0 * n_pos)
    if not params.block_denominator:
        h = f5l[pos] * numer / denom**2
        score_grads -= ranked(h, scattered(d, active, f4)) / (2.0 * n_pos)
    lp = l[pos]
    cross = (g @ f2d)[pos]
    dsum_dl = (scattered(lp, lp > 0.0, f1) - (numer / denom) * scattered(lp, lp > 0.0, f5)
               + scattered(lp, lp > 0.0, f3) * cross)
    rescale = 0.5 if params.measurement == "giou" else 1.0
    mg = geometry.measure_grad(batch.boxes[pos], batch.gt_boxes[batch.assignment[pos]],
                               params.measurement)
    box_grads = np.zeros_like(batch.boxes)
    box_grads[pos] = (lambda_from_theta(params.theta_lambda)
                      * (-dsum_dl / n_pos * rescale)[:, None] * mg)
    return float(value), score_grads, box_grads


def _all_rows_reference_loss(batch, params, functions=None):
    """The loss as formulas on the whole (N, N) score-difference array: the
    outer sum over all N predictions, with negatives weighted by f5(0) = 0."""
    f1, f2, f3, f4, f5 = functions or resolve_functions(params)
    n_pos = batch.n_positive
    l = loc_scores(batch, params.measurement)
    s = batch.scores
    raw = s[None, :] - s[:, None]
    d = (np.clip(raw, -1.0, 1.0) + 1.0) / 2.0
    offdiag = ~np.eye(s.shape[0], dtype=bool)
    active = (np.abs(raw) < 1.0) & offdiag
    f1l, f3l, f5l = f1.eval(l), f3.eval(l), f5.eval(l)
    f2d = f2.eval(d) * offdiag
    f4d = f4.eval(d) * offdiag
    numer = f2d @ (1.0 - f3l)
    denom = 1.0 + f4d.sum(axis=1)
    value = -(f1l - (numer / denom) * f5l).sum() / n_pos

    g = f5l / denom
    w = np.zeros_like(d)
    w[active] = f2.slope(d[active])
    w *= (1.0 - f3l)[None, :]
    score_grads = (g @ w - g * w.sum(axis=1)) / (2.0 * n_pos)
    if not params.block_denominator:
        h = f5l * numer / denom**2
        v = np.zeros_like(d)
        v[active] = f4.slope(d[active])
        score_grads -= (h @ v - h * v.sum(axis=1)) / (2.0 * n_pos)
    pos = batch.positive_mask
    lp = l[pos]
    cross = (g @ f2d)[pos]
    dsum_dl = f1.slope(lp) - (numer / denom)[pos] * f5.slope(lp) + f3.slope(lp) * cross
    rescale = 0.5 if params.measurement == "giou" else 1.0
    mg = geometry.measure_grad(batch.boxes[pos], batch.gt_boxes[batch.assignment[pos]],
                               params.measurement)
    box_grads = np.zeros_like(batch.boxes)
    box_grads[pos] = (lambda_from_theta(params.theta_lambda)
                      * (-dsum_dl / n_pos * rescale)[:, None] * mg)
    return float(value), score_grads, box_grads


def _saturated_batch(seed):
    """A detector batch whose scores include exact 0s and 1s, so some
    normalized score differences are exactly 0 and 1 (a saturated clip)."""
    train, _ = generate(SMALL)
    _, (feats, anchors, gts, assignment) = _merge_scenes(train[:8])
    base = ToyModel.init(feats.shape[1], HIDDEN, seed)
    rng = np.random.default_rng([seed, 41])
    # small weights keep every positive overlapping its ground truth, where
    # sqrt's slope at the localization score is bounded even unmasked, as
    # the all-rows formula takes it
    model = base.with_vector(base.to_vector() + rng.normal(0.0, 0.05, base.to_vector().size))
    boxes, scores, _ = _model_apply(model, feats, anchors)
    scores[rng.choice(scores.size, 10, replace=False)] = [0.0] * 5 + [1.0] * 5
    batch = DetectionBatch(boxes, scores, gts, assignment)
    assert batch.n_positive > 0
    assert np.all(geometry.measure(boxes[batch.positive_mask],
                                   gts[assignment[batch.positive_mask]], "iou") > 0.0)
    return batch


# the exact Heaviside hooks: the step sits at 0 for localization inputs and
# at 0.5 for normalized score differences
OVERRIDES = {"sampled": None,
             "sigmoid": tuple(handcrafted_substitution("sigmoid") for _ in range(5)),
             "sqrt": tuple(handcrafted_substitution("sqrt") for _ in range(5)),
             "step": (StepFn(0.0), StepFn(0.5), StepFn(0.0), StepFn(0.5), StepFn(0.0))}

loss_cases = pytest.mark.parametrize("override, measurement, block", [
    (override, measurement, block)
    for override in sorted(OVERRIDES) for measurement in ("giou", "iou", "l1")
    for block in (True, False)
], ids=lambda v: {True: "blocked", False: "unblocked"}.get(v, v))


def _loss(batch, params, functions):
    value, cache = loss_forward(batch, params, functions)
    return (value, *loss_backward(cache))


def _spy(monkeypatch, name):
    """[(args, result)] of every call to paploss.<name>, which still runs."""
    calls = []
    original = getattr(paploss, name)

    def spy(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(paploss, name, spy)
    return calls


@loss_cases
def test_loss_matches_whole_array_reference(override, measurement, block):
    params = _sampled_params(7, measurement=measurement, block_denominator=block)
    functions = OVERRIDES[override]
    batch = _saturated_batch(3)
    value, score_grads, box_grads = _loss(batch, params, functions)
    ref_value, ref_score_grads, ref_box_grads = _reference_loss(batch, params, functions)
    assert value == ref_value
    _assert_same_bits(score_grads, ref_score_grads)
    _assert_same_bits(box_grads, ref_box_grads)


@loss_cases
def test_loss_matches_all_rows_formula(override, measurement, block):
    # summing over the positive rows rounds differently from summing over
    # all N rows, where the negatives add exact zeros
    params = _sampled_params(7, measurement=measurement, block_denominator=block)
    functions = OVERRIDES[override]
    batch = _saturated_batch(3)
    got = _loss(batch, params, functions)
    for actual, expected in zip(got, _all_rows_reference_loss(batch, params, functions)):
        assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("block", [True, False], ids=["blocked", "unblocked"])
def test_cache_holds_positive_rows(block, monkeypatch):
    batch = _saturated_batch(3)
    n, p = batch.scores.size, batch.n_positive
    assert 0 < p < n
    params = _sampled_params(7, block_denominator=block)
    calls = _spy(monkeypatch, "_dense_rows")
    _, cache = loss_forward(batch, params)
    rows = np.flatnonzero(batch.positive_mask)
    assert np.array_equal(cache.rows, rows)
    shapes = {f.name: getattr(cache, f.name).shape for f in fields(cache)}
    assert shapes == {"rows": (p,), "numer": (p,), "denom": (p,), "score_grads": (n,),
                      "box_grads": (n, 4)}
    assert np.all(cache.numer > 0.0) and np.all(cache.denom > 1.0)
    # the (P, N) pair arrays rank the positive rows, under the column
    # weights 1 - f3(l_j): 1 - f3(0) at every negative, exactly
    ((_, got_rows, _, _, weights, f5l, got_block), _), = calls
    assert np.array_equal(got_rows, rows) and got_block == block
    l = loc_scores(batch, params.measurement)[rows]
    assert weights.shape == (n,)
    assert np.all(weights[~batch.positive_mask] == 1.0)
    assert np.array_equal(weights[rows], 1.0 - params.functions[2].eval(l))
    assert np.array_equal(f5l, params.functions[4].eval(l))


@pytest.mark.parametrize("measurement", ["iou", "giou", "l1"])
def test_loc_scores_and_gradients_are_the_rescaled_measurement(measurement, monkeypatch):
    # GIoU in [-1, 1] is mapped through (g + 1) / 2, which halves its gradient
    good = _saturated_batch(3)
    boxes = good.boxes.copy()
    boxes[np.flatnonzero(good.positive_mask)[0]] += 5.0  # a disjoint positive
    batch = DetectionBatch(boxes, good.scores, good.gt_boxes, good.assignment)
    pos = batch.positive_mask
    pred, gt = batch.boxes[pos], batch.gt_boxes[batch.assignment[pos]]
    vals = geometry.measure(pred, gt, measurement)
    grads = geometry.measure_grad(pred, gt, measurement)
    if measurement == "giou":
        vals, grads = (vals + 1.0) / 2.0, grads * 0.5
    want = np.zeros(pos.size)
    want[pos] = vals
    _assert_same_bits(loc_scores(batch, measurement), want)
    calls = _spy(monkeypatch, "_positive_loc_scores")
    loss_forward(batch, _sampled_params(7, measurement=measurement))
    (_, (l, loc_grads)), = calls
    _assert_same_bits(l, vals)
    _assert_same_bits(loc_grads, grads)


def test_sqrt_slope_never_sees_a_saturated_clip():
    batch = _saturated_batch(5)
    raw = batch.scores[None, :] - batch.scores[:, None]
    assert np.any(raw == 1.0) and np.any(raw == -1.0)  # d is exactly 1 and 0
    sqrt = tuple(handcrafted_substitution("sqrt") for _ in range(5))
    params = LossParams.identity(block_denominator=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, cache = loss_forward(batch, params, sqrt)
        score_grads, box_grads = loss_backward(cache)
    assert np.all(np.isfinite(score_grads)) and np.all(np.isfinite(box_grads))
    assert np.any(score_grads != 0.0)


@pytest.mark.parametrize("measurement", ["iou", "l1"])
def test_sqrt_slope_never_sees_a_disjoint_positive(measurement):
    # a positive moved off its ground truth has l = 0, where sqrt's slope is
    # unbounded; its measurement gradient is exactly 0
    good = _saturated_batch(3)
    k = np.flatnonzero(good.positive_mask)[0]
    boxes = good.boxes.copy()
    boxes[k] += 5.0
    batch = DetectionBatch(boxes, good.scores, good.gt_boxes, good.assignment)
    l = loc_scores(batch, measurement)
    assert l[k] == 0.0 and np.count_nonzero(l[batch.positive_mask]) == batch.n_positive - 1
    sqrt = tuple(handcrafted_substitution("sqrt") for _ in range(5))
    for block in (True, False):
        params = LossParams.identity(measurement=measurement, block_denominator=block)
        # loss_with_grads rejects a NaN or inf value or gradient
        result = loss_with_grads(batch, params, sqrt)
        assert np.all(result.box_grads[k] == 0.0)
        assert np.any(result.box_grads[batch.positive_mask] != 0.0)


def test_train_inner_builds_shape_functions_once(monkeypatch):
    calls = []
    original = paploss.build

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(paploss, "build", counted)
    train, _ = generate(SMALL)
    train_inner(LossParams.identity(), train, STEPS, seed=0)
    assert len(calls) == 5


def test_train_inner_builds_the_model_once(monkeypatch):
    calls = []
    original = ToyModel.with_vector

    def counted(self, vec):
        calls.append(vec)
        return original(self, vec)

    monkeypatch.setattr(ToyModel, "with_vector", counted)
    train, _ = generate(SMALL)
    model = train_inner(LossParams.identity(), train, STEPS, seed=0)
    assert len(calls) == 1
    # the trained model's arrays are views of that one weight buffer
    assert all(np.shares_memory(arr, calls[0]) for arr in (model.w1, model.b1, model.w2, model.b2))


# 64 training scenes of 16 anchors: batches of 16 to 64 scenes hold 256 to
# 1024 predictions, all at or above N_SORTED
WIDE = DatasetConfig(scenes=80, g_max=3, anchors=16, features=6, noise=0.05, seed=9)
SCORE_KINDS = ("detector", "ties", "zero-one", "zero-two")


def _wide_batch(seed, scenes, scores_kind, size=None):
    """A detector batch of the first `scenes` WIDE scenes, cut to `size`
    predictions, with its scores as the detector gives them, on a grid of
    nine values (many exact ties), a third set to exactly 0 or 1, or drawn
    from (0, 2)."""
    train, _ = generate(WIDE)
    _, (feats, anchors, gts, assignment) = _merge_scenes(train[:scenes])
    base = ToyModel.init(feats.shape[1], HIDDEN, seed)
    rng = np.random.default_rng([seed, 43])
    model = base.with_vector(base.to_vector() + rng.normal(0.0, 0.3, base.to_vector().size))
    boxes, scores, _ = _model_apply(model, feats, anchors)
    if scores_kind == "ties":
        scores = np.round(scores * 8.0) / 8.0
    elif scores_kind == "zero-one":
        picked = rng.choice(scores.size, scores.size // 3, replace=False)
        scores[picked] = rng.choice([0.0, 1.0], picked.size)
    elif scores_kind == "zero-two":
        scores = rng.uniform(0.0, 2.0, scores.size)
    size = size or scores.size
    return DetectionBatch(boxes[:size], scores[:size], gts, assignment[:size])


def _value_scale(batch, params, functions, cache):
    """The largest per-positive term of the loss, a mean that may cancel
    to far below its terms: the value rounds relative to this."""
    f1, _, _, _, f5 = functions or params.functions
    l = loc_scores(batch, params.measurement)[cache.rows]
    ratio = cache.numer / cache.denom * f5.eval(l)
    return max(np.max(np.abs(f1.eval(l))), np.max(np.abs(ratio)))


def _assert_sorted_matches_reference(batch, params, functions=None):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _spy(monkeypatch, "_sorted_rows")
        value, cache = loss_forward(batch, params, functions)
    assert len(calls) == 1
    score_grads, box_grads = loss_backward(cache)
    ref_value, ref_score_grads, ref_box_grads = _reference_loss(batch, params, functions)
    scale = _value_scale(batch, params, functions, cache)
    assert abs(value - ref_value) <= 1e-13 * max(abs(ref_value), scale)
    for actual, expected in ((score_grads, ref_score_grads), (box_grads, ref_box_grads)):
        assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(np.abs(expected))


def _pair_counts(batch):
    """(saturated pairs, tied pairs) among the positive rows, self-pairs aside."""
    rows = np.flatnonzero(batch.positive_mask)
    raw = batch.scores[None, :] - batch.scores[rows, None]
    raw[np.arange(rows.size), rows] = 0.5
    return np.count_nonzero(np.abs(raw) >= 1.0), np.count_nonzero(raw == 0.0)


@pytest.mark.parametrize("scores_kind", SCORE_KINDS)
@pytest.mark.parametrize("measurement", ["giou", "iou", "l1"])
@pytest.mark.parametrize("block", [True, False], ids=["blocked", "unblocked"])
def test_sorted_path_matches_reference(scores_kind, measurement, block):
    k = SCORE_KINDS.index(scores_kind)
    batch = _wide_batch(k + 1, (16, 32, 64, 24)[k], scores_kind)
    saturated, ties = _pair_counts(batch)
    # the batches reach the cases the cut rules tell apart
    assert (saturated > 0) == (scores_kind in ("zero-one", "zero-two"))
    assert ties > 0 or scores_kind in ("detector", "zero-two")
    params = _sampled_params(11 + k, measurement=measurement, block_denominator=block)
    _assert_sorted_matches_reference(batch, params)


@pytest.mark.parametrize("scores_kind", SCORE_KINDS)
@pytest.mark.parametrize("M", [1, 2, 5, 9])
@pytest.mark.parametrize("block", [True, False], ids=["blocked", "unblocked"])
def test_sorted_path_matches_reference_on_random_functions(scores_kind, M, block):
    rng = np.random.default_rng([M, 47])
    functions = tuple(_random_fn(rng, M) for _ in range(5))
    k = SCORE_KINDS.index(scores_kind)
    batch = _wide_batch(M + k, (64, 16, 32, 24)[k], scores_kind)
    params = _sampled_params(M, block_denominator=block)
    _assert_sorted_matches_reference(batch, params, functions)


def test_sorted_path_gradients_match_finite_differences(monkeypatch):
    # unblocked and lambda = 1, so the gradients are those of the value
    flat = _sampled_params(13).to_flat()
    flat[-1] = 0.5
    params = LossParams.from_flat(flat, block_denominator=False)
    batch = _wide_batch(3, 16, "detector")
    assert batch.scores.size >= N_SORTED
    calls = _spy(monkeypatch, "_sorted_rows")
    _, cache = loss_forward(batch, params)
    assert len(calls) == 1
    score_grads, box_grads = loss_backward(cache)
    rng = np.random.default_rng(53)
    eps = 1e-7

    def central(scores, boxes):
        def at(sign):
            b = DetectionBatch(batch.boxes + sign * boxes, batch.scores + sign * scores,
                               batch.gt_boxes, batch.assignment)
            return loss_forward(b, params)[0]
        return (at(1.0) - at(-1.0)) / (2.0 * eps)

    rows = np.flatnonzero(batch.positive_mask)
    negatives = np.flatnonzero(~batch.positive_mask)
    for j in np.concatenate([rng.choice(rows, 8, replace=False),
                             rng.choice(negatives, 8, replace=False)]):
        step = np.zeros_like(batch.scores)
        step[j] = eps
        fd = central(step, np.zeros_like(batch.boxes))
        assert abs(fd - score_grads[j]) <= 1e-6 * np.max(np.abs(score_grads))
    for j in rng.choice(rows, 6, replace=False):
        for c in range(4):
            step = np.zeros_like(batch.boxes)
            step[j, c] = eps
            fd = central(np.zeros_like(batch.scores), step)
            assert abs(fd - box_grads[j, c]) <= 1e-6 * np.max(np.abs(box_grads))
    assert np.all(box_grads[negatives] == 0.0)


@pytest.mark.parametrize("scenes", [8, 64], ids=["N128", "N1024"])
@pytest.mark.parametrize("block", [True, False], ids=["blocked", "unblocked"])
def test_stacked_rankings_equal_one_ranking_calls(scenes, block):
    # the trainer's chunk and loss_forward run one pass: three rankings, each
    # under its own parameters, the middle one without positives, equal
    # their one-ranking calls bit for bit
    batches = [_wide_batch(seed, scenes, "detector") for seed in (1, 2, 3)]
    params = [_sampled_params(seed, block_denominator=block) for seed in (21, 22, 23)]
    positive = np.stack([b.positive_mask for b in batches])
    positive[1] = False
    fns = [p.functions for p in params]
    values, score_grads, box_grads, (numer, denom) = paploss._stack_grads(
        np.stack([b.boxes for b in batches]), np.stack([b.scores for b in batches]),
        batches[0].gt_boxes, np.stack([b.assignment for b in batches]), positive, params,
        fns, paploss._ShapeRows(fns))
    assert np.isnan(values[1])
    assert np.all(score_grads[1] == 0.0) and np.all(box_grads[1] == 0.0)
    end = 0
    for k in (0, 2):
        value, cache = loss_forward(batches[k], params[k])
        assert values[k] == value
        _assert_same_bits(score_grads[k], loss_backward(cache)[0])
        _assert_same_bits(box_grads[k], loss_backward(cache)[1])
        part = slice(end, end + cache.rows.size)
        end += cache.rows.size
        _assert_same_bits(numer[part], cache.numer)
        _assert_same_bits(denom[part], cache.denom)
    assert end == numer.size == denom.size


@pytest.mark.parametrize("block", [True, False], ids=["blocked", "unblocked"])
def test_sorted_cache_holds_no_pairwise_array(block, monkeypatch):
    batch = _wide_batch(5, 64, "detector")
    n, p = batch.scores.size, batch.n_positive
    assert n == 1024 and 0 < p < n
    calls = _spy(monkeypatch, "_sorted_rows")
    _, cache = loss_forward(batch, _sampled_params(7, block_denominator=block))
    arrays = {f.name: getattr(cache, f.name) for f in fields(cache)}
    arrays = {k: v for k, v in arrays.items() if isinstance(v, np.ndarray)}
    assert all(v.size < p * n for v in arrays.values())
    # the sorted path ran with the blocking flag, and what it returned is
    # one vector per ranked row or per prediction
    ((*_, got_block), (numer, denom, score_grads, cross)), = calls
    assert got_block == block
    assert numer.shape == denom.shape == cross.shape == (p,) and score_grads.shape == (n,)


def test_one_prediction_below_n_sorted_keeps_the_dense_path(monkeypatch):
    params = _sampled_params(17, block_denominator=False)
    dense = _wide_batch(2, 16, "ties", size=N_SORTED - 1)
    calls = _spy(monkeypatch, "_sorted_rows")
    value, cache = loss_forward(dense, params)
    assert not calls
    got = (value, *loss_backward(cache))
    expected = _reference_loss(dense, params)
    assert got[0] == expected[0]
    for actual, want in zip(got[1:], expected[1:]):
        _assert_same_bits(actual, want)
    # one more prediction, or a shape function that is not piecewise, switch
    loss_forward(_wide_batch(2, 16, "ties", size=N_SORTED), params)
    assert len(calls) == 1
    functions = tuple(resolve_functions(params))
    functions = functions[:3] + (handcrafted_substitution("linear"),) + functions[4:]
    loss_forward(_wide_batch(2, 16, "ties"), params, functions)
    assert len(calls) == 1


@pytest.mark.parametrize("offset", [1e3, 1e6])
def test_piece_sums_within_stated_bound_of_shifted_scores(offset):
    # the docstring's rounding bound, with the constant 10, on scores far
    # from 0; the prefix sums round at the scale of max|s|
    rng = np.random.default_rng([int(offset), 59])
    fn = _random_fn(rng, 5)
    n = 256
    s = rng.uniform(0.0, 1.0, n) + offset
    w = rng.uniform(0.0, 1.0, n)
    order = np.argsort(s, kind="stable")
    values, slopes = paploss._piece_sums(fn, s[order], w[order], s, w)
    raw = s[None, :] - s[:, None]
    d = (np.clip(raw, -1.0, 1.0) + 1.0) / 2.0
    other = ~np.eye(n, dtype=bool)
    active = (np.abs(raw) < 1.0) & other
    slope_d = np.zeros_like(d)
    slope_d[active] = fn.slope(d[active])
    unit = 10.0 * n * np.finfo(float).eps * w.max() * max(1.0, np.max(np.abs(fn.pieces()[1])))
    assert np.max(np.abs(values - (fn.eval(d) * other) @ w)) <= unit * np.abs(s).max()
    assert np.max(np.abs(slopes - slope_d @ w)) <= unit


@pytest.mark.parametrize("offset", [1e3, 1e6, 2.0**52])
def test_shifted_scores_beyond_2_10_take_the_dense_path(offset, monkeypatch):
    # max|s| <= 2^10 keeps the sorted path within its rounding bound of the
    # pairwise loss; beyond it the dense path is exact to the reference
    params = _sampled_params(19, block_denominator=False)
    base = _wide_batch(4, 16, "detector")
    batch = DetectionBatch(base.boxes, base.scores + offset, base.gt_boxes, base.assignment)
    assert batch.scores.size >= N_SORTED
    calls = _spy(monkeypatch, "_sorted_rows")
    value, cache = loss_forward(batch, params)
    assert bool(calls) == (offset < 2.0**10)
    got = (value, *loss_backward(cache))
    expected = _reference_loss(batch, params)
    if calls:
        tol = 1e-13 * offset
        scale = _value_scale(batch, params, None, cache)
        assert abs(got[0] - expected[0]) <= tol * max(abs(expected[0]), scale)
        for actual, want in zip(got[1:], expected[1:]):
            assert np.max(np.abs(actual - want)) <= tol * np.max(np.abs(want))
    else:
        assert got[0] == expected[0]
        for actual, want in zip(got[1:], expected[1:]):
            _assert_same_bits(actual, want)
