"""The inner-loop fast path computes exactly what the validated path does.

PiecewiseFn finds a point's segment by counting the interior knots at or
below it; train_inner builds its shape functions once per training, updates
one weight buffer in place and skips DetectionBatch's re-validation on every
step. The detector and the overlap kernels treat a box as two (x, y) corner
pairs; the references below write the same arithmetic out per coordinate.
Each test compares with a plain reference by exact equality, signed zeros
included, because outputs are kept bit-identical.
"""

import numpy as np
import pytest
from scipy.special import expit

from paramloss import geometry, paploss
from paramloss.apmetric import DetectionBatch
from paramloss.errors import ConstraintViolationError, EmptyPositiveError
from paramloss.optim import Adam
from paramloss.paploss import (
    LossParams,
    handcrafted_substitution,
    loss_backward,
    loss_forward,
)
from paramloss.piecewise import PiecewiseFn, RatioParams
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
    assert np.array_equal(fn._segment_index(x), ref)
    assert np.array_equal(fn.eval(x), ys[ref] + slopes[ref] * (x - xs[ref]))
    assert np.array_equal(fn.slope(x), slopes[ref])
    for point, k in ((0.0, 0), (1.0, M - 1)):
        assert fn.eval(point) == point
        assert fn.slope(point) == slopes[k]


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def _reference_decode(model, features, anchors):
    """_model_apply written out per axis: (boxes, scores, cache)."""
    u = np.tanh(features @ model.w1 + model.b1)
    out = u @ model.w2 + model.b2
    scores = expit(out[:, 0])
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
    feats, anchors, _, _ = _merge_scenes(train)
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
    checked DetectionBatch, shape functions rebuilt by every loss_forward, a
    model rebuilt from the weights each step and the per-axis detector."""
    model = ToyModel.init(train_set[0].features.shape[1], HIDDEN, seed)
    shuffle_rng = np.random.default_rng([seed, 733])
    order = []
    opt = Adam(model.to_vector().size, lr=lr)
    weights = model.to_vector()
    for step in range(steps):
        if len(order) < batch_scenes:
            order = list(shuffle_rng.permutation(len(train_set)))
        picked = [train_set[i] for i in order[:batch_scenes]]
        order = order[batch_scenes:]
        model = model.with_vector(weights)
        feats, anchors, gts, assignment = _merge_scenes(picked)
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


def test_unbuildable_params_still_raise_constraint_violation():
    # ratios this close to 1 collapse the knots onto x = 1
    top = np.nextafter(1.0, 0.0)
    theta = RatioParams(np.full((4, 2), top))
    params = LossParams(theta, theta, theta, theta, theta, theta_lambda=0.5)
    train, _ = generate(SMALL)
    assert np.array_equal(train_inner(params, train, 0, seed=0).to_vector(),
                          ToyModel.init(train[0].features.shape[1], HIDDEN, 0).to_vector())
    with pytest.raises(ConstraintViolationError):
        train_inner(params, train, STEPS, seed=0)
