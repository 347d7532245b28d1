"""The inner-loop fast path computes exactly what the validated path does.

PiecewiseFn finds a point's segment by counting the interior knots at or
below it; train_inner builds its shape functions once per training and
skips DetectionBatch's re-validation on every step. Each test compares with
a plain reference by exact equality, because outputs are kept bit-identical.
"""

import numpy as np
import pytest

from paramloss import paploss
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
    HIDDEN,
    DatasetConfig,
    ToyModel,
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


def _reference_train(params, train_set, steps, seed, functions=None,
                     batch_scenes=8, lr=0.02):
    """train_inner's weights, step for step, through the public path: a
    checked DetectionBatch and shape functions rebuilt by every loss_forward."""
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
        boxes, scores, cache = _model_apply(model, feats, anchors)
        try:
            _, loss_cache = loss_forward(DetectionBatch(boxes, scores, gts, assignment),
                                         params, functions)
        except EmptyPositiveError:
            continue
        score_grads, box_grads = loss_backward(loss_cache)
        grad = _weight_grads(model, cache, score_grads, box_grads)
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
