"""Loss tests: step-function reduction, analytic gradients vs finite
differences, parameter plumbing, handcrafted baselines."""

import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import expit as scipy_expit

from paramloss.apmetric import DetectionBatch, ap_reformulated, loc_scores
from paramloss.errors import (
    ConstraintViolationError,
    DomainError,
    EmptyPositiveError,
    InvalidInputError,
)
from paramloss.paploss import (
    LossParams,
    StepFn,
    expit,
    handcrafted_substitution,
    lambda_from_theta,
    loss_backward,
    loss_forward,
    resolve_functions,
)
from paramloss.piecewise import RatioParams

from loss_helpers import loss_with_grads

UNIT = np.array([0.0, 0.0, 1.0, 1.0])

# exact Heaviside hooks: the step sits at 0 for localization inputs and at
# 0.5 for normalized score differences (s_j > s_i maps to d > 1/2)
STEP_FUNCTIONS = (StepFn(0.0), StepFn(0.5), StepFn(0.0), StepFn(0.5), StepFn(0.0))


def random_loss_params(rng, M=5, measurement="giou", block=True, lam_range=(0.1, 0.9)):
    flat = rng.uniform(0.05, 0.95, size=10 * (M - 1) + 1)
    flat[-1] = rng.uniform(*lam_range)
    return LossParams.from_flat(flat, M=M, measurement=measurement,
                                block_denominator=block)


def assert_same_params(p, q):
    assert (p.M, p.measurement, p.block_denominator) == (q.M, q.measurement,
                                                         q.block_denominator)
    assert np.array_equal(p.to_flat(), q.to_flat())


def normalize_score_diff(s_j: float, s_i: float) -> float:
    """Map a score difference into [0, 1]: clip to [-1, 1], then rescale;
    the d_ji of the naive loss below."""
    if not (np.isfinite(s_j) and np.isfinite(s_i)):
        raise InvalidInputError("scores must be finite")
    return float((np.clip(s_j - s_i, -1.0, 1.0) + 1.0) / 2.0)


def random_batch(rng, max_preds=12, measurement_gt_count=(1, 4), score_range=(0.0, 2.0)):
    """Scenes with well-separated ground truths, jittered positives, far negatives."""
    n_gt = int(rng.integers(*measurement_gt_count))
    gts = []
    for g in range(n_gt):
        x = 3.0 * g
        gts.append([x, 0.0, x + 1.0, 1.0])
    gts = np.array(gts)
    n = int(rng.integers(2, max_preds + 1))
    boxes = []
    assignment = []
    for _ in range(n):
        if rng.uniform() < 0.6:
            g = int(rng.integers(n_gt))
            jitter = rng.uniform(-0.15, 0.15, size=4)
            boxes.append(gts[g] + jitter)
            assignment.append(g)
        else:
            boxes.append([-5.0 + rng.uniform(-1, 1), 0.0, -4.0 + rng.uniform(1, 2), 1.0])
            assignment.append(-1)
    scores = rng.uniform(*score_range, size=n)
    return DetectionBatch(np.array(boxes), scores, gts, np.array(assignment))


class TestNormalization:
    def test_score_diff_examples(self):
        assert normalize_score_diff(0.3, 0.3) == 0.5
        assert normalize_score_diff(2.8, 0.5) == 1.0
        assert normalize_score_diff(0.0, 0.5) == 0.25

    def test_lambda_examples(self):
        assert lambda_from_theta(0.5) == 1.0
        assert abs(lambda_from_theta(0.75) - 10**0.5) < 1e-12
        assert abs(lambda_from_theta(0.25) - 10**-0.5) < 1e-12

    def test_lambda_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ConstraintViolationError):
                lambda_from_theta(bad)


class TestLossParams:
    def test_flat_dimension(self):
        p = LossParams.identity(M=5)
        assert p.dim == 41
        assert p.to_flat().shape == (41,)
        assert LossParams.identity(M=2).dim == 11

    def test_flat_round_trip(self):
        rng = np.random.default_rng(311)
        p = random_loss_params(rng, measurement="l1", block=False)
        q = LossParams.from_flat(p.to_flat(), M=5, measurement="l1",
                                 block_denominator=False)
        assert_same_params(p, q)

    def test_json_round_trip(self):
        rng = np.random.default_rng(313)
        p = random_loss_params(rng)
        q = LossParams.from_json_dict(p.to_json_dict())
        assert_same_params(p, q)
        assert q.measurement == "giou" and q.block_denominator is True

    def test_json_unknown_key_rejected(self):
        d = LossParams.identity().to_json_dict()
        d["theta7"] = 0.5
        with pytest.raises(InvalidInputError):
            LossParams.from_json_dict(d)

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_json_non_bool_block_denominator_rejected(self, flag):
        d = LossParams.identity().to_json_dict()
        d["block_denominator"] = flag
        with pytest.raises(InvalidInputError):
            LossParams.from_json_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("M", 5.9), ("M", 5.0), ("M", "5"), ("M", True),
        ("theta_lambda", "0.5"), ("theta_lambda", True), ("theta_lambda", None),
    ])
    def test_json_mistyped_value_rejected(self, key, value):
        d = LossParams.identity().to_json_dict()
        d[key] = value
        with pytest.raises(InvalidInputError, match=key):
            LossParams.from_json_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("M", 5.0), ("M", True), ("theta_lambda", "0.5"), ("theta_lambda", False),
        ("M", "5"),
    ])
    def test_mistyped_value_rejected(self, key, value):
        t = LossParams.identity().theta1
        with pytest.raises(InvalidInputError, match=key):
            LossParams(t, t, t, t, t, **{"theta_lambda": 0.5, key: value})
        if key == "M":
            # from_flat sizes its slices by M, so it checks M first
            message = re.escape(f"M must be an integer, got {value!r}")
            with pytest.raises(InvalidInputError, match=message):
                LossParams.from_flat(LossParams.identity().to_flat(), M=value)

    def test_integral_and_real_values_accepted(self):
        t = LossParams.identity(M=2).theta1
        p = LossParams(t, t, t, t, t, theta_lambda=np.float64(0.25), M=np.int64(2))
        assert p.dim == 11

    def test_json_missing_key_rejected(self):
        d = LossParams.identity().to_json_dict()
        del d["theta_lambda"]
        with pytest.raises(InvalidInputError):
            LossParams.from_json_dict(d)

    def test_theta_lambda_open_interval(self):
        t = LossParams.identity().theta1
        with pytest.raises(ConstraintViolationError):
            LossParams(t, t, t, t, t, theta_lambda=1.0)

    def test_wrong_ratio_count(self):
        t5 = LossParams.identity(M=5).theta1
        t2 = LossParams.identity(M=2).theta1
        with pytest.raises(InvalidInputError):
            LossParams(t5, t5, t5, t5, t2, theta_lambda=0.5, M=5)

    def test_bad_measurement(self):
        t = LossParams.identity().theta1
        with pytest.raises(InvalidInputError):
            LossParams(t, t, t, t, t, theta_lambda=0.5, measurement="diou")

    def test_identity_functions_are_identity(self):
        fns = resolve_functions(LossParams.identity())
        xs = np.linspace(0.0, 1.0, 101)
        for f in fns:
            assert np.allclose(f.eval(xs), xs, atol=1e-12)


class TestExpit:
    """numpy's exp in scipy's formula: within a few ulp of scipy.special.expit."""

    def test_matches_scipy_within_4_ulp(self):
        x = np.concatenate([np.random.default_rng(17).normal(0.0, 8.0, 100_000),
                            np.linspace(-800.0, 800.0, 16001),
                            [-800.0, -745.0, 745.0, 800.0]])
        ours, ref = expit(x), scipy_expit(x)
        assert np.all(np.abs(ours - ref) <= 4 * np.spacing(ref))

    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = expit(np.array([-800.0, -745.0, 745.0, 800.0, -np.inf, np.inf]))
        assert values.tolist() == [0.0, 0.0, 1.0, 1.0, 0.0, 1.0]


class TestHandcrafted:
    def test_frozen_values(self):
        assert handcrafted_substitution("square").eval(0.5) == 0.25
        assert handcrafted_substitution("sqrt").eval(0.25) == 0.5
        assert abs(handcrafted_substitution("sigmoid").eval(0.5) - 0.5) < 1e-12

    def test_endpoints_and_monotonicity(self):
        xs = np.linspace(0.0, 1.0, 401)
        for kind in ("sigmoid", "sqrt", "linear", "square"):
            f = handcrafted_substitution(kind)
            ys = f.eval(xs)
            assert abs(ys[0]) < 1e-12 and abs(ys[-1] - 1.0) < 1e-12
            assert np.all(np.diff(ys) >= 0.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            handcrafted_substitution("cubic")

    def test_slopes_match_finite_differences(self):
        h = 1e-6
        xs = np.linspace(0.01, 0.99, 37)
        for kind in ("sigmoid", "sqrt", "linear", "square"):
            f = handcrafted_substitution(kind)
            num = (f.eval(xs + h) - f.eval(xs - h)) / (2 * h)
            assert np.allclose(f.slope(xs), num, rtol=1e-5, atol=1e-7)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            handcrafted_substitution("linear").eval(1.2)


class TestForward:
    def make_interleaved_batch(self):
        # loc scores 0.8, 0, 0.6 under the iou measurement
        boxes = np.array([
            [0.0, 0.0, 1.0, 0.8],
            [5.0, 5.0, 6.0, 6.0],
            [0.0, 0.0, 1.0, 0.6],
        ])
        return DetectionBatch.from_predictions(boxes, [0.9, 0.7, 0.5], np.array([UNIT]))

    def test_step_reduction_frozen_case(self):
        batch = self.make_interleaved_batch()
        params = LossParams.identity(measurement="iou")
        value, _ = loss_forward(batch, params, functions=STEP_FUNCTIONS)
        assert abs(value - (-5.0 / 6.0)) < 1e-12

    def test_single_exact_prediction(self):
        batch = DetectionBatch.from_predictions(np.array([UNIT]), [0.4], np.array([UNIT]))
        value, _ = loss_forward(batch, LossParams.identity(measurement="iou"))
        assert abs(value - (-1.0)) < 1e-12

    def test_all_negative_raises(self):
        batch = DetectionBatch(np.array([UNIT]), np.array([0.5]),
                               np.array([UNIT]), np.array([-1]))
        with pytest.raises(EmptyPositiveError):
            loss_forward(batch, LossParams.identity())

    def test_step_reduction_on_random_instances(self):
        rng = np.random.default_rng(317)
        for _ in range(500):
            batch = random_batch(rng)
            params = LossParams.identity(measurement="iou")
            try:
                value, _ = loss_forward(batch, params, functions=STEP_FUNCTIONS)
            except EmptyPositiveError:
                assert batch.n_positive == 0
                continue
            want = ap_reformulated(batch.scores, loc_scores(batch, "iou"))
            assert abs(-value - want) <= 1e-12

    def test_negatives_contribute_zero_first_term(self):
        rng = np.random.default_rng(331)
        for _ in range(50):
            batch = random_batch(rng)
            params = random_loss_params(rng)
            f1 = resolve_functions(params)[0]
            l = loc_scores(batch, params.measurement)
            neg = ~batch.positive_mask
            assert np.all(f1.eval(l[neg]) == 0.0) if neg.any() else True

    def test_forward_matches_double_loop_reference(self):
        # independent scalar implementation of the loss formula
        rng = np.random.default_rng(337)
        for _ in range(50):
            batch = random_batch(rng, max_preds=8)
            if batch.n_positive == 0:
                continue
            params = random_loss_params(rng, measurement="l1")
            f1, f2, f3, f4, f5 = resolve_functions(params)
            l = loc_scores(batch, "l1")
            s = batch.scores
            total = 0.0
            for i in range(len(s)):
                num = sum(
                    f2.eval(normalize_score_diff(s[j], s[i])) * (1.0 - f3.eval(l[j]))
                    for j in range(len(s)) if j != i
                )
                den = 1.0 + sum(
                    f4.eval(normalize_score_diff(s[j], s[i]))
                    for j in range(len(s)) if j != i
                )
                total += f1.eval(l[i]) - (num / den) * f5.eval(l[i])
            want = -total / batch.n_positive
            got, _ = loss_forward(batch, params)
            assert abs(got - want) <= 1e-12

    def test_blocking_leaves_forward_unchanged(self):
        rng = np.random.default_rng(347)
        for _ in range(30):
            batch = random_batch(rng)
            if batch.n_positive == 0:
                continue
            flat = random_loss_params(rng).to_flat()
            blocked = LossParams.from_flat(flat, block_denominator=True)
            free = LossParams.from_flat(flat, block_denominator=False)
            v1, _ = loss_forward(batch, blocked)
            v2, _ = loss_forward(batch, free)
            assert v1 == v2

    def test_loss_finite_on_random_batches(self):
        rng = np.random.default_rng(349)
        for _ in range(100):
            batch = random_batch(rng)
            if batch.n_positive == 0:
                continue
            value, cache = loss_forward(batch, random_loss_params(rng))
            assert np.isfinite(value)
            assert cache.rows.size == batch.n_positive


def _knot_margin_ok(values, functions, margin=1e-3):
    """All values at least margin away from every knot of the functions."""
    for f in functions:
        knots = f.control_points[:, 0]
        dist = np.min(np.abs(np.asarray(values).reshape(-1, 1) - knots[None, :]), axis=1)
        if np.any(dist < margin):
            return False
    return True


def _fd_batch_ok(batch, params, margin=1e-3):
    """Reject configurations within margin of any non-smooth point."""
    s = batch.scores
    raw = np.abs(s[None, :] - s[:, None])
    if np.any(np.abs(raw - 1.0) < margin):  # clip boundary
        return False
    off = ~np.eye(len(s), dtype=bool)
    d = (np.clip(s[None, :] - s[:, None], -1.0, 1.0) + 1.0) / 2.0
    fns = resolve_functions(params)
    if not _knot_margin_ok(d[off], (fns[1], fns[3])):
        return False
    l = loc_scores(batch, params.measurement)
    lp = l[batch.positive_mask]
    if np.any(lp < margin) or np.any(lp > 1.0 - margin):
        return False
    if not _knot_margin_ok(lp, (fns[0], fns[2], fns[4])):
        return False
    # box measurement kinks: coordinate ties and grazing overlaps
    pos = batch.positive_mask
    pb = batch.boxes[pos]
    gb = batch.gt_boxes[batch.assignment[pos]]
    if np.any(np.abs(pb - gb) < margin):
        return False
    iw = np.minimum(pb[:, 2], gb[:, 2]) - np.maximum(pb[:, 0], gb[:, 0])
    ih = np.minimum(pb[:, 3], gb[:, 3]) - np.maximum(pb[:, 1], gb[:, 1])
    return bool(np.all(np.abs(iw) > margin) and np.all(np.abs(ih) > margin))


def _frozen_denominator_forward(batch, params, scores, denom):
    """Loss value at the given scores with the denominator held fixed.

    Blocking treats the denominator as a constant under differentiation, so
    the function whose true gradient the blocked backward computes is this
    one, with denom pinned to its value at the unperturbed scores.
    """
    f1, f2, f3, f4, f5 = resolve_functions(params)
    l = loc_scores(batch, params.measurement)
    d = (np.clip(scores[None, :] - scores[:, None], -1.0, 1.0) + 1.0) / 2.0
    off = ~np.eye(len(scores), dtype=bool)
    numer = (f2.eval(d) * off) @ (1.0 - f3.eval(l))
    total = (f1.eval(l) - (numer / denom) * f5.eval(l)).sum()
    return -total / batch.n_positive


class TestBackward:
    def fd_score(self, batch, params, k, h=1e-5):
        if params.block_denominator:
            cache = loss_forward(batch, params)[1]
            denom = np.ones_like(batch.scores)  # the positives' m_i, 1 at the negatives
            denom[cache.rows] = cache.denom

            def at(delta):
                s = batch.scores.copy()
                s[k] += delta
                return _frozen_denominator_forward(batch, params, s, denom)
        else:
            def at(delta):
                s = batch.scores.copy()
                s[k] += delta
                b = DetectionBatch(batch.boxes, s, batch.gt_boxes, batch.assignment)
                return loss_forward(b, params)[0]

        return (at(h) - at(-h)) / (2 * h)

    def fd_box(self, batch, params, k, c, h=1e-5):
        def at(delta):
            boxes = batch.boxes.copy()
            boxes[k, c] += delta
            b = DetectionBatch(boxes, batch.scores, batch.gt_boxes, batch.assignment)
            return loss_forward(b, params)[0]

        return (at(h) - at(-h)) / (2 * h)

    def run_fd_check(self, measurement, n_batches, seed):
        rng = np.random.default_rng(seed)
        checked = 0
        while checked < n_batches:
            batch = random_batch(rng)
            if batch.n_positive == 0:
                continue
            params = random_loss_params(rng, measurement=measurement,
                                        block=bool(rng.integers(2)))
            if not _fd_batch_ok(batch, params):
                continue
            res = loss_with_grads(batch, params)
            lam = lambda_from_theta(params.theta_lambda)
            for k in range(len(batch.scores)):
                num = self.fd_score(batch, params, k)
                ana = res.score_grads[k]
                assert abs(num - ana) <= 1e-4 * max(abs(ana), 1e-5), (measurement, k)
            for k in np.flatnonzero(batch.positive_mask):
                for c in range(4):
                    num = lam * self.fd_box(batch, params, k, c)
                    ana = res.box_grads[k, c]
                    assert abs(num - ana) <= 1e-4 * max(abs(ana), 1e-5), (measurement, k, c)
            checked += 1

    def test_gradients_match_fd_giou(self):
        self.run_fd_check("giou", 60, 401)

    def test_gradients_match_fd_iou(self):
        self.run_fd_check("iou", 20, 403)

    def test_gradients_match_fd_l1(self):
        self.run_fd_check("l1", 20, 407)

    def test_negative_boxes_have_zero_grads_and_no_influence(self):
        rng = np.random.default_rng(409)
        for _ in range(20):
            batch = random_batch(rng)
            if batch.n_positive == 0 or batch.n_positive == len(batch.scores):
                continue
            params = random_loss_params(rng)
            res = loss_with_grads(batch, params)
            neg = ~batch.positive_mask
            assert np.all(res.box_grads[neg] == 0.0)
            # moving a negative's box does not change the loss at all
            k = int(np.flatnonzero(neg)[0])
            boxes = batch.boxes.copy()
            boxes[k] += np.array([0.3, -0.2, 0.3, 0.1])
            moved = DetectionBatch(boxes, batch.scores, batch.gt_boxes, batch.assignment)
            assert loss_forward(moved, params)[0] == loss_forward(batch, params)[0]

    def test_lambda_doubling_scales_box_grads_only(self):
        rng = np.random.default_rng(419)
        batch = random_batch(rng)
        while batch.n_positive == 0:
            batch = random_batch(rng)
        flat = random_loss_params(rng).to_flat()
        flat[-1] = 0.4
        base = LossParams.from_flat(flat)
        flat2 = flat.copy()
        flat2[-1] = 0.4 + np.log10(2.0) / 2.0  # doubles lambda
        doubled = LossParams.from_flat(flat2)
        r1 = loss_with_grads(batch, base)
        r2 = loss_with_grads(batch, doubled)
        assert np.allclose(r2.box_grads, 2.0 * r1.box_grads, rtol=1e-12, atol=0.0)
        assert np.array_equal(r2.score_grads, r1.score_grads)

    def test_blocking_changes_score_grads(self):
        rng = np.random.default_rng(421)
        hits = 0
        for _ in range(20):
            batch = random_batch(rng)
            if batch.n_positive == 0:
                continue
            flat = random_loss_params(rng).to_flat()
            blocked = loss_with_grads(batch, LossParams.from_flat(flat, block_denominator=True))
            free = loss_with_grads(batch, LossParams.from_flat(flat, block_denominator=False))
            if not np.allclose(blocked.score_grads, free.score_grads, atol=1e-15):
                hits += 1
            # the localization branch never sees the denominator's gradient
            assert np.array_equal(blocked.box_grads, free.box_grads)
        assert hits > 0

    @pytest.mark.parametrize("block", [True, False], ids=["blocked", "unblocked"])
    def test_backward_leaves_its_cache_unchanged(self, block):
        rng = np.random.default_rng(431)
        batch = random_batch(rng)
        while batch.n_positive == 0 or len(batch.scores) < 8:
            batch = random_batch(rng)
        _, cache = loss_forward(batch, random_loss_params(rng, block=block))
        # some clipped and some unclipped pairs, with positives among the j;
        # row k of the (P, N) slope ranks the positive rows[k] against all j
        assert np.any(cache.f2_slope[:, batch.positive_mask] > 0.0)
        other = np.ones(cache.f2_slope.shape, dtype=bool)
        other[np.arange(batch.n_positive), np.flatnonzero(batch.positive_mask)] = False
        assert not np.all(cache.f2_slope[other] > 0.0)

        def arrays():
            named = [(f.name, getattr(cache, f.name)) for f in fields(cache)]
            # the caller's batch too, whose scores the cache holds
            named += [(f"batch.{k}", v) for k, v in vars(batch).items()]
            return {k: v.copy() for k, v in named if isinstance(v, np.ndarray)}

        before = arrays()
        first = loss_backward(cache)
        second = loss_backward(cache)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        after = arrays()
        assert after.keys() == before.keys()
        for name in before:
            assert np.array_equal(after[name], before[name]), name
