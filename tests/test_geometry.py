"""Box measurement tests: frozen values, oracles, gradient checks."""

import numpy as np
import pytest

from paramloss.errors import InvalidInputError
from paramloss.geometry import (
    Box,
    giou,
    giou_grad,
    iou,
    l1_score,
    l1_score_grad,
    measure,
    measure_grad,
    pairwise_iou,
    validate_boxes,
)


def random_box(rng, lo=0.0, hi=1.5):
    x1 = rng.uniform(lo, hi - 0.1)
    y1 = rng.uniform(lo, hi - 0.1)
    w = rng.uniform(0.05, hi - x1)
    h = rng.uniform(0.05, hi - y1)
    return Box(x1, y1, x1 + w, y1 + h)


class TestFrozenValues:
    def test_half_overlap(self):
        a = Box(0.0, 0.0, 1.0, 1.0)
        b = Box(0.0, 0.5, 1.0, 1.5)
        # intersection 0.5, union 1.5; hull equals union's bounding region
        assert abs(iou(a, b) - 1.0 / 3.0) < 1e-12
        assert abs(giou(a, b) - 1.0 / 3.0) < 1e-12

    def test_disjoint_giou_is_negative(self):
        a = Box(0.0, 0.0, 1.0, 1.0)
        b = Box(2.0, 0.0, 3.0, 1.0)
        assert iou(a, b) == 0.0
        # hull area 3, union 2: giou = 0 - (3 - 2) / 3
        assert abs(giou(a, b) - (-1.0 / 3.0)) < 1e-12

    def test_identical_boxes(self):
        a = Box(0.2, 0.3, 0.7, 0.9)
        assert abs(iou(a, a) - 1.0) < 1e-12
        assert abs(giou(a, a) - 1.0) < 1e-12
        assert abs(l1_score(a, a) - 1.0) < 1e-12

    def test_touching_edges(self):
        a = Box(0.0, 0.0, 1.0, 1.0)
        b = Box(1.0, 0.0, 2.0, 1.0)
        assert iou(a, b) == 0.0
        assert giou(a, b) == 0.0  # hull area 2 equals union

    def test_quarter_overlap(self):
        a = Box(0.0, 0.0, 2.0, 2.0)
        b = Box(1.0, 1.0, 3.0, 3.0)
        assert abs(iou(a, b) - 1.0 / 7.0) < 1e-12
        # hull 9, union 7
        assert abs(giou(a, b) - (1.0 / 7.0 - 2.0 / 9.0)) < 1e-12

    def test_l1_score_values(self):
        a = Box(0.0, 0.0, 1.0, 1.0)
        b = Box(0.1, 0.0, 1.1, 1.0)
        assert abs(l1_score(a, b) - 0.95) < 1e-12
        far = Box(4.0, 4.0, 6.0, 6.0)
        assert l1_score(a, far) == 0.0


class TestValidation:
    @pytest.mark.parametrize("bad", [
        (0.0, 0.0, 0.0, 1.0),
        (0.0, 0.0, 1.0, 0.0),
        (1.0, 0.0, 0.5, 1.0),
        (0.0, float("nan"), 1.0, 1.0),
        (0.0, 0.0, float("inf"), 1.0),
    ])
    def test_degenerate_box_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            Box(*bad)

    def test_array_validation_shape(self):
        with pytest.raises(InvalidInputError):
            validate_boxes(np.zeros((3, 5)))

    @pytest.mark.parametrize("fn", [measure, measure_grad])
    def test_unknown_measurement_rejected(self, fn):
        boxes = np.array([[0.0, 0.0, 1.0, 1.0]])
        with pytest.raises(InvalidInputError):
            fn(boxes, boxes, "diou")


class TestRasterOracle:
    """Cross-check IoU against counting cell centers on a fine grid."""

    def raster_iou(self, a, b, cells=1500):
        lo_x = min(a.x1, b.x1)
        hi_x = max(a.x2, b.x2)
        lo_y = min(a.y1, b.y1)
        hi_y = max(a.y2, b.y2)
        xs = np.linspace(lo_x, hi_x, cells + 1)
        xs = 0.5 * (xs[1:] + xs[:-1])
        ys = np.linspace(lo_y, hi_y, cells + 1)
        ys = 0.5 * (ys[1:] + ys[:-1])
        gx, gy = np.meshgrid(xs, ys, indexing="ij")

        def inside(box):
            return (gx >= box.x1) & (gx <= box.x2) & (gy >= box.y1) & (gy <= box.y2)

        in_a = inside(a)
        in_b = inside(b)
        inter = np.count_nonzero(in_a & in_b)
        union = np.count_nonzero(in_a | in_b)
        return inter / union

    def test_matches_raster_counts(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = random_box(rng)
            b = random_box(rng)
            assert abs(iou(a, b) - self.raster_iou(a, b)) < 0.02


class TestProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = random_box(rng)
            b = random_box(rng)
            assert abs(iou(a, b) - iou(b, a)) < 1e-12
            assert abs(giou(a, b) - giou(b, a)) < 1e-12
            assert abs(l1_score(a, b) - l1_score(b, a)) < 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = random_box(rng)
            b = random_box(rng)
            dx, dy = rng.uniform(-3.0, 3.0, size=2)
            shift = np.array([dx, dy, dx, dy])
            a2 = Box.from_array(a.array + shift)
            b2 = Box.from_array(b.array + shift)
            assert abs(iou(a, b) - iou(a2, b2)) < 1e-12
            assert abs(giou(a, b) - giou(a2, b2)) < 1e-12

    def test_giou_never_exceeds_iou(self):
        rng = np.random.default_rng(17)
        a = np.stack([random_box(rng).array for _ in range(10000)])
        b = np.stack([random_box(rng).array for _ in range(10000)])
        i = measure(a, b, "iou")
        g = measure(a, b, "giou")
        assert np.all(g <= i + 1e-12)
        assert np.all(i <= 1.0 + 1e-12)
        assert np.all(g >= -1.0 - 1e-12)

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(19)
        aa = [random_box(rng) for _ in range(8)]
        bb = [random_box(rng) for _ in range(11)]
        mat = pairwise_iou(np.stack([x.array for x in aa]),
                           np.stack([x.array for x in bb]))
        assert mat.shape == (8, 11)
        for i, a in enumerate(aa):
            for j, b in enumerate(bb):
                assert abs(mat[i, j] - iou(a, b)) < 1e-12

    def test_elementwise_matches_scalar(self):
        rng = np.random.default_rng(23)
        preds = np.stack([random_box(rng).array for _ in range(64)])
        gts = np.stack([random_box(rng).array for _ in range(64)])
        g = measure(preds, gts, "giou")
        gl = measure(preds, gts, "l1")
        gg = measure_grad(preds, gts, "giou")
        gi = measure_grad(preds, gts, "iou")
        gd = measure_grad(preds, gts, "l1")
        for k in range(64):
            a = Box.from_array(gts[k])
            b = Box.from_array(preds[k])
            assert abs(g[k] - giou(a, b)) < 1e-12
            assert abs(gl[k] - l1_score(a, b)) < 1e-12
            assert np.allclose(gg[k], giou_grad(a, b), atol=1e-12)
            assert np.allclose(gi[k], giou_grad(a, b, include_enclosing=False), atol=1e-12)
            assert np.allclose(gd[k], l1_score_grad(a, b), atol=1e-12)


def _fd_grad(fn, b_arr, h=1e-5):
    out = np.zeros(4)
    for c in range(4):
        ep = b_arr.copy()
        em = b_arr.copy()
        ep[c] += h
        em[c] -= h
        out[c] = (fn(ep) - fn(em)) / (2 * h)
    return out


def _well_separated(a, b, margin=1e-3):
    """Keep configurations away from the kinks of the measurement surfaces."""
    ar, br = a.array, b.array
    if np.any(np.abs(ar - br) < margin):
        return False
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    return abs(iw) > margin and abs(ih) > margin


class TestGradients:
    def test_giou_grad_finite_difference(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 1000:
            a = random_box(rng)
            b = random_box(rng)
            if not _well_separated(a, b):
                continue
            ana = giou_grad(a, b)
            num = _fd_grad(lambda arr: giou(a, Box.from_array(arr)), b.array)
            err = np.linalg.norm(num - ana) / max(np.linalg.norm(ana), 1e-8)
            assert err < 1e-6, (a, b, ana, num)
            checked += 1

    def test_iou_grad_finite_difference(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 500:
            a = random_box(rng)
            b = random_box(rng)
            if not _well_separated(a, b):
                continue
            ana = giou_grad(a, b, include_enclosing=False)
            num = _fd_grad(lambda arr: iou(a, Box.from_array(arr)), b.array)
            denom = max(np.linalg.norm(ana), 1e-8)
            # disjoint pairs: IoU locally constant at zero, gradient must vanish
            if iou(a, b) == 0.0:
                assert np.all(ana == 0.0)
                assert np.linalg.norm(num) < 1e-9
            else:
                assert np.linalg.norm(num - ana) / denom < 1e-6
            checked += 1

    def test_l1_grad_finite_difference(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 500:
            a = random_box(rng)
            b = random_box(rng)
            slack = 1.0 - np.abs(a.array - b.array).sum() / 4.0
            if abs(slack) < 1e-3 or np.any(np.abs(a.array - b.array) < 1e-3):
                continue
            ana = l1_score_grad(a, b)
            num = _fd_grad(lambda arr: l1_score(a, Box.from_array(arr)), b.array)
            assert np.allclose(num, ana, atol=1e-8), (a, b)
            checked += 1

    def test_grad_zero_for_negative_slack(self):
        a = Box(0.0, 0.0, 1.0, 1.0)
        b = Box(4.0, 4.0, 6.0, 6.0)
        assert np.all(l1_score_grad(a, b) == 0.0)

    def test_measure_grad_batch_matches_fd(self):
        rng = np.random.default_rng(41)
        kept_p, kept_g = [], []
        while len(kept_p) < 200:
            a = random_box(rng)
            b = random_box(rng)
            if _well_separated(a, b):
                kept_g.append(a.array)
                kept_p.append(b.array)
        preds = np.stack(kept_p)
        gts = np.stack(kept_g)
        for kind in ("iou", "giou"):
            ana = measure_grad(preds, gts, kind)
            for k in range(0, 200, 7):
                num = _fd_grad(
                    lambda arr, k=k: float(
                        measure(arr[None, :], gts[k][None, :], kind)[0]
                    ),
                    preds[k],
                )
                assert np.linalg.norm(num - ana[k]) <= 1e-6 * max(
                    np.linalg.norm(ana[k]), 1e-2
                )
