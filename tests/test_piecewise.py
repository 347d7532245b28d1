"""Piecewise-linear family tests: construction, evaluation, round trips."""

import numpy as np
import pytest

from paramloss.errors import ConstraintViolationError, DomainError, InvalidInputError
from paramloss.paploss import StepFn, handcrafted_substitution
from paramloss.piecewise import PiecewiseFn, RatioParams, build, identity_params


def random_ratios(rng, M=5):
    # uniform in the open interval, bounded away from the ends a hair
    return RatioParams(rng.uniform(1e-9, 1.0 - 1e-9, size=(M - 1, 2)))


class TestBuild:
    def test_single_pair_recurrence(self):
        f = build(RatioParams(np.array([[0.5, 0.25]])), 2)
        expected = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]])
        assert np.allclose(f.control_points, expected, atol=1e-15)

    def test_equal_ratios_give_diagonal(self):
        r = np.array([0.2, 0.25, 1.0 / 3.0, 0.5])
        f = build(RatioParams(np.stack([r, r], axis=1)), 5)
        assert np.allclose(f.control_points[:, 0], f.control_points[:, 1], atol=1e-15)
        assert abs(f.eval(0.37) - 0.37) < 1e-12

    def test_ratio_at_bound_rejected(self):
        with pytest.raises(ConstraintViolationError):
            build(RatioParams(np.array([[1.0, 0.5]])), 2)
        with pytest.raises(ConstraintViolationError):
            RatioParams(np.array([[0.0, 0.5]]))

    def test_wrong_count_rejected(self):
        with pytest.raises(InvalidInputError):
            build(RatioParams(np.array([[0.5, 0.5]])), 5)

    def test_m_one_is_identity_segment(self):
        f = build(RatioParams(np.zeros((0, 2)) + 0.5), 1)
        assert f.segments == 1
        assert abs(f.eval(0.3) - 0.3) < 1e-15

    def test_bad_m(self):
        with pytest.raises(InvalidInputError):
            build(RatioParams(np.zeros((0, 2))), 0)


class TestEval:
    def setup_method(self):
        self.f = build(RatioParams(np.array([[0.5, 0.25]])), 2)

    def test_second_segment_value(self):
        # slope of second segment is (1 - 0.25) / (1 - 0.5) = 1.5
        assert abs(self.f.eval(0.75) - 0.625) < 1e-12

    def test_endpoints(self):
        assert self.f.eval(0.0) == 0.0
        assert self.f.eval(1.0) == 1.0

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.0, 1.0, 101)
        vec = self.f.eval(xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert abs(self.f.eval(float(x)) - v) < 1e-15

    def test_domain_errors(self):
        for bad in (-0.001, 1.001, float("nan")):
            with pytest.raises(DomainError):
                self.f.eval(bad)
            with pytest.raises(DomainError):
                self.f.slope(bad)

    def test_callable_alias(self):
        assert self.f(0.75) == self.f.eval(0.75)


class TestSlope:
    def setup_method(self):
        self.f = build(RatioParams(np.array([[0.5, 0.25]])), 2)

    def test_segment_slopes(self):
        assert abs(self.f.slope(0.25) - 0.5) < 1e-12
        # knots belong to the right segment under the half-open rule
        assert abs(self.f.slope(0.5) - 1.5) < 1e-12
        assert abs(self.f.slope(0.0) - 0.5) < 1e-12
        # x = 1 closes into the last segment
        assert abs(self.f.slope(1.0) - 1.5) < 1e-12

    def test_identity_slope_is_one(self):
        f = build(identity_params(5), 5)
        xs = np.linspace(0.0, 1.0, 257)
        assert np.allclose(f.slope(xs), 1.0, atol=1e-12)


class TestIdentityParams:
    def test_m5_ratio_values(self):
        r = identity_params(5).ratios
        expected = np.array([0.2, 0.25, 1.0 / 3.0, 0.5])
        assert np.allclose(r[:, 0], expected, atol=1e-15)
        assert np.allclose(r[:, 1], expected, atol=1e-15)

    def test_m2_midpoint(self):
        assert np.allclose(identity_params(2).ratios, [[0.5, 0.5]])

    def test_identity_on_grid(self):
        for M in (2, 3, 5, 8):
            f = build(identity_params(M), M)
            xs = np.linspace(0.0, 1.0, 1001)
            assert np.max(np.abs(f.eval(xs) - xs)) <= 1e-12

    def test_m_below_two_rejected(self):
        with pytest.raises(InvalidInputError):
            identity_params(1)


class TestRandomFamilies:
    def test_invariants_over_random_draws(self):
        rng = np.random.default_rng(101)
        grid = np.linspace(0.0, 1.0, 1001)
        for _ in range(1000):
            f = build(random_ratios(rng), 5)
            ys = f.eval(grid)
            assert ys[0] == 0.0 and ys[-1] == 1.0
            assert np.all(np.diff(ys) >= -1e-15)
            assert np.all((ys >= 0.0) & (ys <= 1.0 + 1e-15))
            assert np.all(f.slope(grid) >= 0.0)

    def test_ratio_round_trip(self):
        # Ratios near 1 crowd the knots against the end point and make the
        # inverse map ill-conditioned (the 1 - y subtraction cancels), so the
        # exactness property is sampled away from that regime.
        rng = np.random.default_rng(103)
        for _ in range(500):
            params = RatioParams(rng.uniform(1e-3, 0.9, size=(4, 2)))
            back = build(params, 5).ratios()
            assert np.max(np.abs(back.ratios - params.ratios)) <= 1e-12

    def test_points_round_trip(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            f = build(random_ratios(rng), 5)
            g = PiecewiseFn.from_points(f.to_points())
            assert np.array_equal(g.control_points, f.control_points)

    def test_continuity_at_knots(self):
        rng = np.random.default_rng(109)
        delta = 1e-9
        for _ in range(200):
            f = build(random_ratios(rng), 5)
            max_slope = float(np.max(f._slopes))
            for xk in f.control_points[1:-1, 0]:
                lo = f.eval(max(0.0, xk - delta))
                hi = f.eval(min(1.0, xk + delta))
                assert abs(hi - f.eval(xk)) <= max_slope * delta + 1e-15
                assert abs(f.eval(xk) - lo) <= max_slope * delta + 1e-15

    def test_flat_ratio_round_trip(self):
        rng = np.random.default_rng(113)
        flat = rng.uniform(0.05, 0.95, size=8)
        p = RatioParams.from_flat(flat)
        assert np.array_equal(p.flat(), flat)
        assert p.segments == 5


class TestControlPointValidation:
    def test_bad_endpoints(self):
        with pytest.raises(InvalidInputError):
            PiecewiseFn(np.array([[0.0, 0.1], [1.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            PiecewiseFn(np.array([[0.0, 0.0], [0.9, 1.0]]))

    def test_non_monotone_rejected(self):
        with pytest.raises(InvalidInputError):
            PiecewiseFn(np.array([[0.0, 0.0], [0.5, 0.8], [0.5, 0.9], [1.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            PiecewiseFn(np.array([[0.0, 0.0], [0.5, 0.8], [0.7, 0.6], [1.0, 1.0]]))

    def test_outside_unit_square_rejected(self):
        with pytest.raises(InvalidInputError):
            PiecewiseFn(np.array([[0.0, 0.0], [0.5, 1.2], [1.0, 1.0]]))


@pytest.mark.parametrize("fn", [build(identity_params(5), 5),
                                handcrafted_substitution("sigmoid"), StepFn(0.5)],
                         ids=["PiecewiseFn", "AnalyticFn", "StepFn"])
class TestShapeFunctionContract:
    """eval and slope of every shape function share one domain and return rule."""

    @pytest.mark.parametrize("x", [np.nan, -0.1, 1.1, np.inf, -np.inf])
    def test_domain_errors(self, fn, x):
        message = "outside" if np.isfinite(x) else "finite"
        with pytest.raises(DomainError, match=message):
            fn.eval(x)
        with pytest.raises(DomainError, match=message):
            fn.slope(x)
        with pytest.raises(DomainError, match=message):
            fn.eval(np.array([0.5, x]))

    def test_domain_edges(self, fn):
        empty = fn.eval(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        assert fn.eval(-0.0) == 0.0
        assert fn.eval(np.array([-0.0, 1.0])).shape == (2,)
        with pytest.raises(DomainError, match="outside"):
            fn.eval(np.nextafter(1.0, 2.0))
        with pytest.raises(DomainError, match="outside"):
            fn.eval(np.array([0.5, np.nextafter(0.0, -1.0)]))
        with pytest.raises(DomainError, match="finite"):
            fn.eval(np.array(np.nan))
        with pytest.raises(DomainError, match="finite"):
            fn.slope(np.array(np.nan))

    def test_one_nan_in_a_large_array(self, fn):
        x = np.linspace(0.0, 1.0, 100_001)
        x[54_321] = np.nan
        with pytest.raises(DomainError, match="finite"):
            fn.eval(x)
        with pytest.raises(DomainError, match="finite"):
            fn.eval_with_slope(x, x > 0.5)

    @pytest.mark.parametrize("x", [0.3, np.float64(0.3), np.array(0.3)],
                             ids=["float", "numpy-scalar", "0-d"])
    def test_scalar_input_gives_float(self, fn, x):
        assert type(fn.eval(x)) is float
        assert type(fn.slope(x)) is float

    def test_array_input_gives_array(self, fn):
        x = np.array([0.0, 0.3, 0.7, 1.0])
        for out in (fn.eval(x), fn.slope(x)):
            assert isinstance(out, np.ndarray) and out.shape == x.shape
