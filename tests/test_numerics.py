import math
import warnings

import numpy as np
import pytest

from rlflab.numerics import (
    EmptyBallError,
    GridError,
    QuadratureBudgetError,
    ball_average,
    ball_measure,
    grid_integral,
    integrate_1d,
    make_grid,
    row_norms,
)


class TestMakeGrid:
    def test_1d_half_spacing(self):
        g = make_grid(1, 1.0, 0.5)
        assert g.n_points == 5
        np.testing.assert_allclose(
            g.points[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0]
        )

    def test_2d_unit_spacing_keeps_axis_points_only(self):
        g = make_grid(2, 1.0, 1.0 - 1e-12)
        # the four corners (+-1, +-1) lie outside the unit ball
        assert g.n_points == 5

    def test_1d_fine(self):
        assert make_grid(1, 1.0, 0.01).n_points == 201

    def test_cell_volume(self):
        assert make_grid(2, 1.0, 0.25).cell_volume == 0.25**2

    def test_rejects_degenerate_spacing(self):
        with pytest.raises(GridError):
            make_grid(1, 1.0, 1.0)
        with pytest.raises(GridError):
            make_grid(1, 1.0, 2.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(GridError):
            make_grid(4, 1.0, 0.1)

    def test_rejects_non_finite_radius(self):
        with pytest.raises(GridError, match="must be finite"):
            make_grid(1, math.inf, 0.05)

    def test_rejects_cube_past_index_range(self):
        # 4e150 points per axis: numpy cannot index the cube, whatever the
        # memory
        with pytest.raises(GridError, match="cannot allocate"):
            make_grid(1, 1e149, 0.05)

    def test_deterministic_ordering(self):
        a = make_grid(2, 1.5, 0.3)
        b = make_grid(2, 1.5, 0.3)
        assert np.array_equal(a.indices, b.indices)
        assert a == b


class TestRestrict:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_make_grid(self, d):
        big = make_grid(d, 1.0, 0.1)
        for r in (0.5, 0.55, 0.999, 1.0):
            sub, rows = big.restrict(r)
            direct = make_grid(d, r, 0.1)
            assert sub == direct
            assert np.array_equal(sub.points, direct.points)
            assert np.array_equal(big.indices[rows], direct.indices)

    def test_rejects_radius_outside(self):
        big = make_grid(2, 1.0, 0.1)
        with pytest.raises(GridError, match="exceeds the grid radius"):
            big.restrict(1.2)
        with pytest.raises(GridError, match="smaller than radius"):
            big.restrict(0.1)


class TestRowNorms:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_silent_and_finite_far_out(self, d):
        # sqrt(sum(x * x)) where that is finite, bit for bit; hypot where
        # the sum of squares overflows; inf or NaN on non-finite rows; and
        # no overflow warning on stderr
        rng = np.random.default_rng(3)
        near = rng.uniform(-2.0, 2.0, (50, d))
        far = np.full((3, d), 1e300) * np.array([[1.0], [-1.0], [0.5]])
        bad = np.zeros((2, d))
        bad[0, 0], bad[1, -1] = -np.inf, np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = row_norms(np.vstack([near, far, bad]))
        assert np.array_equal(got[:50], np.sqrt(np.sum(near * near, axis=1)))
        np.testing.assert_allclose(
            got[50:53], np.array([1.0, 1.0, 0.5]) * 1e300 * math.sqrt(d),
            rtol=1e-15,
        )
        assert got[53] == np.inf and np.isnan(got[54])

    def test_ball_mask_far_out(self):
        g = make_grid(2, 1.0, 0.5)
        pts = np.array([[1e300, 1e300], [0.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.ball_mask(1e301, pts).tolist() == [True, True]


class TestBallAverage:
    def test_constant(self):
        g = make_grid(2, 1.0, 0.2)
        samples = np.full(g.n_points, 3.25)
        assert ball_average(g, samples, (0.0, 0.0), 0.7) == pytest.approx(3.25)

    def test_square_converges_to_third(self):
        # average of x^2 on [-1, 1] is 1/3; first order in h
        errs = []
        for h in (0.02, 0.01, 0.005):
            g = make_grid(1, 1.0, h)
            x = g.points[:, 0]
            errs.append(abs(ball_average(g, x * x, 0.0, 1.0) - 1.0 / 3.0))
        assert errs[0] < 1e-2
        assert errs[2] < errs[1] < errs[0]

    def test_odd_function_zero(self):
        g = make_grid(1, 1.0, 0.01)
        assert ball_average(g, g.points[:, 0], 0.0, 1.0) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_abs_first_order_in_h(self):
        # Lipschitz integrand |x|: analytic ball average over B(0,1) is 1/2
        errs = []
        for h in (0.1, 0.05, 0.025):
            g = make_grid(1, 1.0, h)
            avg = ball_average(g, np.abs(g.points[:, 0]), 0.0, 1.0)
            errs.append(abs(avg - 0.5))
        assert errs[1] <= 0.65 * errs[0]
        assert errs[2] <= 0.65 * errs[1]

    def test_empty_ball(self):
        g = make_grid(1, 1.0, 0.2)
        with pytest.raises(EmptyBallError):
            ball_average(g, g.points[:, 0], 5.0, 0.05)


class TestBallMeasure:
    def test_values(self):
        assert ball_measure(1, 1.0) == 2.0
        assert ball_measure(2, 1.0) == pytest.approx(np.pi)
        assert ball_measure(3, 2.0) == pytest.approx(4.0 / 3.0 * np.pi * 8.0)
        assert ball_measure(1, 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(GridError):
            ball_measure(1, -1.0)


class TestIntegrate1d:
    def test_constant(self):
        res = integrate_1d(lambda s: 1.0, 0.0, 1.0, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.nodes >= 1

    def test_log_kernel(self):
        res = integrate_1d(lambda s: 1.0 / (s + 1.0), 0.0, np.e - 1.0, 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_cubic_exact(self):
        for coeffs in ((1.0, 0.0, 0.0, 0.0), (0.2, -1.0, 3.0, 0.5)):
            a, b, c, d = coeffs
            f = lambda s: a * s**3 + b * s**2 + c * s + d
            exact = a / 4.0 + b / 3.0 + c / 2.0 + d
            res = integrate_1d(f, 0.0, 1.0, 1e-9)
            assert res.value == pytest.approx(exact, abs=1e-12)

    def test_near_singular_vs_trapezoid_oracle(self):
        # independent oracle: fixed-step trapezoid with 1e7 nodes
        delta = 1e-3
        f = lambda s: 1.0 / (s * np.log(1.0 / s) + delta) if s > 0 else 1.0 / delta
        xs = np.linspace(0.0, 0.1, 10_000_001)
        vals = np.empty_like(xs)
        vals[0] = 1.0 / delta
        pos = xs[1:]
        vals[1:] = 1.0 / (pos * np.log(1.0 / pos) + delta)
        oracle = np.trapezoid(vals, xs)
        res = integrate_1d(f, 0.0, 0.1, 1e-8)
        assert abs(res.value - oracle) <= 1e-7

    def test_budget_error(self):
        # a fast oscillation needs far more than the allotted nodes
        f = lambda s: np.sin(1e6 * s)
        with pytest.raises(QuadratureBudgetError):
            integrate_1d(f, 0.0, 1.0, 1e-12, max_nodes=2000)

    def test_empty_interval(self):
        assert integrate_1d(lambda s: 5.0, 2.0, 2.0, 1e-8).value == 0.0


def test_grid_integral_matches_measure():
    g = make_grid(1, 1.0, 0.01)
    assert grid_integral(g, np.ones(g.n_points)) == pytest.approx(2.01)
