import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rlflab.estimates import weak_type_check
from rlflab.fields import (
    CATALOG,
    SERIES_DIRECT_TERMS,
    SERIES_TAIL_STEP,
    WITNESS_HEADROOM,
    CalibrationError,
    FieldError,
    MollifierKernel,
    SeriesEvaluator,
    _near_pairs,
    _tail_cache_path,
    _tail_table,
    calibrate_witness_constant,
    catalog_field,
    divergence_negative_part,
    dyadic_radii,
    maximal_function,
    measure_osgood_constant,
    mollify,
    series_deriv_direct,
    series_direct,
    sobolev_profile,
)
from rlflab.modulus import ModulusOfContinuity
from rlflab.numerics import ball_average, grid_integral, make_grid

PI2_6 = math.pi**2 / 6.0


def table_backed(series, x):
    """Exact V_16 plus the tail lerp at the folded points: the series as the
    mollified levels read it."""
    ax = np.fmod(np.abs(x), math.pi)
    ax = np.minimum(ax, math.pi - ax)
    return series_direct(ax, SERIES_DIRECT_TERMS) + series.tail(ax)


class TestSeries:
    def test_recurrence_matches_numpy(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-4.0, 4.0, 500)
        k = np.arange(1, 301)
        ref = (np.abs(np.sin(np.outer(x, k))) / k**2).sum(axis=1)
        np.testing.assert_allclose(series_direct(x, 300), ref, atol=1e-12)

    def test_partial_sum_at_half_pi(self, osgood):
        # odd harmonics only: sum over odd k <= K of 1/k^2 -> pi^2/8
        val = osgood(0.0, np.array([[np.pi / 2.0]]))[0, 0]
        assert abs(val - np.pi**2 / 8.0) <= 1.0 / 1000.0

    def test_sup_bound(self, osgood):
        xs = np.linspace(-6.0, 6.0, 40001)[:, None]
        vals = osgood(0.0, xs)[:, 0]
        assert vals.max() <= PI2_6
        assert vals.min() >= 0.0
        assert osgood.sup_bound == pytest.approx(PI2_6)

    def test_hybrid_matches_direct(self, osgood):
        # far points read the half-period table through the fold
        for span in (5.9, 60.0):
            xs = np.random.default_rng(5).uniform(-span, span, 3000)
            hybrid = table_backed(osgood.series, xs)
            exact = series_direct(xs, 1000)
            assert np.max(np.abs(hybrid - exact)) <= 5e-8

    def test_far_outside_table_falls_back(self, osgood):
        xs = np.array([7.5, -11.0])
        np.testing.assert_allclose(
            table_backed(osgood.series, xs), series_direct(xs, 1000), atol=1e-12
        )

    def test_base_field_is_exact_series(self, osgood):
        x = np.random.default_rng(6).uniform(-60.0, 60.0, (500, 1))
        assert np.array_equal(osgood(0.0, x), series_direct(x, 1000))

    @pytest.mark.parametrize("K", [1, 16, 100, 1000])
    def test_c2_covers_increments_from_zero(self, K):
        # the pair (s, 0) needs (g(s) + g(0)) rho(s) = c2 H rho(s) in d = 1,
        # with H the witness headroom; s on a geometric grid of [1e-6, 3]
        s = np.geomspace(1e-6, 3.0, 100_001)
        ratio = np.abs(series_direct(s, K) - series_direct(0.0, K))
        ratio /= ModulusOfContinuity("log")(s)
        assert measure_osgood_constant(K) * WITNESS_HEADROOM >= ratio.max()

    def test_table_covers_half_period(self):
        assert len(_tail_table(100)) == round(math.pi / 2 / SERIES_TAIL_STEP) + 2

    @pytest.mark.parametrize("planted", ["zeros", "K100", "empty"])
    def test_wrong_disk_table_is_rebuilt(self, tmp_path, monkeypatch, planted):
        monkeypatch.setenv("RLFLAB_CACHE", str(tmp_path))
        _tail_table.cache_clear()
        try:
            path = _tail_cache_path(200)
            if planted == "empty":
                open(path, "wb").close()
            elif planted == "zeros":
                np.save(path, np.zeros_like(_tail_table(100)))
            else:  # right shape, wrong truncation
                np.save(path, _tail_table(100))
            _tail_table.cache_clear()
            series = SeriesEvaluator(200)
            xs = np.random.default_rng(9).uniform(-3.0, 3.0, 2000)
            hybrid = table_backed(series, xs)
            assert np.max(np.abs(hybrid - series_direct(xs, 200))) <= 5e-8
            np.testing.assert_array_equal(np.load(path), _tail_table(200))
            # rewritten through a renamed temp file: no temp file is left
            tables = {path, _tail_cache_path(100)}
            assert {str(p) for p in tmp_path.iterdir()} <= tables
        finally:
            _tail_table.cache_clear()

    def test_c2_measured_finite_and_stable(self):
        c_small = measure_osgood_constant(100)
        c_large = measure_osgood_constant(1000)
        assert 0.0 < c_small < 10.0
        assert abs(c_large / c_small - 1.0) < 0.25

    def test_nan_propagates(self, osgood):
        x = np.array([[np.nan], [0.5], [np.inf], [-np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = osgood(0.0, x)
        assert np.all(np.isnan(out[[0, 2, 3], 0])) and np.isfinite(out[1, 0])


class TestCatalog:
    def test_constant(self):
        f = catalog_field("constant", 1, value=1.0)
        x = np.linspace(-2, 2, 11)[:, None]
        np.testing.assert_array_equal(f(0.0, x)[:, 0], np.ones(11))
        assert f.sup_bound == 1.0
        assert np.all(f.witness(0.0, x) == 0.0)

    def test_constant_sup_bound_past_square_range(self):
        # |v|^2 overflows at 1e200, |v| does not; past the float range in d = 2
        assert catalog_field("constant", 1, value=1e200).sup_bound == 1e200
        two = catalog_field("constant", 2, value=1e200).sup_bound
        assert two == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        with pytest.raises(FieldError, match="sup bound must be finite"):
            catalog_field("constant", 2, value=1.7e308)

    @pytest.mark.parametrize("alpha, cap", [(0.3, 1e-300), (0.1, 1e-40)])
    def test_sobolev_cap_radius_past_float_range(self, alpha, cap):
        # cap^(-1/alpha) overflows: the plateau cap e1 covers every point
        f = catalog_field("sobolev-singular", 1, alpha=alpha, cap=cap)
        x = np.array([[0.0], [1e-9], [2.0], [1e100]])
        np.testing.assert_array_equal(f(0.0, x)[:, 0], np.full(4, cap))
        np.testing.assert_array_equal(f.divergence(0.0, x), np.zeros(4))
        np.testing.assert_array_equal(f.witness(0.0, x), np.zeros(4))

    def test_unknown_id(self):
        with pytest.raises(FieldError, match="catalog"):
            catalog_field("vortex", 2)

    def test_sobolev_alpha_validation(self):
        with pytest.raises(FieldError):
            catalog_field("sobolev-singular", 1, alpha=1.5)
        with pytest.raises(FieldError):
            catalog_field("sobolev-singular", 1, alpha=0.0)

    def test_sobolev_profile(self, sobolev):
        x = np.array([[0.5], [-0.5], [1e-9], [0.0]])
        vals = sobolev(0.0, x)
        assert vals[0, 0] == pytest.approx(0.5**-0.3)
        assert vals[1, 0] == pytest.approx(0.5**-0.3)
        assert vals[2, 0] == 10.0  # capped near the singularity
        assert vals[3, 0] == 10.0
        assert sobolev.sup_bound == 10.0
        assert sobolev.witness is not None

    @pytest.mark.parametrize("d, alpha", [(1, 0.3), (2, 0.3), (2, 1.5)])
    def test_sobolev_profile_matches_gather_formula(self, d, alpha):
        # min(r^-alpha, cap) off the origin, cap at it, NaN where a
        # coordinate is not finite, as the masked gather-and-scatter form
        # computes it; r is the hypot where the sum of squares overflows
        cap = 10.0
        r_cap = cap ** (-1.0 / alpha)
        radii = [
            0.0,
            1e-320,
            np.nextafter(r_cap, 0.0),
            r_cap,
            np.nextafter(r_cap, np.inf),
            0.5,
            1e300,
            np.inf,
            np.nan,
        ]
        rows = [[r] + [0.0] * (d - 1) for r in radii]
        if d == 2:
            rows += [[0.6 * r, -0.8 * r] for r in radii]
        pts = np.array(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.sqrt(np.sum(pts * pts, axis=1))
            over = ~np.isfinite(r) & np.isfinite(pts).all(axis=1)
            r[over] = np.hypot.reduce(pts[over], axis=1)
            want = np.full_like(r, cap)
            pos = r > 0.0
            want[pos] = np.minimum(r[pos] ** (-alpha), cap)
            want[~np.isfinite(r)] = np.nan
            got, got_r = sobolev_profile(pts, alpha, cap)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got_r, r, equal_nan=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # r = 0 warns of no division
            assert sobolev_profile(np.zeros((1, d)), alpha, cap)[0][0] == cap

    @pytest.mark.parametrize("d", [1, 2])
    def test_sobolev_finite_far_out(self, d):
        # |x|^-alpha = 1e-90 at |x| = 1e300, past where |x|^2 overflows
        field = catalog_field("sobolev-singular", d)
        pts = np.zeros((2, d))
        pts[:, 0] = [1e300, -1e300]
        with np.errstate(over="ignore"):
            vals = field(0.0, pts)
        np.testing.assert_allclose(vals[:, 0], 1e-90, rtol=1e-12)
        assert np.all(vals[:, 1:] == 0.0)

    @pytest.mark.parametrize(
        "name", ["sobolev", "sobolev_2d", "combined", "linear", "linear_2d"]
    )
    def test_silent_far_out(self, request, name):
        # |x|^2 overflows at (1e300, ..., 1e300); the field, its speed, its
        # divergence and its witness are finite there and warn of nothing
        if name.startswith("linear"):
            field = catalog_field("linear", 2 if name.endswith("2d") else 1)
        else:
            field = request.getfixturevalue(name)
        pts = np.full((1, field.dimension), 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for part in (field, field.speed, field.divergence, field.witness):
                assert np.isfinite(part(0.0, pts)).all()

    @pytest.mark.parametrize("name", ["sobolev", "sobolev_2d", "combined"])
    def test_witness_nan_where_field_nan(self, request, name):
        # at a point with a non-finite coordinate the witness reads NaN, as
        # the field does, not the 0 of r = inf outside the cap plateau
        field = request.getfixturevalue(name)
        pts = np.zeros((3, field.dimension))
        pts[0], pts[1, 0], pts[2, -1] = np.inf, -np.inf, np.nan
        with np.errstate(invalid="ignore"):
            assert np.isnan(field(0.0, pts)[:, 0]).all()
            assert np.isnan(field.witness(0.0, pts)).all()

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("field_id", list(CATALOG))
    def test_nan_rows_at_non_finite_points(self, request, field_id, d):
        # on a row with a non-finite coordinate the speed, the divergence
        # and the witness read NaN, and no part of the field warns
        fixture = {
            ("osgood-sum", 1): "osgood",
            ("sobolev-singular", 1): "sobolev",
            ("sobolev-singular", 2): "sobolev_2d",
            ("combined", 1): "combined",
        }.get((field_id, d))
        if fixture:
            field = request.getfixturevalue(fixture)
        else:
            field = catalog_field(field_id, d)
        pts = np.zeros((3, d))
        pts[0, 0], pts[1, -1], pts[2, 0] = np.inf, -np.inf, np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field(0.0, pts)
            for part in (field.speed, field.divergence, field.witness):
                assert np.isnan(part(0.0, pts)).all(), part

    def test_linear_inside_flat_region(self, linear_contracting):
        x = np.array([[0.5], [-1.0], [2.0]])
        np.testing.assert_allclose(
            linear_contracting(0.0, x), -x, atol=1e-14
        )

    def test_combined_is_sum(self, combined):
        x = np.array([[0.7], [-0.3]])
        sob = catalog_field("sobolev-singular", 1, alpha=0.3, cap=2.0)
        expect = sob(0.0, x)[:, 0] + series_direct(x[:, 0], 1000)
        np.testing.assert_allclose(combined(0.0, x)[:, 0], expect, atol=1e-7)

    def test_hybrid_continuity_ratio_off_singular_zone(self, combined):
        # |b(x)-b(y)| <= (W(x)+W(y)) rho(|x-y|) on grid pairs away from 0
        grid = make_grid(1, 1.5, 0.01)
        rng = np.random.default_rng(11)
        ia = rng.integers(0, grid.n_points, 20000)
        ib = rng.integers(0, grid.n_points, 20000)
        pts = grid.points
        keep = (
            (ia != ib)
            & (np.abs(pts[ia, 0]) > 0.02)
            & (np.abs(pts[ib, 0]) > 0.02)
        )
        ia, ib = ia[keep], ib[keep]
        num = np.abs(combined(0.0, pts[ia])[:, 0] - combined(0.0, pts[ib])[:, 0])
        den = (
            combined.witness(0.0, pts[ia]) + combined.witness(0.0, pts[ib])
        ) * combined.modulus(np.abs(pts[ia, 0] - pts[ib, 0]))
        assert np.max(num / den) <= 1.0 + 1e-6


class TestKernel:
    def test_mass_within_contract(self):
        for d in (1, 2):
            for n in (4, 32):
                mass = MollifierKernel(n).nodes_weights(d)[2]
                assert abs(mass - 1.0) <= 1e-6

    def test_mass_3d(self):
        assert abs(MollifierKernel(2).nodes_weights(3)[2] - 1.0) <= 1e-6

    def test_nonnegative_and_supported(self):
        k = MollifierKernel(8)
        nodes, weights, _ = k.nodes_weights(1)
        assert np.all(weights >= 0.0)
        assert np.all(np.abs(nodes) <= 1.0 / 8.0)

    def test_validation(self):
        with pytest.raises(FieldError):
            MollifierKernel(0)


class TestMollify:
    def test_constant_exact(self):
        f = catalog_field("constant", 1, value=2.5)
        x = np.linspace(-1, 1, 7)[:, None]
        for n in (1, 4, 16):
            fn = mollify(f, MollifierKernel(n))
            np.testing.assert_array_equal(fn(0.0, x)[:, 0], np.full(7, 2.5))

    def test_linear_exact_away_from_truncation(self, linear_contracting):
        fn = mollify(linear_contracting, MollifierKernel(8))
        x = np.linspace(-2, 2, 9)[:, None]
        np.testing.assert_allclose(fn(0.0, x), -x, atol=1e-13)

    def test_osgood_vs_high_resolution_convolution(self, osgood, moll):
        # oracle: 1e5-node midpoint convolution of the exact partial sums
        kernel = MollifierKernel(8)
        n_nodes = 100_000
        zs = (-1.0 + (np.arange(n_nodes) + 0.5) * 2.0 / n_nodes) / 8.0
        wts = kernel.density(zs[:, None], 1) * (2.0 / 8.0 / n_nodes)
        wts /= wts.sum()
        c2 = measure_osgood_constant(1000)
        bound = c2 * osgood.modulus(1.0 / 8.0)
        for x in (0.0, 0.5, 1.0):
            oracle = float(series_direct(x - zs, 1000) @ wts)
            impl = float(moll[8](0.0, np.array([[x]]))[0, 0])
            base = float(series_direct(np.array([x]), 1000)[0])
            assert abs(impl - oracle) <= 1e-3
            assert abs(impl - base) <= bound

    def test_sup_contraction_on_grid(self, osgood, moll, grid_b1):
        for n, fn in moll.items():
            vals = np.abs(fn(0.0, grid_b1.points)[:, 0])
            assert vals.max() <= osgood.sup_bound

    def test_witness_transfer_ratio(self, osgood, moll, grid_b1):
        # mollification preserves the continuity certificate at every level
        rng = np.random.default_rng(7)
        ia = rng.integers(0, grid_b1.n_points, 10000)
        ib = rng.integers(0, grid_b1.n_points, 10000)
        keep = ia != ib
        ia, ib = ia[keep], ib[keep]
        xa, xb = grid_b1.points[ia], grid_b1.points[ib]
        sep = osgood.modulus(np.abs(xa[:, 0] - xb[:, 0]))
        for n, fn in moll.items():
            num = np.abs(fn(0.0, xa)[:, 0] - fn(0.0, xb)[:, 0])
            den = (fn.witness(0.0, xa) + fn.witness(0.0, xb)) * sep
            assert np.max(num / den) <= 1.0 + 1e-6

    def test_mollified_constant_witness_value(self, osgood, moll):
        x = np.zeros((1, 1))
        want = osgood.witness(0.0, x)[0]
        for fn in moll.values():
            assert fn.witness(0.0, x)[0] == pytest.approx(want, rel=1e-12)

    def test_l1_convergence_monotone(self, osgood, moll):
        grid = make_grid(1, 2.65, 0.01)
        norms = []
        for n in (4, 8, 16, 32):
            fn = moll[n]
            diff = np.abs(fn(0.0, grid.points)[:, 0] - osgood(0.0, grid.points)[:, 0])
            norms.append(grid_integral(grid, diff))
        for a, b in zip(norms, norms[1:]):
            assert b <= a * 1.10

    def test_l1_convergence_other_fields(self):
        grid = make_grid(1, 2.0, 0.01)
        for cid in ("constant", "linear", "sobolev-singular"):
            f = catalog_field(cid, 1)
            norms = []
            for n in (4, 8, 16, 32):
                fn = mollify(f, MollifierKernel(n))
                diff = np.sqrt(
                    np.sum((fn(0.0, grid.points) - f(0.0, grid.points)) ** 2, axis=1)
                )
                norms.append(grid_integral(grid, diff))
            for a, b in zip(norms, norms[1:]):
                assert b <= a * 1.10 + 1e-15

    def test_quadrature_rows_are_independent(self, sobolev):
        # the generic quadrature runs in blocks of points; a row's value
        # does not depend on the block it falls in
        fn = mollify(sobolev, MollifierKernel(4))
        x = np.linspace(-2.0, 2.0, 400)[:, None]
        full = fn(0.0, x)
        for i, j in ((0, 1), (166, 168), (334, 335), (100, 400)):
            assert np.array_equal(fn(0.0, x[i:j]), full[i:j])

    def test_witness_rows_are_independent(self, sobolev):
        # the witness runs the field's blocked quadrature: a point's value
        # does not depend on how many points share the call
        fn = mollify(sobolev, MollifierKernel(16))
        x = make_grid(1, 1.1, 0.01).points
        full = fn.witness(0.0, x)
        rows = [fn.witness(0.0, x[i : i + 7]) for i in range(0, len(x), 7)]
        assert np.array_equal(np.concatenate(rows), full)

    def test_witness_memory_is_blocked(self, moll):
        x = np.linspace(-1.0, 1.0, 200_001)[:, None]
        tracemalloc.start()
        try:
            vals = moll[4].witness(0.0, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(vals) == len(x)
        # 1.6 MB of output; the 49 shifted copies of x alone take 78 MB
        assert peak <= 16e6

    def test_combined_mollifies_by_linearity(self, combined):
        kernel = MollifierKernel(8)
        fn = mollify(combined, kernel)
        sob, osc = (mollify(p, kernel) for p in combined.parts)
        x = np.linspace(-2.0, 2.0, 401)[:, None]
        assert np.array_equal(fn(0.0, x), sob(0.0, x) + osc(0.0, x))
        assert np.array_equal(
            fn.divergence(0.0, x), sob.divergence(0.0, x) + osc.divergence(0.0, x)
        )
        # the field's own witness, convolved once, not the parts' witnesses
        base = replace(combined.parts[1], witness=combined.witness)
        want = mollify(base, kernel).witness
        assert np.array_equal(fn.witness(0.0, x), want(0.0, x))

    def test_double_mollify_rejected(self, moll):
        with pytest.raises(FieldError):
            mollify(moll[4], MollifierKernel(8))


class TestDivergence:
    def test_contracting_linear(self, linear_contracting):
        grid = make_grid(1, 1.0, 0.1)
        sup = divergence_negative_part(linear_contracting, grid)
        assert sup == pytest.approx(1.0, abs=1e-12)

    def test_constant_zero(self, constant_unit):
        grid = make_grid(1, 1.0, 0.1)
        sup = divergence_negative_part(constant_unit, grid)
        assert sup == 0.0

    def test_mollified_fd_vs_termwise_oracle(self, osgood, moll):
        # termwise-differentiated series pushed through the same kernel
        # quadrature, versus central finite differences of the evaluator
        kernel = MollifierKernel(16)
        nodes, w, mass = kernel.nodes_weights(1)
        wn = w / mass
        xs = np.linspace(0.05, 0.95, 10)[:, None]
        shifted = (xs[:, None, :] - nodes[None, :, :]).reshape(-1)
        oracle = (
            series_deriv_direct(np.abs(shifted), 1000) * np.sign(shifted)
        ).reshape(10, len(wn)) @ wn
        fd = moll[16].divergence(0.0, xs)
        assert np.max(np.abs(fd - oracle)) <= 1e-3


class TestMaximal:
    def test_constant_five(self):
        grid = make_grid(1, 2.0, 0.05)
        mf = maximal_function(grid, np.full(grid.n_points, 5.0), 1.0)
        np.testing.assert_allclose(mf, 5.0, atol=1e-12)

    def test_zero(self):
        grid = make_grid(1, 2.0, 0.05)
        mf = maximal_function(grid, np.zeros(grid.n_points), 1.0)
        assert np.all(mf == 0.0)

    def test_dominates_pointwise(self):
        grid = make_grid(1, 2.0, 0.05)
        rng = np.random.default_rng(0)
        f = rng.uniform(-1.0, 1.0, grid.n_points)
        mf = maximal_function(grid, f, 1.0)
        assert np.all(mf >= np.abs(f) - 1e-15)

    def test_indicator_vs_bruteforce(self):
        # f = indicator of [-1, 1] on a grid over B(6), cap 4, at x = 2
        grid = make_grid(1, 6.0, 0.05)
        x = grid.points[:, 0]
        f = (np.abs(x) <= 1.0).astype(float)
        mf = maximal_function(grid, f, 4.0)
        target = int(np.argmin(np.abs(x - 2.0)))
        # brute force over the same dyadic radii, by direct masking
        best = f[target]
        for r in dyadic_radii(4.0, grid.spacing):
            mask = np.abs(x - x[target]) <= r * (1.0 + 1e-12)
            best = max(best, f[mask].mean())
        assert mf[target] == pytest.approx(best, abs=1e-12)
        # at radius 4 the overlap is 2 over diameter 8
        assert mf[target] >= 0.25 - 0.02

    def test_dyadic_radii_stop_below_the_spacing(self):
        # a depth past the spacing costs nothing: the radii are the same
        want = dyadic_radii(2.0, 0.01, 7)
        assert len(want) == 8 and want[-1] >= 0.01
        np.testing.assert_array_equal(dyadic_radii(2.0, 0.01, sys.maxsize), want)

    def test_2d_constant_and_domination(self):
        grid = make_grid(2, 1.0, 0.1)
        mf = maximal_function(grid, np.full(grid.n_points, 2.0), 0.5)
        np.testing.assert_allclose(mf, 2.0, atol=1e-12)

    @pytest.mark.parametrize(
        "dimension, radius, cap",
        [
            (1, 1.0, 1.0),
            (1, 1.0, 2.5),
            (2, 1.0, 1.0),
            (2, 1.0, 2.0),
            (2, 1.0, 2.5),
            (3, 0.5, 0.5),
            (3, 0.5, 1.0),
        ],
    )
    def test_matches_ball_average(self, dimension, radius, cap):
        # every point and every radius against the masked average of
        # numerics; caps of 2 and 2.5 grid radii give balls wider than the box
        grid = make_grid(dimension, radius, 0.1)
        f = np.random.default_rng(dimension).uniform(-1.0, 1.0, grid.n_points)
        radii = dyadic_radii(cap, grid.spacing)
        assert radii.max() == cap and len(radii) >= 3
        for r in radii:
            mf = maximal_function(grid, f, cap, radii=[r])
            avg = [ball_average(grid, np.abs(f), x, r) for x in grid.points]
            np.testing.assert_allclose(
                mf, np.maximum(np.abs(f), avg), rtol=1e-13, atol=0.0
            )

    def test_radii_validation(self):
        grid = make_grid(1, 1.0, 0.05)
        with pytest.raises(FieldError):
            maximal_function(grid, np.ones(grid.n_points), 1.0, radii=[0.01])


class TestWeakType:
    def test_zero_function(self):
        grid = make_grid(1, 2.0, 0.05)
        rep = weak_type_check(grid, np.zeros(grid.n_points), 1.0, 1.0, [0.5, 0.25])
        assert all(m == 0.0 for m in rep.constants["superlevel_measures"])
        assert rep.passed

    def test_indicator_bruteforce(self):
        grid = make_grid(1, 4.0, 0.01)
        x = grid.points[:, 0]
        f = (np.abs(x) <= 1.0).astype(float)
        rep = weak_type_check(grid, f, 2.0, 2.0, [0.5])
        mf = maximal_function(grid, f, 2.0)
        inside = np.abs(x) <= 2.0 + 1e-12
        brute = float((mf[inside] > 0.5).sum()) * grid.cell_volume
        assert rep.constants["superlevel_measures"][0] == pytest.approx(brute)
        assert rep.constants["integral_abs_f"] == pytest.approx(2.0, rel=1e-2)

    def test_constant_superlevel_full_ball(self):
        grid = make_grid(1, 2.0, 0.01)
        f = np.full(grid.n_points, 2.0)
        rep = weak_type_check(grid, f, 1.0, 1.0, [0.5])
        # M f = 2 everywhere, so the superlevel set is all of B(1)
        assert rep.constants["superlevel_measures"][0] == pytest.approx(
            2.0, rel=2e-2
        )


def _unit_grad(t, pts):
    return np.ones(len(pts))


def _zero_grad(t, pts):
    return np.zeros(len(pts))


class TestCalibration:
    def test_linear_exact_half(self):
        f = catalog_field("linear", 1, slope=1.0)
        grid = make_grid(1, 1.0, 0.01)
        c, _ = calibrate_witness_constant(f, grid, _unit_grad, 2000, seed=1)
        assert c == pytest.approx(0.5, abs=1e-12)

    def test_constant_zero(self):
        f = catalog_field("constant", 1, value=3.0)
        grid = make_grid(1, 1.0, 0.01)
        c, _ = calibrate_witness_constant(f, grid, _zero_grad, 2000)
        assert c == 0.0

    def test_sobolev_two_sample_stability(self):
        f = catalog_field("sobolev-singular", 1, alpha=0.3, cap=10.0)
        grid = make_grid(1, 2.0, 0.01)
        from rlflab.fields import _sobolev_grad

        def grad(t, pts):
            return _sobolev_grad(pts, 0.3, 10.0 ** (-1.0 / 0.3))

        c1, _ = calibrate_witness_constant(f, grid, grad, 10_000, seed=101)
        c2, _ = calibrate_witness_constant(f, grid, grad, 10_000, seed=202)
        assert np.isfinite(c1) and c1 > 0.0
        assert abs(c1 / c2 - 1.0) <= 0.20

    def test_sobolev_two_d_witness(self, sobolev_2d):
        # calibration grid B(2) at h = 0.01, maximal function up to radius 4
        field = sobolev_2d
        grid = make_grid(2, 3.0, 0.05)
        g = field.witness(0.0, grid.points)
        assert np.all(np.isfinite(g)) and np.all(g >= 0.0)
        assert g.max() > 0.0  # a positive calibrated constant

    def test_near_pairs_are_neighbours(self):
        grid = make_grid(2, 1.0, 0.01)
        ia, ib = _near_pairs(grid, 20_000, np.random.default_rng(3))
        assert 0 < len(ia) <= 20_000
        dist = np.sqrt(np.sum((grid.points[ia] - grid.points[ib]) ** 2, axis=1))
        assert dist.max() <= 8 * grid.spacing * (1.0 + 1e-12)

    def test_near_pairs_are_row_offsets_in_one_d(self):
        grid = make_grid(1, 1.0, 0.01)
        ia, ib = _near_pairs(grid, 5000, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        ia_rows = rng.integers(0, grid.n_points, 5000)
        ib_rows = np.clip(ia_rows + rng.integers(1, 9, 5000), 0, grid.n_points - 1)
        np.testing.assert_array_equal(ia, ia_rows)
        np.testing.assert_array_equal(ib, ib_rows)

    def test_pair_floor(self):
        f = catalog_field("constant", 1)
        grid = make_grid(1, 1.0, 0.1)
        with pytest.raises(CalibrationError):
            calibrate_witness_constant(f, grid, _zero_grad, 10)
