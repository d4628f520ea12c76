import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from rlflab.estimates import (
    LENS_CONSTANT,
    EstimateError,
    _live_radii,
    _q_sweep,
    cauchy_diagnostic,
    compactness_a,
    field_l1_distance,
    regularity_Q,
    regularity_set,
    stability_report,
    translation_constants,
    translation_functional,
    weak_type_check,
)
from rlflab.fields import MollifierKernel, catalog_field, dyadic_radii, mollify
from rlflab.flow import integrate_ensemble
from rlflab.modulus import ModulusOfContinuity, PsiFunctional
from rlflab.numerics import (
    MEMBERSHIP_SLACK,
    ball_measure,
    grid_integral,
    make_grid,
)
from rlflab.reporting import EstimateReport, report_file_name

LIN = ModulusOfContinuity("linear")
LOG = ModulusOfContinuity("log")


def _const_ensembles(values, radius=1.0, h=0.01, horizon=1.0, tau=1e-3, level=None):
    grid = make_grid(1, radius, h)
    out = []
    for i, v in enumerate(values):
        f = catalog_field("constant", 1, value=v)
        if level is not None:
            f = mollify(f, MollifierKernel(level * (i + 1)))
        out.append((f, integrate_ensemble(f, grid, horizon, tau)))
    return grid, out


class TestStability:
    def test_same_ensemble_lhs_zero(self, ens_b1):
        rep = stability_report(ens_b1[8], ens_b1[8], 1.0, delta=0.1)
        assert rep.lhs == 0.0
        assert rep.passed

    def test_constant_pair_closed_form(self):
        grid, pairs = _const_ensembles([0.0, 0.1])
        (_, e0), (_, e1) = pairs
        delta = 0.1  # = T * |v2 - v1|
        rep = stability_report(e0, e1, 1.0, delta=delta)
        measure_r = grid_integral(grid, np.ones(grid.n_points))
        assert rep.lhs == pytest.approx(measure_r * math.log(2.0), rel=1e-9)
        # RHS: witnesses vanish, L = L~ = 1, so it is ||b - b~||_1 / delta
        wide = make_grid(1, 1.1, 0.01)
        expect_rhs = grid_integral(wide, np.full(wide.n_points, 0.1)) / delta
        assert rep.rhs == pytest.approx(expect_rhs, rel=1e-12)
        assert rep.passed

    def test_measured_delta_default(self, ens_b1):
        rep = stability_report(ens_b1[8], ens_b1[32], 1.0)
        assert rep.constants["delta"] > 0.0
        assert rep.constants["delta"] == pytest.approx(
            rep.constants["b_l1_distance"], rel=1e-12
        )
        assert rep.passed

    def test_coinciding_fields_default_delta(self):
        # two levels of one constant field: ||b - b~|| = 0, delta falls back
        _, pairs = _const_ensembles([1.0, 1.0], level=4)
        (_, e4), (_, e8) = pairs
        rep = stability_report(e4, e8, 1.0)
        assert rep.constants["b_l1_distance"] == 0.0
        assert rep.constants["delta"] == 1e-6
        assert rep.passed

    def test_every_witnessed_catalog_field_passes(self):
        # mollified pair of each catalog field, desk scale, slack 5%
        grid = make_grid(1, 1.0, 0.01)
        for cid in ("constant", "linear", "osgood-sum", "sobolev-singular", "combined"):
            base = catalog_field(cid, 1)
            fa, fb = mollify(base, MollifierKernel(8)), mollify(base, MollifierKernel(32))
            ea = integrate_ensemble(fa, grid, 1.0, 2e-3)
            eb = integrate_ensemble(fb, grid, 1.0, 2e-3)
            delta = field_l1_distance(
                fa, fb, ea.times, make_grid(1, 1.0 + base.sup_bound, 0.01)
            )
            rep = stability_report(
                ea, eb, 1.0, delta=delta if delta > 0 else 1e-6
            )
            assert rep.passed, cid

    def test_mesh_guard(self, ens_b1, ens_b15):
        with pytest.raises(EstimateError):
            stability_report(ens_b1[8], ens_b15[16], 1.0)


class TestCauchy:
    def test_levels_of_constant_field_all_zero(self):
        grid, entries = _const_ensembles([1.0, 1.0, 1.0], level=4)
        base = catalog_field("constant", 1, value=1.0)
        ens = [e for _, e in entries]
        reports = cauchy_diagnostic(base, ens, 0.05, 1.0)
        assert all(r.lhs == 0.0 for r in reports)
        assert all(r.passed for r in reports)

    def test_coinciding_levels_floor_delta(self):
        # b^n = b^m gives delta_{n,m} = 0, which psi takes as 1e-6
        _, entries = _const_ensembles([1.0, 1.0, 1.0], level=4)
        base = catalog_field("constant", 1, value=1.0)
        ens = [e for _, e in entries]
        reports = cauchy_diagnostic(base, ens, 0.05, 1.0)
        assert len(reports) == 3
        for r in reports:
            assert r.constants["delta_nm"] == 0.0
            assert r.constants["psi_delta_eta"] == pytest.approx(
                math.log(0.05 / 1e-6 + 1.0), rel=1e-10
            )

    def test_offset_constants_closed_form(self):
        # fields v_n = 1/n: sup distance is T |1/n - 1/m| at every point
        values = [1.0 / 4, 1.0 / 8, 1.0 / 16]
        grid, entries = _const_ensembles(values, level=4)
        base = catalog_field("constant", 1, value=values[0])
        ens = [e for _, e in entries]
        reports = cauchy_diagnostic(base, ens, 0.05, 1.0)
        measure = grid_integral(grid, np.ones(grid.n_points))
        levels = [f.mollification_level for f, _ in entries]
        for r in reports:
            vn = values[levels.index(r.metadata["n"])]
            vm = values[levels.index(r.metadata["m"])]
            assert r.lhs == pytest.approx(measure * abs(vn - vm), rel=1e-9)
        assert all(r.passed for r in reports)

    def test_needs_three_levels(self, osgood, ens_b1):
        with pytest.raises(EstimateError):
            cauchy_diagnostic(osgood, [ens_b1[4], ens_b1[8]], 0.05, 1.0)


class TestRegularityQ:
    def test_initial_time_below_one(self, ens_b3_top, osgood):
        for r in (0.1, 0.5, 2.0):
            q = regularity_Q(ens_b3_top, osgood.modulus, 0.25, r, 0.0)
            assert 0.0 < q <= 1.0

    def test_identity_flow_time_invariant(self):
        f = catalog_field("constant", 1, value=0.0)
        grid = make_grid(1, 1.0, 0.02)
        ens = integrate_ensemble(f, grid, 1.0, 0.01)
        q0 = regularity_Q(ens, LIN, 0.1, 0.4, 0.0)
        q1 = regularity_Q(ens, LIN, 0.1, 0.4, 1.0)
        assert q1 == pytest.approx(q0, rel=1e-12)

    def test_contraction_vs_quadrature_oracle(self):
        # X_t(x) = x e^-t, so the integrand is psi_r(e^-t |x - y|)
        f = catalog_field("linear", 1, slope=-1.0)
        grid = make_grid(1, 1.0, 0.01)
        ens = integrate_ensemble(f, grid, 1.0, 1e-3)
        x0, r, t = 0.2, 0.25, 0.5
        q = regularity_Q(ens, LIN, x0, r, t)
        ys = grid.points[:, 0]
        mask = np.abs(ys - x0) <= r * (1 + 1e-12)
        fam = PsiFunctional(LIN, r, quad_tol=1e-11)
        scale = math.exp(-t)
        oracle = np.mean([fam.psi(scale * abs(y - x0)) for y in ys[mask]])
        assert q == pytest.approx(oracle, abs=5e-4)

    def test_interior_guard(self, ens_b3_top, osgood):
        with pytest.raises(EstimateError):
            regularity_Q(ens_b3_top, osgood.modulus, 2.9, 0.5, 0.0)


class TestRegularitySet:
    def test_identity_flow_full_set(self):
        f = catalog_field("constant", 1, value=0.0)
        grid = make_grid(1, 3.0, 0.01)
        ens = integrate_ensemble(f, grid, 1.0, 0.01)
        e_rows, rep = regularity_set(ens, f, 1.0, 0.2, n_pair_samples=2000)
        assert rep.constants["deficit"] == 0.0
        assert len(e_rows) == 201  # all of the B(1) grid
        assert rep.passed
        # witness vanishes: threshold degenerates to the baseline 1
        assert rep.constants["threshold"] == 1.0

    def test_lens_constants(self):
        assert LENS_CONSTANT[1] == 2.0
        assert LENS_CONSTANT[2] == pytest.approx(2.5575, abs=2e-4)
        assert LENS_CONSTANT[3] == pytest.approx(3.2)

    def test_linear_rho_bound_matches_exponential_form(self):
        # psi_r^{-1}(t) = r (e^t - 1) for the linear modulus, probed at the
        # separations the pair check actually sees (t = log(1 + xi/r))
        for r in (0.05, 0.25, 0.8):
            fam = PsiFunctional(LIN, r, quad_tol=1e-11)
            for xi in (0.01, 0.5, 2.0, 8.0):
                t = math.log1p(xi / r)
                got = fam.psi_inverse(t, tol=1e-10)
                want = r * math.expm1(t)
                assert abs(got - want) <= 1e-6 * want

    def test_epsilon_guard(self, ens_b3_top, moll):
        with pytest.raises(EstimateError):
            regularity_set(ens_b3_top, moll[32], 1.0, 5.0)


class TestLiveRadii:
    """A radius the displacement bound skips never excludes a center."""

    @staticmethod
    def _check(ens, modulus, radii, center_radius):
        # _q_sweep over a set of radii is the elementwise max of its
        # one-radius sweeps, so each radius is swept once
        per = {r: _q_sweep(ens, modulus, [r], center_radius)[1] for r in radii}
        full = np.zeros(len(per[radii[0]]))
        for r in radii:
            full = np.maximum(full, per[r])
        move = ens.positions - ens.grid.points[:, None, :]
        reach = 2.0 * np.sqrt(np.sum(move * move, axis=2)).max()
        bounds = (radii * (1.0 + MEMBERSHIP_SLACK) + reach) / radii
        thresholds = [1.0, *np.percentile(full, [0, 25, 50, 75, 100]), *bounds]
        skipped = 0
        for threshold in thresholds:
            live = _live_radii(ens, radii, threshold)
            q_live = np.zeros_like(full)
            for r in live:
                q_live = np.maximum(q_live, per[r])
            assert np.array_equal(q_live <= threshold, full <= threshold)
            skipped += len(radii) - len(live)
        assert skipped > 0
        return full

    def test_expanding_linear_flow(self):
        # slope 3: separations grow past the radius, so Q exceeds 1 and
        # varies across centers, and the displacement D is what keeps the
        # bound above it
        f = catalog_field("linear", 1, slope=3.0)
        ens = integrate_ensemble(f, make_grid(1, 1.5, 0.02), 1.0, 0.01)
        radii = dyadic_radii(1.0, 0.02, 6)
        full = self._check(ens, f.modulus, radii, 0.5)
        assert full.min() > 1.0 and full.max() > full.min()
        np.testing.assert_array_equal(
            full, _q_sweep(ens, f.modulus, radii, 0.5)[1]
        )

    def test_mollified_osgood_flow(self, ens_b3_top, osgood):
        radii = dyadic_radii(1.0, ens_b3_top.grid.spacing, 6)
        self._check(ens_b3_top, osgood.modulus, radii, 0.5)


def _pair_check_by_distance(ens, modulus, e_rows, threshold, n_pairs, seed):
    """regularity_set's pair check with one psi_r per lattice distance r,
    for psi_r(xi_cap) and the bound, and no vacuity shortcut: (worst ratio,
    vacuous bounds, pairs checked)."""
    grid = ens.grid
    target = 2.0 * LENS_CONSTANT[grid.dimension] * threshold
    xi_cap = 2.0 * ens.growth_radius() + 1.0
    rng = np.random.default_rng(seed)
    ia = rng.choice(e_rows, n_pairs)
    ib = rng.choice(e_rows, n_pairs)
    keep = ia != ib
    ia, ib = ia[keep], ib[keep]
    diff = ens.positions[ia] - ens.positions[ib]
    max_dist = np.sqrt(np.sum(diff * diff, axis=2)).max(axis=1)
    steps = grid.indices[ia] - grid.indices[ib]
    lattice = np.sum(steps * steps, axis=1)
    bounds = np.full(len(ia), np.inf)
    for k in np.unique(lattice):
        fam = PsiFunctional(modulus, grid.spacing * math.sqrt(k))
        if fam.psi(xi_cap) <= target:
            continue
        bounds[lattice == k] = fam.psi_inverse(target, tol=1e-9)
    finite = np.isfinite(bounds)
    ratios = np.zeros_like(bounds)
    ratios[finite] = max_dist[finite] / bounds[finite]
    return float(ratios.max(initial=0.0)), int((~finite).sum()), len(ia)


class TestPairCheckShortcut:
    """The thm41 report with and without the vacuity shortcut."""

    @pytest.mark.parametrize("epsilon, fires", [(0.01, True), (0.4, False)])
    def test_report_matches_per_distance_loop(
        self, linear_contracting, epsilon, fires
    ):
        f = linear_contracting
        grid = make_grid(1, 0.75, 0.01)
        ens = integrate_ensemble(f, grid, 0.01, 0.005)
        e_rows, rep = regularity_set(ens, f, 0.25, epsilon, n_pair_samples=500)
        threshold = rep.constants["threshold"]
        target = 2.0 * LENS_CONSTANT[1] * threshold
        xi_cap = rep.constants["xi_cap"]
        closest = PsiFunctional(f.modulus, grid.spacing).psi(xi_cap)
        assert (closest + 1e-6 <= target) == fires
        assert (threshold == 1.0) != fires
        worst, n_vacuous, n_pairs = _pair_check_by_distance(
            ens, f.modulus, e_rows, threshold, 500, 20260809
        )
        assert (worst > 0.0) != fires  # some bound is finite
        deficit_ok = rep.constants["deficit"] <= epsilon * (1.0 + rep.slack)
        lhs = worst if deficit_ok else max(worst, 2.0 + rep.slack)
        expect = EstimateReport(
            "thm41",
            lhs,
            1.0,
            {**rep.constants, "n_vacuous_bounds": n_vacuous, "n_pairs": n_pairs},
            rep.metadata,
            rep.slack,
            0.0,
        )
        assert rep.to_json() == expect.to_json()
        assert 0 < n_pairs < 500  # the draws with ia == ib are not checked

    def test_no_pairs_below_two_rows(self):
        # B(R) with R below the spacing holds the origin alone
        f = catalog_field("constant", 1, value=0.0)
        ens = integrate_ensemble(f, make_grid(1, 0.5, 0.1), 0.1, 0.05)
        e_rows, rep = regularity_set(ens, f, 0.05, 0.05)
        assert len(e_rows) == 1
        assert rep.constants["n_pairs"] == rep.constants["n_vacuous_bounds"] == 0


class TestPairBounds:
    def test_one_psi_inverse_per_lattice_distance(
        self, linear_contracting, monkeypatch
    ):
        # rounding splits one lattice distance h sqrt(k) into several float
        # separations; the pairs at that distance still share one inverse
        f = linear_contracting
        grid = make_grid(1, 0.75, 0.01)
        ens = integrate_ensemble(f, grid, 0.01, 0.005)
        deltas = []
        inverse = PsiFunctional.psi_inverse

        def counted(self, t, tol=1e-10):
            deltas.append(self.delta)
            return inverse(self, t, tol)

        monkeypatch.setattr(PsiFunctional, "psi_inverse", counted)
        e_rows, rep = regularity_set(ens, f, 0.25, 0.4, n_pair_samples=500)
        monkeypatch.undo()
        # the pairs regularity_set samples, and the lattice distances among
        # them whose bound psi_r^-1(target) is finite
        rng = np.random.default_rng(20260809)
        ia = rng.choice(e_rows, 500)
        ib = rng.choice(e_rows, 500)
        ia, ib = ia[ia != ib], ib[ia != ib]
        k = np.unique((grid.indices[ia] - grid.indices[ib])[:, 0] ** 2)
        target = 2.0 * LENS_CONSTANT[1] * rep.constants["threshold"]
        finite = [
            grid.spacing * math.sqrt(kk)
            for kk in k
            if PsiFunctional(f.modulus, grid.spacing * math.sqrt(kk)).psi(
                rep.constants["xi_cap"]
            )
            > target
        ]
        assert len(finite) >= 2
        assert deltas == finite
        assert rep.constants["n_vacuous_bounds"] < rep.constants["n_pairs"]


class TestBaseFieldConstants:
    """thm41 and prop43 read b's constants from the base field itself."""

    def test_same_reports_as_dressed_level(self, sobolev):
        moll = mollify(sobolev, MollifierKernel(8))
        dressed = replace(
            moll, witness=sobolev.witness, div_evaluator=sobolev.div_evaluator
        )
        ens = integrate_ensemble(moll, make_grid(1, 1.5, 0.05), 0.1, 0.01)
        _, reg = regularity_set(ens, sobolev, 0.5, 0.1, n_pair_samples=500)
        _, reg_dressed = regularity_set(
            ens, dressed, 0.5, 0.1, n_pair_samples=500
        )
        assert reg.to_json() == reg_dressed.to_json()
        for r in (0.0625, 0.125):
            assert (
                compactness_a(ens, sobolev, r, 0.5).to_json()
                == compactness_a(ens, dressed, r, 0.5).to_json()
            )


# (d, h) pairs for the identity-flow sweeps; d = 2 takes a coarser spacing
# so the offset count stays small
DIMS = pytest.mark.parametrize("d, h", [(1, 0.01), (2, 0.05)], ids=["d1", "d2"])


class TestCompactness:
    @DIMS
    def test_identity_flow(self, d, h):
        f = catalog_field("constant", d, value=0.0)
        grid = make_grid(d, 1.5, h)
        ens = integrate_ensemble(f, grid, 1.0, 0.01)
        rep = compactness_a(ens, f, 0.25, 1.0)
        assert rep.lhs <= ball_measure(d, 1.0)
        assert rep.passed

    def test_translation_invariance_constant_field(self):
        grid = make_grid(1, 1.5, 0.01)
        f0 = catalog_field("constant", 1, value=0.0)
        f1 = catalog_field("constant", 1, value=1.0)
        e0 = integrate_ensemble(f0, grid, 1.0, 0.01)
        e1 = integrate_ensemble(f1, grid, 1.0, 0.01)
        r0 = compactness_a(e0, f0, 0.25, 1.0)
        r1 = compactness_a(e1, f1, 0.25, 1.0)
        assert r1.lhs == pytest.approx(r0.lhs, abs=1e-12)

    def test_radius_guard(self, ens_b15, moll):
        with pytest.raises(EstimateError):
            compactness_a(ens_b15[32], moll[32], 0.6, 1.0)


class TestTranslation:
    @DIMS
    def test_identity_flow_closed_form(self, d, h):
        grid = make_grid(d, 1.5, h)
        f = catalog_field("constant", d, value=0.0)
        ens = integrate_ensemble(f, grid, 1.0, 0.01)
        consts = translation_constants(f, [ens], 1.0)
        rep = translation_functional(ens, 0.25, 1.0, consts)
        # oracle: each row |x| <= 1 sees every integer offset 0 < |k| <= r/h
        # at distance |k| h, weighted by h^d for x and again for z
        w, rows = round(0.25 / h), round(1.0 / h)
        n_rows = sum(
            1
            for i in itertools.product(range(-rows, rows + 1), repeat=d)
            if sum(c * c for c in i) <= rows * rows
        )
        offset_sum = sum(
            math.sqrt(sum(c * c for c in k)) * h
            for k in itertools.product(range(-w, w + 1), repeat=d)
            if 0 < sum(c * c for c in k) <= w * w
        )
        expect = n_rows * h**d * h**d * offset_sum
        if d == 1:
            assert n_rows == 201
        assert rep.lhs == pytest.approx(expect, rel=1e-12)
        assert rep.passed

    def test_constant_velocity_matches_identity(self):
        grid = make_grid(1, 1.5, 0.01)
        f0 = catalog_field("constant", 1, value=0.0)
        f1 = catalog_field("constant", 1, value=1.0)
        e0 = integrate_ensemble(f0, grid, 1.0, 0.01)
        e1 = integrate_ensemble(f1, grid, 1.0, 0.01)
        c0 = translation_constants(f0, [e0], 1.0)
        l0 = translation_functional(e0, 0.25, 1.0, c0).lhs
        l1 = translation_functional(e1, 0.25, 1.0, c0).lhs
        assert l1 == pytest.approx(l0, abs=1e-12)

    def test_g_decreases_in_r(self, osgood, ens_b15):
        consts = translation_constants(
            osgood, [ens_b15[8], ens_b15[16], ens_b15[32]], 1.0
        )
        radii = [0.25 / 2**j for j in range(5)]
        gs = []
        for r in radii:
            rep = translation_functional(ens_b15[32], r, 1.0, consts)
            assert rep.passed
            gs.append(rep.constants["g_of_r"])
        assert all(a > b for a, b in zip(gs, gs[1:]))


class TestOffsetSweep:
    """The lattice-offset sweep in d = 2 against pointwise oracles."""

    @pytest.fixture(scope="class")
    def linear_2d(self):
        f = catalog_field("linear", 2, slope=-1.0)
        grid = make_grid(2, 0.6, 0.05)
        return f, integrate_ensemble(f, grid, 0.2, 0.02)

    def test_q_sweep_matches_regularity_Q(self, linear_2d):
        _, ens = linear_2d
        r = 0.15
        rows, sweep = _q_sweep(ens, LIN, [r], 0.2)
        assert len(rows) == 49  # lattice points of B(4 h)
        for row, q_sup in zip(rows, sweep):
            x = ens.grid.points[row]
            oracle = max(regularity_Q(ens, LIN, x, r, t) for t in ens.times)
            assert q_sup == pytest.approx(oracle, abs=1e-12)

    def test_translation_matches_pair_sum(self, linear_2d):
        f, ens = linear_2d
        grid = ens.grid
        r, region = 0.15, 0.4
        consts = translation_constants(f, [ens], region)
        rep = translation_functional(ens, r, region, consts)
        centers = np.flatnonzero(
            np.linalg.norm(grid.points, axis=1) <= region * (1 + 1e-12)
        )
        sep = np.linalg.norm(
            grid.points[centers, None, :] - grid.points[None, :, :], axis=2
        )
        ia, ib = np.nonzero((sep > 0.0) & (sep <= r * (1 + 1e-12)))
        dist = np.linalg.norm(
            ens.positions[centers[ia]] - ens.positions[ib], axis=2
        )
        expect = dist.sum(axis=0).max() * grid.cell_volume**2
        assert rep.lhs == pytest.approx(expect, rel=1e-12)

    def test_missing_shifted_point_raises(self, linear_2d):
        f, ens = linear_2d
        # centers in B(0.5) shifted by up to 0.2 reach past the grid's 0.6
        with pytest.raises(EstimateError, match="shifted point"):
            compactness_a(ens, f, 0.2, 0.5)
        consts = translation_constants(f, [ens], 0.5)
        with pytest.raises(EstimateError, match="shifted point"):
            translation_functional(ens, 0.2, 0.5, consts)

    def test_regularity_set_identity_flow(self):
        f = catalog_field("constant", 2, value=0.0)
        grid = make_grid(2, 1.5, 0.1)
        ens = integrate_ensemble(f, grid, 0.2, 0.02)
        e_rows, rep = regularity_set(ens, f, 0.5, 0.2, n_pair_samples=2000)
        assert rep.constants["deficit"] == 0.0
        assert len(e_rows) == 81  # every lattice point of B(5 h)
        assert rep.constants["threshold"] == 1.0
        assert rep.passed


class TestWeakType:
    def test_nan_samples_raise_estimate_error(self):
        grid = make_grid(1, 2.0, 0.05)
        samples = np.full(grid.n_points, np.nan)
        with pytest.raises(EstimateError, match="lemma23"):
            weak_type_check(grid, samples, 1.0, 1.0, [0.5])


class TestPsiChainOnFlow:
    def test_subadditive_triangle_along_trajectories(self, ens_b1):
        # psi_r(|X(x)-X(y)|) <= psi_r(|X(x)-X(z)|) + psi_r(|X(z)-X(y)|)
        ens = ens_b1[16]
        pos = ens.positions[:, ::100, 0]
        rng = np.random.default_rng(2)
        fam = PsiFunctional(LOG, 0.25, quad_tol=1e-11)
        for _ in range(40):
            i, j, k = rng.integers(0, pos.shape[0], 3)
            ti = rng.integers(0, pos.shape[1])
            dxy = abs(pos[i, ti] - pos[j, ti])
            dxz = abs(pos[i, ti] - pos[k, ti])
            dzy = abs(pos[k, ti] - pos[j, ti])
            assert fam.psi(dxy) <= fam.psi(dxz) + fam.psi(dzy) + 1e-8


class TestReportSerialization:
    def test_json_deterministic_and_consistent(self, ens_b1):
        rep1 = stability_report(ens_b1[8], ens_b1[16], 1.0)
        rep2 = stability_report(ens_b1[8], ens_b1[16], 1.0)
        assert rep1.to_json() == rep2.to_json()
        row = rep1.csv_row("stability")
        assert row[0] == "stability" and row[1] == "thm31"
        assert float(row[5]) == rep1.lhs and float(row[6]) == rep1.rhs

    def test_report_file_name(self):
        thm44 = EstimateReport(
            "thm44", 1.0, 2.0, {"r": 0.0625}, {"field": "a/b", "n": 4}, 0.05, 0.0
        )
        assert report_file_name("compactness", thm44, 7) == (
            "compactness_thm44_a-b_n4_r0.0625_007.json"
        )
        thm31 = EstimateReport(
            "thm31", 1.0, 2.0, {"delta": 1.5e-6}, {"n": 4, "m": None}, 0.05, 0.0
        )
        assert report_file_name("stability", thm31, 12) == (
            "stability_thm31__n4_d1.5e-06_012.json"
        )
