import numpy as np
import pytest

from rlflab.fields import (
    MollifierKernel,
    catalog_field,
    compressibility_constant,
    mollify,
)
from rlflab.flow import FlowError, integrate_ensemble, sup_distance
from rlflab.numerics import grid_integral, make_grid


class TestIntegration:
    def test_constant_exact(self):
        f = catalog_field("constant", 1, value=1.0)
        grid = make_grid(1, 1.0, 0.1)
        ens = integrate_ensemble(f, grid, 1.0, 0.01)
        exact = grid.points[:, None, 0] + ens.times[None, :]
        assert np.max(np.abs(ens.positions[:, :, 0] - exact)) <= 1e-14
        np.testing.assert_array_equal(ens.positions[:, 0, :], grid.points)

    @pytest.mark.parametrize(
        "horizon, tau, message",
        [
            (1.0, 1e-320, "past the float range"),
            (1e300, 1e-10, "past the float range"),
            (0.05, 1e-300, r"cannot allocate \(21, 5e\+298, 1\) positions"),
        ],
    )
    def test_step_count_past_range(self, horizon, tau, message):
        f = catalog_field("constant", 1, value=1.0)
        with pytest.raises(FlowError, match=message):
            integrate_ensemble(f, make_grid(1, 1.0, 0.1), horizon, tau)

    def test_contraction_endpoint(self):
        f = catalog_field("linear", 1, slope=-1.0)
        grid = make_grid(1, 1.0, 0.1)
        ens = integrate_ensemble(f, grid, 1.0, 1e-3)
        x0 = grid.points[:, 0]
        exact = x0 * np.exp(-1.0)
        nz = x0 != 0.0
        rel = np.abs(ens.positions[nz, -1, 0] - exact[nz]) / np.abs(exact[nz])
        assert rel.max() <= 1e-6

    def test_rk4_fourth_order(self):
        # endpoint error ratio between tau = 1e-2 and 1e-3 close to 1e4
        f = catalog_field("linear", 1, slope=-1.0)
        grid = make_grid(1, 1.0, 0.5)
        errs = []
        for tau in (1e-2, 1e-3):
            ens = integrate_ensemble(f, grid, 1.0, tau)
            errs.append(
                np.max(np.abs(ens.positions[:, -1, 0] - grid.points[:, 0] * np.exp(-1.0)))
            )
        ratio = errs[0] / errs[1]
        assert 0.5e4 <= ratio <= 2.0e4

    def test_per_step_residual_fifth_order(self):
        # against the exact local solution of x' = -x
        f = catalog_field("linear", 1, slope=-1.0)
        grid = make_grid(1, 1.0, 0.5)
        for tau in (1e-2, 1e-3):
            ens = integrate_ensemble(f, grid, 100 * tau, tau)
            pos = ens.positions[:, :, 0]
            residual = np.abs(pos[:, 1:] - pos[:, :-1] * np.exp(-tau))
            assert residual.max() <= tau**5

    def test_growth_bound(self, moll, ens_b1):
        for n, ens in ens_b1.items():
            assert np.max(np.abs(ens.positions)) <= ens.growth_radius()

    def test_step_halving_self_convergence(self, moll):
        # endpoints at tau and tau/10 agree to 1e-6 for the n = 16 field
        grid = make_grid(1, 0.55, 0.5)  # contains x = 0.5
        coarse = integrate_ensemble(moll[16], grid, 1.0, 1e-3)
        fine = integrate_ensemble(moll[16], grid, 1.0, 1e-4)
        i = int(np.argmin(np.abs(grid.points[:, 0] - 0.5)))
        gap = abs(coarse.positions[i, -1, 0] - fine.positions[i, -1, 0])
        assert gap <= 1e-6

    def test_determinism(self, moll):
        grid = make_grid(1, 1.0, 0.1)
        a = integrate_ensemble(moll[8], grid, 0.5, 1e-2)
        b = integrate_ensemble(moll[8], grid, 0.5, 1e-2)
        assert np.array_equal(a.positions, b.positions)

    def test_nonfinite_field_flags_trajectory(self):
        base = catalog_field("constant", 1, value=1.0)

        def bad_ev(t, pts):
            out = np.ones_like(pts)
            out[pts[:, 0] > 0.5] = np.nan
            return out

        from dataclasses import replace

        f = replace(base, evaluator=bad_ev)
        grid = make_grid(1, 1.0, 0.25)
        ens = integrate_ensemble(f, grid, 1.0, 0.1)
        assert ens.flags.any() and not ens.flags.all()
        good = ~ens.flags
        assert np.isfinite(ens.positions[good]).all()

    def test_mesh_validation(self):
        f = catalog_field("constant", 1)
        grid = make_grid(1, 1.0, 0.25)
        with pytest.raises(FlowError):
            integrate_ensemble(f, grid, 1.0, 0.3)

    def test_failed_allocation_names_shape(self, monkeypatch):
        f = catalog_field("constant", 1)
        grid = make_grid(1, 1.0, 0.1)

        def no_memory(shape, *args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "empty", no_memory)
        with pytest.raises(FlowError, match=r"\(21, 11, 1\) positions: 0\.0 GiB"):
            integrate_ensemble(f, grid, 1.0, 0.1)


class TestRestrict:
    """Rows of a wider ensemble equal a direct integration bit for bit."""

    @pytest.mark.parametrize("field_id", ["osgood-sum", "sobolev-singular", "combined"])
    def test_matches_direct_rough_fields(self, field_id):
        base = catalog_field(field_id, 1)
        for n in (4, 32):
            field = mollify(base, MollifierKernel(n))
            wide = integrate_ensemble(field, make_grid(1, 1.5, 0.01), 0.05, 1e-3)
            for r in (1.0, 0.5):
                direct = integrate_ensemble(field, make_grid(1, r, 0.01), 0.05, 1e-3)
                sub = wide.restrict(r)
                assert sub.grid == direct.grid
                assert np.array_equal(sub.grid.points, direct.grid.points)
                assert np.array_equal(sub.positions, direct.positions)
                assert np.array_equal(sub.flags, direct.flags)
                assert sub.same_mesh(direct)

    def test_matches_direct_linear_2d(self):
        field = mollify(catalog_field("linear", 2, slope=-1.0), MollifierKernel(4))
        wide = integrate_ensemble(field, make_grid(2, 0.35, 0.05), 0.03, 0.01)
        direct = integrate_ensemble(field, make_grid(2, 0.2, 0.05), 0.03, 0.01)
        sub = wide.restrict(0.2)
        assert sub.grid == direct.grid and sub.grid.n_points < wide.grid.n_points
        assert np.array_equal(sub.positions, direct.positions)

    def test_one_d_rows_are_views(self):
        field = mollify(catalog_field("osgood-sum", 1, terms=100), MollifierKernel(4))
        wide = integrate_ensemble(field, make_grid(1, 1.5, 0.01), 0.05, 1e-3)
        for r in (1.0, 0.5, 0.02):
            sub = wide.restrict(r)
            assert np.shares_memory(sub.positions, wide.positions)
            assert np.shares_memory(sub.flags, wide.flags)
            direct = integrate_ensemble(field, make_grid(1, r, 0.01), 0.05, 1e-3)
            assert np.array_equal(sub.positions, direct.positions)

    def test_two_d_rows_are_copies(self):
        field = mollify(catalog_field("osgood-sum", 2, terms=100), MollifierKernel(4))
        wide = integrate_ensemble(field, make_grid(2, 0.35, 0.05), 0.03, 0.01)
        direct = integrate_ensemble(field, make_grid(2, 0.2, 0.05), 0.03, 0.01)
        sub = wide.restrict(0.2)
        assert not np.shares_memory(sub.positions, wide.positions)
        assert sub.grid == direct.grid
        assert np.array_equal(sub.positions, direct.positions)
        assert np.array_equal(sub.flags, direct.flags)

    @pytest.mark.parametrize("d", [1, 2])
    def test_keeps_the_driving_field(self, d):
        field = mollify(catalog_field("constant", d), MollifierKernel(4))
        wide = integrate_ensemble(field, make_grid(d, 0.35, 0.05), 0.03, 0.01)
        assert wide.field is field
        assert wide.restrict(0.2).field is field
        assert wide.growth_radius() == 0.35 + 0.03 * field.sup_bound + 0.1

    def test_full_radius_and_beyond(self):
        f = catalog_field("constant", 1)
        ens = integrate_ensemble(f, make_grid(1, 1.0, 0.1), 0.1, 0.01)
        assert ens.restrict(1.0) is ens
        with pytest.raises(FlowError, match="exceeds the ensemble's grid radius"):
            ens.restrict(1.5)


class TestSupDistance:
    def test_identical(self, ens_b1):
        assert np.all(sup_distance(ens_b1[8], ens_b1[8]) == 0.0)

    def test_constant_pair(self):
        grid = make_grid(1, 1.0, 0.1)
        e0 = integrate_ensemble(catalog_field("constant", 1, value=0.0), grid, 1.0, 0.01)
        e1 = integrate_ensemble(catalog_field("constant", 1, value=1.0), grid, 1.0, 0.01)
        np.testing.assert_allclose(sup_distance(e0, e1), 1.0, atol=1e-12)

    def test_against_pointwise_recomputation(self, moll, ens_b1):
        # independent slow path: re-integrate single trajectories with a
        # plain python RK4 loop and rebuild the sup distance
        grid = ens_b1[8].grid
        for idx in (0, 57, 200):
            x = grid.points[idx : idx + 1]
            vals = {}
            for n in (8, 16):
                pos = [x.copy()]
                xt = x.copy()
                tau = 1e-3
                for step in range(1000):
                    t = step * tau
                    ev = moll[n].evaluator
                    k1 = ev(t, xt)
                    k2 = ev(t + tau / 2, xt + tau / 2 * k1)
                    k3 = ev(t + tau / 2, xt + tau / 2 * k2)
                    k4 = ev(t + tau, xt + tau * k3)
                    xt = xt + tau / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                    pos.append(xt.copy())
                vals[n] = np.concatenate(pos)[:, 0]
            oracle = np.max(np.abs(vals[8] - vals[16]))
            got = sup_distance(ens_b1[8], ens_b1[16])[idx]
            assert got == pytest.approx(oracle, abs=1e-12)

    def test_mesh_mismatch(self, ens_b1, moll):
        other = integrate_ensemble(moll[8], make_grid(1, 1.0, 0.1), 1.0, 1e-3)
        with pytest.raises(FlowError):
            sup_distance(ens_b1[8], other)


class TestCompressibility:
    """(X_t)#Leb <= L Leb through the lattice Jacobian: the largest density
    1 / |dX_t/dx| over the mesh times (``conftest._pushforward_bound``)."""

    def test_identity_flow(self, pushforward_bound):
        grid = make_grid(1, 1.0, 0.01)
        ens = integrate_ensemble(catalog_field("constant", 1, value=0.0), grid, 1.0, 0.01)
        assert pushforward_bound(ens) == pytest.approx(1.0, abs=1e-12)

    def test_contracting_reaches_e(self, pushforward_bound):
        # X_t(x) = x e^-t, so the density reaches e at T = 1
        grid = make_grid(1, 1.0, 0.01)
        ens = integrate_ensemble(catalog_field("linear", 1, slope=-1.0), grid, 1.0, 1e-3)
        assert pushforward_bound(ens) == pytest.approx(np.e, rel=1e-9)

    def test_expanding_stays_at_one(self, pushforward_bound):
        grid = make_grid(1, 1.0, 0.01)
        ens = integrate_ensemble(catalog_field("linear", 1, slope=1.0), grid, 1.0, 1e-3)
        assert pushforward_bound(ens) <= 1.0 + 1e-12

    def test_mollified_level_bound(self, moll, ens_b1, pushforward_bound):
        # the density of every level, under its divergence exponential L on
        # the norm ball B(R + T ||b||)
        grid = make_grid(1, 2.66, 0.01)
        measured = {4: 3.749, 8: 5.660, 16: 8.621, 32: 13.205}
        for n, ens in ens_b1.items():
            density = pushforward_bound(ens)
            assert density == pytest.approx(measured[n], abs=1e-3)
            assert density <= compressibility_constant(moll[n], grid, 1.0)
