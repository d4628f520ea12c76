import math

import numpy as np
import pytest

from rlflab.modulus import (
    BULK_DELTA_FLOOR,
    LOG_BREAK,
    LOGLOG_BREAK,
    PSI_DELTA_FLOOR,
    PSI_RATIO_CEILING,
    ModulusError,
    ModulusOfContinuity,
    PsiFunctional,
)
from rlflab.numerics import InversionError, integrate_1d

LIN = ModulusOfContinuity("linear")
LOG = ModulusOfContinuity("log")
LOGLOG = ModulusOfContinuity("loglog")


class TestRho:
    def test_linear(self):
        assert LIN(0.3) == 0.3

    def test_log_breakpoint_value(self):
        e2 = math.exp(-2.0)
        # both branches meet at 2 e^-2
        assert LOG(e2) == pytest.approx(2.0 * e2, abs=1e-15)

    def test_log_above_break(self):
        assert LOG(1.0) == pytest.approx(1.0 + math.exp(-2.0))

    def test_log_continuity_and_c1(self):
        e2 = LOG_BREAK
        eps = 1e-9
        left = LOG(e2 - eps)
        right = LOG(e2 + eps)
        assert abs(left - right) <= 1e-8  # continuity through the breakpoint
        dl = (LOG(e2) - LOG(e2 - eps)) / eps
        dr = (LOG(e2 + eps) - LOG(e2)) / eps
        assert dl == pytest.approx(1.0, abs=1e-6)
        assert dr == pytest.approx(1.0, abs=1e-6)

    def test_breakpoint_agreement_12_digits(self):
        e2 = LOG_BREAK
        low = e2 * np.log(1.0 / e2)
        high = e2 + e2
        assert abs(low - high) <= 1e-12

    def test_loglog_c1_continuation(self):
        c0 = LOGLOG_BREAK
        eps = 1e-9
        assert abs(LOGLOG(c0 - eps) - LOGLOG(c0 + eps)) <= 1e-8
        dl = (LOGLOG(c0) - LOGLOG(c0 - eps)) / eps
        assert dl == pytest.approx(math.e - 2.0, abs=1e-5)

    def test_zero_and_monotone(self):
        for mod in (LIN, LOG, LOGLOG):
            assert mod(0.0) == 0.0
            mesh = np.linspace(0.0, 2.0, 4001)
            vals = mod(mesh)
            assert np.all(np.diff(vals) > 0.0)

    def test_log_dominates_identity(self):
        # rho(s) >= s on [0, 1] for the log kind
        mesh = np.linspace(0.0, 1.0, 2001)
        assert np.all(LOG(mesh) >= mesh)

    def test_rejects_negative(self):
        with pytest.raises(ModulusError):
            LOG(-0.1)


class TestPsi:
    def test_linear_closed_form(self):
        psi = PsiFunctional(LIN, 1.0, quad_tol=1e-12)
        assert psi.psi(math.e - 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_zero(self):
        assert PsiFunctional(LOG, 1e-3).psi(0.0) == 0.0

    def test_delta_floor(self):
        # at the floor psi meets the closed form; below it, it raises
        for xi in (1e-3, 0.05, 100.0):
            val = PsiFunctional(LIN, PSI_DELTA_FLOOR).psi(xi)
            exact = math.log(xi / PSI_DELTA_FLOOR + 1.0)
            assert val == pytest.approx(exact, rel=1e-10)
        with pytest.raises(ModulusError, match="psi needs delta"):
            PsiFunctional(LIN, 1e-20).psi(0.05)

    def test_ratio_ceiling(self):
        # at the ceiling xi = 1e12 delta psi meets the closed form; past it,
        # it raises
        fam = PsiFunctional(LIN, 1e-6)
        assert fam.psi(1e6) == pytest.approx(math.log(1e12 + 1.0), rel=1e-8)
        assert 1e6 == PSI_RATIO_CEILING * 1e-6
        with pytest.raises(ModulusError, match="psi needs xi <="):
            fam.psi(1.01e6)

    def test_log_vs_trapezoid_oracle(self):
        delta = 1e-3
        xs = np.linspace(0.0, 0.1, 10_000_001)
        integrand = np.empty_like(xs)
        integrand[0] = 1.0 / delta
        pos = xs[1:]
        integrand[1:] = 1.0 / (pos * np.log(1.0 / pos) + delta)
        oracle = np.trapezoid(integrand, xs)
        val = PsiFunctional(LOG, delta, quad_tol=1e-8).psi(0.1)
        assert abs(val - oracle) <= 1e-7

    def test_inverse_closed_form(self):
        # for rho(s) = s: inverse of log(xi/r + 1) at 1 is r (e - 1)
        fam = PsiFunctional(LIN, 0.1, quad_tol=1e-11)
        assert fam.psi_inverse(1.0) == pytest.approx(0.1 * (math.e - 1.0), abs=1e-8)
        assert fam.psi_inverse(0.0) == 0.0

    def test_inverse_past_ratio_ceiling_raises(self):
        # psi(1e12 delta) = log(1e12 + 1) < 30: the bracket stops at the
        # ceiling and raises the inversion error, for a NaN target too
        fam = PsiFunctional(LIN, 1e-6)
        for t in (30.0, math.nan):
            with pytest.raises(InversionError, match="bracket-growth"):
                fam.psi_inverse(t)

    def test_inverse_round_trip_log(self):
        fam = PsiFunctional(LOG, 0.05, quad_tol=1e-11)
        xi = fam.psi_inverse(2.0, tol=1e-11)
        assert fam.psi(xi) == pytest.approx(2.0, abs=1e-9)

    def test_inverse_round_trip_catalog(self):
        for mod in (LIN, LOG, LOGLOG):
            fam = PsiFunctional(mod, 0.02, quad_tol=1e-11)
            x = fam.psi_inverse(fam.psi(0.7), tol=1e-11)
            assert x == pytest.approx(0.7, abs=1e-8)

    def test_inverse_bracket_ends(self):
        # a target within tol of psi(0) = 0 reads 0; one at psi(hi) for the
        # first bracket end hi = delta reads delta, before any bisection
        fam = PsiFunctional(LOG, 0.05)
        assert fam.psi_inverse(1e-11, tol=1e-10) == 0.0
        assert fam.psi_inverse(fam.psi(0.05)) == 0.05

    def test_upper_bound_xi_over_delta(self):
        for mod in (LIN, LOG, LOGLOG):
            for delta in (0.5, 1e-2, 1e-4):
                fam = PsiFunctional(mod, delta)
                for xi in (0.05, 0.3, 1.7):
                    assert fam.psi(xi) <= xi / delta * (1.0 + 1e-12)

    def test_concavity_on_samples(self):
        fam = PsiFunctional(LOG, 1e-2)
        pts = [(0.0, 0.4), (0.05, 0.9), (0.2, 1.5)]
        for a, b in pts:
            fa, fb = fam.psi(a), fam.psi(b)
            for lam in (0.25, 0.5, 0.75):
                mid = fam.psi(lam * a + (1.0 - lam) * b)
                assert mid >= lam * fa + (1.0 - lam) * fb - 1e-8

    def test_subadditive(self):
        fam = PsiFunctional(LOG, 0.1)
        for a, b in ((0.02, 0.3), (0.5, 0.7), (0.0, 1.1)):
            assert fam.psi(a + b) <= fam.psi(a) + fam.psi(b) + 1e-9

    def test_monotone_in_delta(self):
        for xi in (0.05, 0.5):
            vals = [PsiFunctional(LOG, d).psi(xi) for d in (1e-1, 1e-2, 1e-3)]
            assert vals[0] < vals[1] < vals[2]

    def test_divergence_as_delta_vanishes(self):
        # certified-Osgood catalog moduli triple over six decades of delta;
        # the loglog modulus diverges too (triple-log rate) but needs far
        # more decades, so only strict increase is asserted for it
        deltas = [10.0**-k for k in range(1, 7)]
        for mod in (LIN, LOG):
            seq = [PsiFunctional(mod, d).psi(0.1) for d in deltas]
            assert all(x < y for x, y in zip(seq, seq[1:]))
            assert seq[-1] >= 3.0 * seq[0]
        seq = [PsiFunctional(LOGLOG, d).psi(0.1) for d in deltas]
        assert all(x < y for x, y in zip(seq, seq[1:]))

    def test_bulk_matches_adaptive(self):
        for mod in (LIN, LOG):
            for delta in (0.09375, 0.5, 3.0):
                fam = PsiFunctional(mod, delta)
                xs = np.array([0.0, 1e-4, 0.01, 0.2, 0.9, 4.0, 9.5])
                bulk = fam.psi_values(xs)
                ref = np.array([fam.psi(float(x)) for x in xs])
                np.testing.assert_allclose(bulk, ref, atol=2e-5, rtol=2e-6)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ModulusError):
            PsiFunctional(LIN, 0.0)

    def test_bulk_rejects_delta_below_floor(self):
        xs = np.array([0.0, 0.01, 0.5])
        for mod in (LIN, LOG, LOGLOG):
            fam = PsiFunctional(mod, 0.5 * BULK_DELTA_FLOOR)
            with pytest.raises(ModulusError, match="delta >= 0.001"):
                fam.psi_values(xs)
            assert fam.psi(0.5) > 0.0  # the adaptive path has no floor
            at_floor = PsiFunctional(mod, BULK_DELTA_FLOOR)
            np.testing.assert_allclose(
                at_floor.psi_values(xs),
                [at_floor.psi(float(x)) for x in xs],
                atol=2e-5,
                rtol=2e-6,
            )


class TestPsiBulkTable:
    # largest arguments whose coarse mesh, ended by arange at max + step,
    # fell a rounding error short of it and was rebuilt on every call
    MAXIMA = (16.0, 3.3, 5.0)

    @staticmethod
    def xs(top):
        return np.linspace(0.0, top, 257)

    def test_table_built_once(self):
        for mod in (LIN, LOG):
            for top in self.MAXIMA:
                fam = PsiFunctional(mod, 0.1)
                first = fam.psi_values(self.xs(top))
                table = fam._table
                assert table["mesh_max"] >= top
                for _ in range(3):
                    again = fam.psi_values(self.xs(top))
                    assert fam._table is table
                    assert np.array_equal(again, first)

    def test_reused_table_matches_fresh_functional(self):
        # one functional serves every query from the table built for the
        # largest; each answer equals that of a functional built for it
        fam = PsiFunctional(LOG, 0.1)
        fam.psi_values(self.xs(max(self.MAXIMA)))
        table = fam._table
        for top in self.MAXIMA * 2:
            got = fam.psi_values(self.xs(top))
            assert fam._table is table
            fresh = PsiFunctional(LOG, 0.1).psi_values(self.xs(top))
            assert np.array_equal(got, fresh)

    def test_query_past_table_grows_it(self):
        for mod in (LIN, LOG):
            fam = PsiFunctional(mod, 0.5)
            before = fam.psi_values(self.xs(3.3))
            table = fam._table
            xs = np.array([0.0, 0.01, 0.9, 4.0, 9.5])
            bulk = fam.psi_values(xs)
            assert fam._table is not table
            assert fam._table["mesh_max"] >= 9.5
            ref = np.array([fam.psi(float(x)) for x in xs])
            np.testing.assert_allclose(bulk, ref, atol=2e-5, rtol=2e-6)
            again = fam.psi_values(self.xs(3.3))
            assert np.array_equal(again, before)

    def test_growth_at_least_doubles(self):
        fam = PsiFunctional(LOG, 0.1)
        fam.psi_values(self.xs(3.3))
        short = fam._table["mesh_max"]
        fam.psi_values(self.xs(3.4))
        assert fam._table["mesh_max"] >= 2.0 * short


def two_branch_psi_values(fam, vals, xs):
    """The bulk lookup as it read with separate fine and coarse branches,
    from the table nodes' values ``vals`` of 1 / (rho + delta)."""
    tab = fam._table
    cum = tab["cum"]
    n_fine, fine_end = tab["n_fine"], tab["fine_end"]
    out = np.empty_like(xs)
    low = xs <= fine_end
    idx = np.clip((xs[low] / 2e-6).astype(np.int64), 0, n_fine - 2)
    frac = xs[low] - idx * 2e-6
    out[low] = cum[idx] + frac * 0.5 * (vals[idx] + vals[idx + 1])
    x = xs[~low]
    j = np.clip(((x - fine_end) / 1e-4).astype(np.int64), 0, len(cum) - n_fine - 1)
    base = n_fine - 1 + j
    frac = x - (fine_end + j * 1e-4)
    out[~low] = cum[base] + frac * 0.5 * (vals[base] + vals[base + 1])
    return out


@pytest.mark.parametrize("mod", [LIN, LOG, LOGLOG])
@pytest.mark.parametrize("delta", [1e-3, 0.01, 1.0])
def test_one_index_path_equals_two_branches(monkeypatch, mod, delta):
    # precomputed half-sums and one index path give the very same values
    import rlflab.modulus as modulus

    meshes = []
    rho = modulus.ModulusOfContinuity.__call__

    def recording(m, s):
        meshes.append(s)
        return rho(m, s)

    monkeypatch.setattr(modulus.ModulusOfContinuity, "__call__", recording)
    rng = np.random.default_rng(11)
    edges = [0.0, 2e-6, 0.25 - 1e-17, 0.25, 0.25 + 1e-17, 0.2501, 15.9999]
    xs = np.concatenate(
        [edges, rng.uniform(0.0, 0.3, 4000), rng.exponential(0.05, 4000),
         rng.uniform(0.0, 16.0, 4000)]
    )
    fam = PsiFunctional(mod, delta)
    got = fam.psi_values(xs)
    vals = 1.0 / (mod(meshes[-1]) + delta)
    assert np.array_equal(got, two_branch_psi_values(fam, vals, xs))


class TestOsgoodDiagnostic:
    """Tail integrals of 1/rho from eps to a cutoff, over six decades of eps:
    they grow without bound for an Osgood modulus and stay bounded for the
    integrable control 1/sqrt(s)."""

    EPS = [10.0**-k for k in range(1, 7)]

    @staticmethod
    def _tails(rho, cutoff):
        return np.array(
            [
                integrate_1d(lambda s: 1.0 / rho(s), e, cutoff, 1e-10).value
                for e in TestOsgoodDiagnostic.EPS
            ]
        )

    def test_linear_verdict(self):
        values = self._tails(LIN.scalar, 1.0)
        np.testing.assert_allclose(
            values, [k * np.log(10.0) for k in range(1, 7)], rtol=1e-8
        )

    def test_sqrt_table_non_osgood(self):
        # integrable singularity: integral of s^-1/2 stays bounded (< 2)
        values = self._tails(math.sqrt, 1.0)
        oracle = 2.0 * (1.0 - np.sqrt(self.EPS))
        np.testing.assert_allclose(values, oracle, rtol=1e-10)

    def test_log_verdict_and_loglog_growth(self):
        # six decades below the breakpoint cutoff (0.1 < e^-2); oracle: the
        # integral of 1/(s log(1/s)) from eps to e^-2 is loglog(1/eps) - log 2
        values = self._tails(LOG.scalar, LOG_BREAK)
        oracle = np.log(np.log(1.0 / np.array(self.EPS))) - np.log(2.0)
        np.testing.assert_allclose(values, oracle, rtol=1e-7)
