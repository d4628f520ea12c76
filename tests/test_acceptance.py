"""Acceptance suite: the quantitative exit criteria, one test per criterion.

Each test prints one `AC-k ...: PASS/FAIL (elapsed)` line; run with ``-s`` to
see every line.  Heavy ensembles come from session fixtures shared with the
unit tests, so a full run amortizes their construction; each criterion also
stays inside its stated wall-clock budget when run standalone (the budgets
below are asserted on the measured in-test time).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from rlflab.estimates import (
    cauchy_diagnostic,
    compactness_a,
    regularity_set,
    stability_report,
    translation_constants,
    translation_functional,
    weak_type_check,
)
from rlflab.fields import (
    MollifierKernel,
    catalog_field,
    measure_osgood_constant,
    mollify,
    series_direct,
)
from rlflab.flow import integrate_ensemble, sup_distance_rows
from rlflab.modulus import LOG_BREAK, ModulusOfContinuity, PsiFunctional
from rlflab.numerics import ball_measure, grid_integral, make_grid

LIN = ModulusOfContinuity("linear")
LOG = ModulusOfContinuity("log")
PI2_6 = math.pi**2 / 6.0


def report_line(name, ok, started, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"{name}: {status} ({time.time() - started:.1f}s){extra}")


@pytest.fixture(scope="module")
def witnessed_rep_ensembles(osgood, moll, ens_b15):
    """Flow representatives for every witnessed catalog field on B(1.5R).

    Each representative is the level-32 mollified ensemble; witness and
    divergence data stay with the base field.
    """
    grid = make_grid(1, 1.5, 0.01)
    out = {}
    base_fields = {
        "constant": catalog_field("constant", 1, value=1.0),
        "linear": catalog_field("linear", 1, slope=-1.0),
        "osgood-sum": osgood,
        "sobolev-singular": catalog_field("sobolev-singular", 1),
        "combined": catalog_field("combined", 1),
    }
    for cid, base in base_fields.items():
        if cid == "osgood-sum":
            m32, ens = moll[32], ens_b15[32]
        else:
            m32 = mollify(base, MollifierKernel(32))
            ens = integrate_ensemble(m32, grid, 1.0, 1e-3)
        rep = replace(
            m32, witness=base.witness, div_evaluator=base.div_evaluator
        )
        out[cid] = (base, rep, ens)
    return out


def test_ac1_psi_closed_form():
    started = time.time()
    deltas = np.geomspace(1e-4, 10.0, 20)
    xis = np.geomspace(0.01, 10.0, 20)
    worst = 0.0
    for d in deltas:
        # absolute quadrature tolerance sized for a relative 1e-8 target
        tol = max(1e-13, 1e-9 * math.log1p(float(xis[0]) / d))
        fam = PsiFunctional(LIN, float(d), quad_tol=tol)
        for xi in xis:
            want = math.log1p(xi / d)
            got = fam.psi(float(xi))
            worst = max(worst, abs(got - want) / want)
    elapsed = time.time() - started
    ok = worst <= 1e-8 and elapsed < 1.0
    report_line("AC-1 psi closed form", ok, started, f"rel err {worst:.2e}")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_ac2_example_field_structure(osgood):
    started = time.time()
    c0 = LOG_BREAK
    # branch values and branch derivatives at the breakpoint
    value_gap = abs(c0 * math.log(1.0 / c0) - (c0 + c0))
    deriv_gap = abs((math.log(1.0 / c0) - 1.0) - 1.0)
    structure_ok = value_gap <= 1e-12 and deriv_gap <= 1e-12

    rng = np.random.default_rng(424242)
    samples = rng.uniform(-8.0, 8.0, 100_000)
    vals = osgood(0.0, samples[:, None])[:, 0]
    range_ok = bool((vals >= 0.0).all() and (vals <= PI2_6).all())

    c2s = {k: measure_osgood_constant(k) for k in (100, 1000, 10_000)}
    spread = max(c2s.values()) / min(c2s.values())
    c2_ok = all(np.isfinite(v) for v in c2s.values()) and spread <= 1.25

    elapsed = time.time() - started
    ok = structure_ok and range_ok and c2_ok and elapsed < 30.0
    report_line(
        "AC-2 example field structure",
        ok,
        started,
        f"C2 spread {spread - 1.0:.2%}",
    )
    assert structure_ok
    assert range_ok
    assert c2_ok
    assert elapsed < 30.0


def test_ac3_stability_all_pairs(osgood, moll, ens_b1):
    started = time.time()
    levels = (4, 8, 16, 32)
    reports = []
    for i, n in enumerate(levels):
        for m in levels[i + 1 :]:
            reports.append(
                stability_report(
                    moll[n], moll[m], ens_b1[n], ens_b1[m], 1.0, slack=0.05
                )
            )
    elapsed = time.time() - started
    ok = len(reports) == 6 and all(r.passed for r in reports)
    report_line(
        "AC-3 stability bound, 6 mollified pairs",
        ok and elapsed < 300.0,
        started,
        "deltas "
        + ", ".join(f"{r.constants['delta']:.4f}" for r in reports),
    )
    assert ok
    assert elapsed < 300.0


def test_ac4_cauchy_construction(osgood, moll, ens_b1, ens_b1_fine_step):
    started = time.time()
    levels = (4, 8, 16, 32)
    reports = cauchy_diagnostic(
        osgood,
        [moll[n] for n in levels],
        [ens_b1[n] for n in levels],
        eta=0.05,
        region_radius=1.0,
        slack=0.05,
    )
    d = {(r.metadata["n"], r.metadata["m"]): r.lhs for r in reports}
    decreasing = d[(4, 8)] > d[(8, 16)] > d[(16, 32)]
    bounds_ok = all(r.passed for r in reports)

    # step-halving uniqueness shadow: same field and level, tau vs tau/10,
    # compared on their common mesh times
    coarse, fine = ens_b1[32], ens_b1_fine_step
    np.testing.assert_allclose(fine.times[::10], coarse.times, rtol=0.0, atol=1e-12)
    gap = grid_integral(
        coarse.grid,
        sup_distance_rows(coarse.positions, fine.positions[:, ::10]),
    )
    unique_ok = gap <= 1e-4 * ball_measure(1, 1.0)

    elapsed = time.time() - started
    ok = decreasing and bounds_ok and unique_ok and elapsed < 600.0
    report_line(
        "AC-4 Cauchy construction",
        ok,
        started,
        f"D(n,2n) = {d[(4, 8)]:.4f} > {d[(8, 16)]:.4f} > {d[(16, 32)]:.4f}, "
        f"uniqueness gap {gap:.2e}",
    )
    assert decreasing
    assert bounds_ok
    assert unique_ok
    assert elapsed < 600.0


def test_ac5_regularity_set(osgood, moll, ens_b3_top):
    started = time.time()
    eps = 0.1 * ball_measure(1, 1.0)
    e_rows, rep = regularity_set(
        ens_b3_top, moll[32], 1.0, eps, n_pair_samples=10_000, seed=99
    )
    deficit = rep.constants["deficit"]
    deficit_ok = deficit <= eps
    all_times_ok = rep.passed

    # explicit check at the 21-time subsample for sampled pairs of E
    ens = ens_b3_top
    rng = np.random.default_rng(77)
    ia = rng.choice(e_rows, 10_000)
    ib = rng.choice(e_rows, 10_000)
    keep = ia != ib
    ia, ib = ia[keep], ib[keep]
    sub = ens.positions[:, ::50, 0]
    dist21 = np.abs(sub[ia] - sub[ib]).max(axis=1)
    seps = np.abs(ens.grid.points[ia, 0] - ens.grid.points[ib, 0])
    target = 2.0 * rep.constants["lens"] * rep.constants["threshold"]
    xi_cap = 2.0 * ens.growth_radius() + 1.0
    sub_ok = True
    for r_u in np.unique(seps):
        fam = PsiFunctional(LOG, float(r_u))
        if fam.psi(xi_cap) <= target:
            continue  # bound exceeds any attainable separation
        bound = fam.psi_inverse(target, tol=1e-9)
        sub_ok &= bool((dist21[seps == r_u] <= bound).all())

    # Remark-4.2 form: for linear rho the machinery bound is the exponential
    form_ok = True
    for r in (0.05, 0.25, 0.8):
        fam = PsiFunctional(LIN, r, quad_tol=1e-11)
        for xi in (0.01, 0.5, 2.0, 8.0):
            t = math.log1p(xi / r)
            got = fam.psi_inverse(t, tol=1e-10)
            form_ok &= abs(got - r * math.expm1(t)) <= 1e-6 * r * math.expm1(t)

    elapsed = time.time() - started
    ok = deficit_ok and all_times_ok and sub_ok and form_ok and elapsed < 300.0
    report_line(
        "AC-5 regularity set and modulus",
        ok,
        started,
        f"deficit {deficit:.3f} <= {eps}, |E| = {len(e_rows)}",
    )
    assert deficit_ok
    assert all_times_ok
    assert sub_ok
    assert form_ok
    assert elapsed < 300.0


def test_ac6_compactness_functional(witnessed_rep_ensembles):
    started = time.time()
    failures = []
    for cid, (base, rep_field, ens) in witnessed_rep_ensembles.items():
        for r in (0.25, 0.125, 0.0625):
            rep = compactness_a(ens, rep_field, r, 1.0, slack=0.05)
            if not rep.passed:
                failures.append((cid, r))
    elapsed = time.time() - started
    ok = not failures and elapsed < 180.0
    report_line(
        "AC-6 compactness functional, 5 fields x 3 radii",
        ok,
        started,
        f"failures: {failures}" if failures else "15 verdicts",
    )
    assert not failures
    assert elapsed < 180.0


def test_ac7_translation_estimate(osgood, moll, ens_b15):
    started = time.time()
    fields = [moll[n] for n in (8, 16, 32)]
    consts = translation_constants(
        osgood, fields, 1.0, 1.0, 0.01, ens_b15[32].times
    )
    radii = [0.25 / 2**j for j in range(5)]  # R/4 down to R/64
    bound_ok = True
    tables = {}
    for n in (8, 16, 32):
        rows = []
        for r in radii:
            rep = translation_functional(
                ens_b15[n], r, 1.0, consts, osgood.modulus, slack=0.05
            )
            bound_ok &= rep.passed
            rows.append((r, rep.constants["g_of_r"], rep.rhs))
        tables[n] = rows
    # the emitted table must decay strictly, and the translation bound
    # g(r) |B(r)| must at least halve from R/4 to R/64
    decay_ok = True
    halve_ok = True
    for rows in tables.values():
        gs = [g for _, g, _ in rows]
        rhss = [b for _, _, b in rows]
        decay_ok &= all(a > b for a, b in zip(gs, gs[1:]))
        decay_ok &= all(a > b for a, b in zip(rhss, rhss[1:]))
        halve_ok &= rhss[-1] < 0.5 * rhss[0]
    elapsed = time.time() - started
    ok = bound_ok and decay_ok and halve_ok and elapsed < 300.0
    g_ratio = tables[32][-1][1] / tables[32][0][1]
    rhs_ratio = tables[32][-1][2] / tables[32][0][2]
    report_line(
        "AC-7 translation estimate",
        ok,
        started,
        f"bound ratio R/64 vs R/4: {rhs_ratio:.4f} (bare g ratio {g_ratio:.3f})",
    )
    assert bound_ok
    assert decay_ok
    assert halve_ok
    assert elapsed < 300.0


def test_ac8_weak_type_battery():
    started = time.time()
    grid = make_grid(1, 2.0, 0.01)
    x = grid.coords()
    profile = catalog_field("sobolev-singular", 1)
    battery = {
        "indicator_wide": (np.abs(x) <= 1.0).astype(float),
        "indicator_narrow": (np.abs(x) <= 0.5).astype(float),
        "constant_1.01": np.full_like(x, 1.01),
        "constant_0.505": np.full_like(x, 0.505),
        "singular_speed": profile.speed(0.0, grid.points),
    }
    alphas = [2.0**-k for k in range(7)]
    constants = {}
    for name, f in battery.items():
        rep = weak_type_check(grid, f, 1.0, 1.0, alphas)
        constants[name] = rep.constants["c_measured"]
        assert rep.passed
    c_single = max(constants.values())
    spread = c_single / min(constants.values())
    elapsed = time.time() - started
    ok = np.isfinite(c_single) and spread <= 2.0 and elapsed < 60.0
    report_line(
        "AC-8 weak-type battery",
        ok,
        started,
        f"C = {c_single:.3f}, cross-function spread {spread:.2f}",
    )
    assert np.isfinite(c_single)
    assert spread <= 2.0
    assert elapsed < 60.0


def test_ac9_integrator_sanity(pushforward_bound):
    started = time.time()
    f = catalog_field("linear", 1, slope=-1.0)
    grid = make_grid(1, 1.0, 0.01)
    ens = integrate_ensemble(f, grid, 1.0, 1e-3)
    x0 = grid.points[:, 0]
    nz = x0 != 0.0
    exact = x0[nz] * math.exp(-1.0)
    rel = np.max(np.abs(ens.positions[nz, -1, 0] - exact) / np.abs(exact))
    endpoint_ok = rel <= 1e-6

    # the lattice Jacobian's push-forward density e^t peaks at e
    density = pushforward_bound(ens)
    density_ok = abs(density / math.e - 1.0) <= 1e-9

    elapsed = time.time() - started
    ok = endpoint_ok and density_ok and elapsed < 30.0
    report_line(
        "AC-9 integrator sanity",
        ok,
        started,
        f"endpoint rel err {rel:.2e}, density {density:.12f} vs e",
    )
    assert endpoint_ok
    assert density_ok
    assert elapsed < 30.0
