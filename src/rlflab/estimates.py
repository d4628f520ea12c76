"""Measured left and right sides for the quantitative flow estimates.

Six families of checks, each emitting :class:`EstimateReport`:

* ``thm31``   a-priori stability of two flows in the psi_delta functional
* ``cauchy``  the mollification Cauchy-sequence bound and its delta_{n,m}
* ``thm41``   the regularity set E with its uniform modulus bound
* ``prop43``  the ball-average compactness functional a(r, R, X)
* ``thm44``   the translation estimate with its vanishing g(r) table
* ``lemma23`` the weak-type superlevel bound of the local maximal function

``regularity_set`` returns the rows of E and its thm41 report, whose
constants carry the threshold, deficit, epsilon, lens, C_bar, C_d and the
size of E; ``cauchy_diagnostic`` returns its reports.  A witness enters every
right side only through its values and its L1 norm, ``witness_l1_norm``.

Verdicts use multiplicative slack (default 5%) plus a declared additive
budget assembled from the discretization parameters (grid spacing, series
truncation, integrator step).  Four constants on the right sides are
measured, not bounded, so a passing verdict can lean on an optimistic
constant (ROADMAP item 2):

* L is exp(T times a grid sup of [div b]^-) (``compressibility_constant``):
  6.914 against the true sup H_K = 7.4855 on ``osgood-sum`` (K = 1000),
  119.4 against 6,463 on ``sobolev-singular``;
* thm41's C_d is the weak-type ratio measured on Phi, a lower bound for
  the maximal operator's constant;
* lemma23's rhs is c_measured times the integral of |f|, with c_measured
  taken from the same superlevel sets, so its verdict cannot fail;
* the ``osgood-sum`` witness constant c2 is a sup over random pairs
  (``measure_osgood_constant``); with ``WITNESS_HEADROOM`` it clears the
  pairs (0, s) by 0.06%.

Every field carries its witness, modulus and divergence, and every flow
the field that drives it, so each estimate reads a level's field, modulus,
horizon, spacing and times from its ensemble.  The base field b is passed
beside the ensembles only where the theorem states its constants for b, not
for the mollified b^n: the Cauchy table, thm41, prop43 and the thm44
constants.  ``_report`` builds every report and refuses a non-finite side
or constant, so no verdict rests on an infinite or NaN quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .fields import (
    VectorField,
    compressibility_constant,
    dyadic_radii,
    measured_once,
)
from .flow import TrajectoryEnsemble, sup_distance, sup_distance_rows
from .modulus import ModulusOfContinuity, PsiFunctional
from .numerics import (
    MEMBERSHIP_SLACK,
    PointGrid,
    ball_measure,
    grid_integral,
    make_grid,
    row_blocks,
    row_norms,
    split_rows,
)
from .reporting import EstimateReport

__all__ = [
    "EstimateError",
    "TranslationConstants",
    "field_l1_distance",
    "witness_l1_norm",
    "stability_report",
    "cauchy_diagnostic",
    "regularity_Q",
    "regularity_set",
    "compactness_a",
    "translation_constants",
    "translation_functional",
    "weak_type_check",
]

DEFAULT_SLACK = 0.05
# least delta of thm31 (when none is given) and of Cauchy: the measured
# field distance, or this when the fields (nearly) coincide on the grid
ZERO_DISTANCE_DELTA = 1e-6

# ratio of a ball's volume to its intersection with an equal ball centered
# one radius away; interval/lens/spindle geometry per dimension
LENS_CONSTANT = {
    1: 2.0,
    2: math.pi / (2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0),
    3: 16.0 / 5.0,
}


class EstimateError(Exception):
    """Invalid estimate configuration."""


def _report(
    estimate_id: str,
    lhs,
    rhs,
    constants: dict,
    metadata: dict,
    slack: float,
    additive: float = 0.0,
) -> EstimateReport:
    """The report with float sides, slack and budget; a non-finite side, or
    float constant or list entry, is raised as an EstimateError that names
    the estimate and the culprits, so every report is valid JSON."""
    culprits = ", ".join(
        name
        for name, c in constants.items()
        if any(
            isinstance(v, float) and not math.isfinite(v)
            for v in (c if isinstance(c, list) else [c])
        )
    )
    for side, value in (("lhs", lhs), ("rhs", rhs)):
        if not math.isfinite(value):
            raise EstimateError(
                f"{estimate_id} {side} is {value}"
                + (f" (non-finite: {culprits})" if culprits else "")
            )
    if culprits:
        raise EstimateError(f"{estimate_id} has non-finite {culprits}")
    return EstimateReport(
        estimate_id, float(lhs), float(rhs), constants, metadata,
        float(slack), float(additive),
    )


def _metadata(ensemble: TrajectoryEnsemble, field=None, m="") -> dict:
    """The six metadata keys of every report: id and series truncation K of
    ``field`` (default: the ensemble's), the ensemble's level n, level m,
    and the ensemble's h and tau."""
    field = ensemble.field if field is None else field
    return {
        "field": field.catalog_id,
        "n": ensemble.field.mollification_level,
        "m": m,
        "h": ensemble.grid.spacing,
        "tau": ensemble.tau,
        "K": "" if field.terms is None else field.terms,
    }


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def _l1_in_time(norm_at, times, grid: PointGrid) -> float:
    """L1 norm over [t0, t1] x grid ball of the pointwise values
    ``norm_at(t, grid.points)``: the time span times the Riemann sum at t0
    (catalog fields do not depend on t)."""
    times = np.asarray(times, dtype=np.float64)
    space = grid_integral(grid, norm_at(times[0], grid.points))
    return float((times[-1] - times[0]) * space)


def field_l1_distance(
    fa: VectorField,
    fb: VectorField,
    times: np.ndarray,
    grid: PointGrid,
) -> float:
    """||b - b~||_L1([t0, t1] x grid ball)."""

    def gap(t, pts):
        return row_norms(fa(t, pts) - fb(t, pts))

    return _l1_in_time(gap, times, grid)


def witness_l1_norm(field: VectorField, times, grid: PointGrid) -> float:
    """||g||_L1([t0, t1] x grid ball) of ``field``'s witness g."""
    witness = field.witness
    return _l1_in_time(lambda t, pts: np.abs(witness(t, pts)), times, grid)


def _field_distance(fa, fb, times, grid: PointGrid) -> float:
    """``field_l1_distance``, measured once per pair of fields, grid and time
    span and kept on ``fa``."""
    return measured_once(
        fa,
        ("l1_distance", float(times[0]), float(times[-1])),
        grid,
        lambda: field_l1_distance(fa, fb, times, grid),
        other=fb,
    )


def _witness_norm(field: VectorField, times, grid: PointGrid) -> float:
    """``witness_l1_norm``, measured once per field, grid and time span and
    kept on the field."""
    return measured_once(
        field,
        ("witness_l1", float(times[0]), float(times[-1])),
        grid,
        lambda: witness_l1_norm(field, times, grid),
    )


def _neighbor_rows(grid: PointGrid, rows, radius: float):
    """The grid rows of x + k h for the centers x at grid ``rows``, one
    array per nonzero lattice offset k in B(r).

    Every shifted point x + k h must be a grid point: a window is never
    truncated, and a grid that misses one raises.
    """
    m = grid.half_width
    slot = grid.embed(np.arange(grid.n_points), fill=-1)
    centers = grid.indices[rows]
    for k in grid.ball_offsets(radius):
        idx = centers + k
        nbr = slot[grid.box_index(idx)] if np.abs(idx).max() <= m else -1
        if np.min(nbr) < 0:
            raise EstimateError(
                f"ensemble grid of radius {grid.radius} does not hold every "
                f"shifted point x + k h with |k h| <= {radius}"
            )
        yield nbr


def _separation(there: np.ndarray, here: np.ndarray) -> np.ndarray:
    """|there - here| over the last axis, summed coordinate by coordinate."""
    diff = there - here
    dist = np.square(diff[..., 0])
    for j in range(1, diff.shape[-1]):
        dist += np.square(diff[..., j])
    return np.sqrt(dist, out=dist)


def _additive_budget(
    ensemble: TrajectoryEnsemble, delta: float, region_measure: float
) -> dict:
    """Declared discretization allowances added to the slack.

    Series truncation of the ensemble's field shifts both flows by at most
    T/terms, the integrator contributes O(tau^4), and each adaptive psi
    evaluation carries its quadrature tolerance; all three are scaled by
    the worst psi slope 1/delta over the integration region.
    """
    terms = ensemble.field.terms
    grid = ensemble.grid
    horizon_scale = region_measure / delta
    trunc = 2.0 / terms * horizon_scale if terms else 0.0
    rk4 = ensemble.tau**4 * horizon_scale
    quad = 1e-8 * grid.n_points * grid.cell_volume
    return {
        "budget_truncation": trunc,
        "budget_rk4": rk4,
        "budget_quadrature": quad,
        "additive_total": trunc + rk4 + quad,
    }


# --------------------------------------------------------------------------
# theorem 3.1: a-priori stability
# --------------------------------------------------------------------------


def stability_report(
    ens_a: TrajectoryEnsemble,
    ens_b: TrajectoryEnsemble,
    region_radius: float,
    delta: float | None = None,
    slack: float = DEFAULT_SLACK,
) -> EstimateReport:
    """Stability inequality: psi_delta of the sup distance vs witness norms.

    The flows X and X~ are driven by the fields b and b~ they carry.  LHS
    integrates psi_delta(sup_t |X - X~|) over B(region_radius); RHS is
    (L + L~) ||g|| + (L~/delta) ||b - b~|| with both L1 norms over
    [0, T] x B(R_bar), R_bar = R + T max(||b||, ||b~||), and g the first
    field's witness (the theorem's reading).  ``||b - b~||`` is measured
    once per pair of fields and kept on b, as is ``||g||``; when
    ``delta`` is omitted it is max(||b - b~||, ``ZERO_DISTANCE_DELTA``), as
    in ``cauchy_diagnostic``.  The LHS takes one adaptive
    psi_delta quadrature per grid point of B(region_radius), spread over the
    CPUs of the affinity mask (``numerics.split_rows``) and summed in grid
    order, so its value does not depend on the CPU count.
    """
    if not ens_a.same_mesh(ens_b):
        raise EstimateError("ensembles must share grid and mesh")
    field_a, field_b = ens_a.field, ens_b.field
    modulus = field_a.modulus
    cross = field_b.modulus != modulus
    horizon = ens_a.horizon
    grid = ens_a.grid
    if grid.radius < region_radius * (1.0 - MEMBERSHIP_SLACK):
        raise EstimateError("ensemble grid does not cover the report region")
    r_bar = region_radius + horizon * max(field_a.sup_bound, field_b.sup_bound)
    norm_grid = make_grid(grid.dimension, r_bar, grid.spacing)
    b_dist = _field_distance(field_a, field_b, ens_a.times, norm_grid)
    if delta is None:
        delta = max(b_dist, ZERO_DISTANCE_DELTA)
    if not delta > 0.0:
        raise EstimateError("delta must be positive")

    psi = PsiFunctional(modulus, float(delta))
    mask = grid.ball_mask(region_radius)
    sup = sup_distance(ens_a, ens_b)[mask]

    def fill(vals, lo, hi):
        vals[lo:hi] = [psi.psi(float(v)) for v in sup[lo:hi]]

    vals = split_rows(fill, len(sup))
    lhs = float(sum(vals.tolist()) * grid.cell_volume)

    g_norm = _witness_norm(field_a, ens_a.times, norm_grid)
    l_a = compressibility_constant(field_a, norm_grid, horizon)
    l_b = compressibility_constant(field_b, norm_grid, horizon)
    rhs = (l_a + l_b) * g_norm + l_b / delta * b_dist

    region_measure = ball_measure(grid.dimension, region_radius)
    budget = _additive_budget(ens_a, delta, region_measure)
    constants = {
        "L": l_a,
        "L_tilde": l_b,
        "delta": delta,
        "R": region_radius,
        "R_bar": r_bar,
        "g_norm": g_norm,
        "b_l1_distance": b_dist,
        "witness_choice": "a",
        "cross_modulus": cross,
        **budget,
    }
    return _report(
        "thm31",
        lhs,
        rhs,
        constants,
        _metadata(ens_a, m=field_b.mollification_level),
        slack=slack,
        additive=budget["additive_total"],
    )


# --------------------------------------------------------------------------
# theorem 3.2: Cauchy construction diagnostics
# --------------------------------------------------------------------------


def cauchy_diagnostic(
    base_field: VectorField,
    ensembles: list,
    eta: float,
    region_radius: float,
    slack: float = DEFAULT_SLACK,
) -> list:
    """Cauchy-sequence bound for the mollified flows, one report per pair
    of ``ensembles`` (n, m) with n before m, in list order.

    For each pair: the flow gap D_{n,m} integrated over B(R) (the lhs), and
    the bound eta |B(R)| + 2 R_bar C / psi_delta(eta) with
    delta = max(delta_{n,m}, ``ZERO_DISTANCE_DELTA``),
    delta_{n,m} = ||b^n - b^m||_L1 between the fields the two flows carry
    (constant ``delta_nm``) and C = 2 L ||g||_L1([0,T] x B(R_bar + 1)) + L
    built from the base witness and the base compressibility bound.
    """
    if len(ensembles) < 3:
        raise EstimateError("need at least 3 mollification levels")
    first = ensembles[0]
    for ens in ensembles[1:]:
        if not ens.same_mesh(first):
            raise EstimateError("ensembles must share a common mesh")
    if not eta > 0.0:
        raise EstimateError("eta must be positive")
    modulus = base_field.modulus
    horizon = first.horizon
    grid = first.grid
    r_bar = region_radius + horizon * base_field.sup_bound
    norm_grid = make_grid(grid.dimension, r_bar, grid.spacing)
    wide_grid = make_grid(grid.dimension, r_bar + 1.0, grid.spacing)
    base_l = compressibility_constant(base_field, wide_grid, horizon)
    g_norm_wide = _witness_norm(base_field, first.times, wide_grid)
    constant = 2.0 * base_l * g_norm_wide + base_l

    mask = grid.ball_mask(region_radius)
    region_measure = ball_measure(grid.dimension, region_radius)
    budget = _additive_budget(first, eta, region_measure)
    reports = []
    for i, en in enumerate(ensembles):
        for em in ensembles[i + 1 :]:
            delta_nm = _field_distance(en.field, em.field, first.times, norm_grid)
            d_nm = float(
                np.sum(sup_distance(en, em)[mask]) * grid.cell_volume
            )
            delta = max(delta_nm, ZERO_DISTANCE_DELTA)
            psi_val = PsiFunctional(modulus, delta).psi(eta)
            bound = eta * region_measure + 2.0 * r_bar * constant / psi_val
            constants = {
                "delta_nm": delta_nm,
                "eta": eta,
                "psi_delta_eta": psi_val,
                "C": constant,
                "L": base_l,
                "R": region_radius,
                "R_bar": r_bar,
                "g_norm_wide": g_norm_wide,
                **budget,
            }
            reports.append(
                _report(
                    "cauchy",
                    d_nm,
                    bound,
                    constants,
                    _metadata(en, base_field, em.field.mollification_level),
                    slack=slack,
                    additive=budget["additive_total"],
                )
            )
    return reports


# --------------------------------------------------------------------------
# theorem 4.1: regularity functional, set E, uniform modulus
# --------------------------------------------------------------------------


def regularity_Q(
    ensemble: TrajectoryEnsemble,
    modulus: ModulusOfContinuity,
    x,
    radius: float,
    t: float,
) -> float:
    """Ball average of psi_r(|X_t(x) - X_t(y)|) over grid points y in B(x, r).

    ``x`` must be a grid point whose ball stays inside the sampled region.
    """
    grid = ensemble.grid
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if radius <= 0.0:
        raise EstimateError("radius must be positive")
    if np.sqrt(np.sum(x * x)) + radius > grid.radius * (1 + 1e-9):
        raise EstimateError("x is not interior for this radius")
    hit = np.flatnonzero(np.all(np.abs(grid.points - x) < 1e-12, axis=1))
    if len(hit) != 1:
        raise EstimateError("x must be a grid point")
    ti = ensemble.time_index(t)
    mask = grid.ball_mask(radius, grid.points - x)
    xt = ensemble.positions[hit[0], ti, :]
    yt = ensemble.positions[mask, ti, :]
    dist = row_norms(yt - xt[None, :])
    psi = PsiFunctional(modulus, float(radius))
    return float(psi.psi_values(dist).mean())


def _q_sweep(
    ensemble: TrajectoryEnsemble,
    modulus: ModulusOfContinuity,
    radii,
    center_radius: float,
):
    """sup over mesh times and radii of Q(t, x, r) for x in B(center_radius).

    Ball averages accumulate over lattice offsets, vectorized across the
    mesh times and one ``numerics.row_blocks`` block of centers at a time,
    so each center's sum keeps its offset order whatever the block; the
    center itself adds psi(0) = 0.
    """
    rows = np.flatnonzero(ensemble.grid.ball_mask(center_radius))
    q_sup = np.zeros(len(rows))
    for r in radii:
        psi = PsiFunctional(modulus, float(r))
        for blk in row_blocks(len(rows), ensemble.n_times):
            here = ensemble.positions[rows[blk]]
            acc = np.zeros(here.shape[:2])
            count = 1
            for nbr in _neighbor_rows(ensemble.grid, rows[blk], r):
                acc += psi.psi_values(_separation(ensemble.positions[nbr], here))
                count += 1
            q_sup[blk] = np.maximum(q_sup[blk], (acc / count).max(axis=1))
    return rows, q_sup


def _live_radii(ensemble: TrajectoryEnsemble, radii, threshold: float):
    """The radii at which some Q(t, x, r) may exceed ``threshold``.

    With D = max over x and t of |X_t(x) - x|, every separation
    |X_t(x + k h) - X_t(x)| is at most |k h| + 2D; psi_r is nondecreasing
    and at most xi/r, and a ball average never exceeds its largest term, so
    Q(t, x, r) <= (r (1 + MEMBERSHIP_SLACK) + 2D)/r at every center.  A
    radius whose bound (with 1e-9 relative room for rounding) is at most
    ``threshold`` cannot exclude a center; it is kept when D is not finite.
    D is streamed over row blocks by ``flow.sup_distance_rows``.
    """
    start = ensemble.grid.points[:, None, :]
    moved = sup_distance_rows(ensemble.positions, start)
    reach = 2.0 * float(moved.max(initial=0.0))
    radii = np.asarray(radii, dtype=np.float64)
    bound = (radii * (1.0 + MEMBERSHIP_SLACK) + reach) / radii
    return radii[~(bound * (1.0 + 1e-9) <= threshold)]


def regularity_set(
    ensemble: TrajectoryEnsemble,
    field: VectorField,
    region_radius: float,
    epsilon: float,
    depth: int = 6,
    n_pair_samples: int = 10_000,
    seed: int = 20260809,
    slack: float = DEFAULT_SLACK,
):
    """The rows of the regularity set E, and its uniform continuity bound as
    a thm41 report.

    ``field`` is the rough field b whose witness g, modulus, sup bound and
    divergence the theorem states; ``ensemble`` is a mollified level's flow.
    Assembles Phi(x) = integral of g along the trajectory, measures the
    weak-type constant of the maximal operator on Phi itself, forms
    C_bar = 3 (1 + C_d) L ||g||_L1([0,T] x B(3R + T||b||)), takes
    E = {x in B(R): sup_t sup_r Q <= threshold} with
    threshold = max(C_bar/eps, 1) (the functional starts at Q(0) <= 1, so
    thresholds below 1 are degenerate), and verifies the pairwise bound
    |X_t(x) - X_t(y)| <= psi^{-1}_{|x-y|}(2 lens threshold) on sampled pairs
    of E at every mesh time.  Returns the grid rows of E and a thm41 report
    whose LHS is the worst distance/bound ratio (0 when the bound exceeds the
    largest attainable separation, which it typically does at desk scale);
    its ``n_pairs`` counts the sampled pairs of distinct rows checked, 0
    when E has fewer than 2 rows.

    E is decided in two steps.  The displacement bound of ``_live_radii``
    caps Q at each dyadic radius from D = max |X_t(x) - x| alone; a radius
    whose cap is at most the threshold cannot exclude a center and is not
    swept.  The Q sweep then runs over the remaining radii (none, when
    every cap is below the threshold).  The pair check walks the sampled
    lattice distances r upward; psi_r(xi_cap) falls as r grows, so the
    walk stops at the first r where it is at most the target less 1e-6:
    every bound from there on is vacuous.

    Memory: the pair separations and the displacement D stream over row
    blocks (``flow.sup_distance_rows``), so beyond per-pair and per-point
    results their temporaries hold about ``numerics.BLOCK_ELEMENTS``
    elements each, and so do a Q sweep's sum and offset distances.
    """
    grid = ensemble.grid
    modulus = field.modulus
    witness = field.witness
    d = grid.dimension
    region_measure = ball_measure(d, region_radius)
    if not 0.0 < epsilon < region_measure:
        raise EstimateError("epsilon must lie in (0, measure of B(R))")
    if grid.radius < 3.0 * region_radius * (1.0 - 1e-12):
        raise EstimateError("regularity needs an ensemble grid over B(3R)")
    horizon = ensemble.horizon

    # Phi by trapezoid along each trajectory
    tw = np.full(ensemble.n_times, ensemble.tau)
    tw[0] *= 0.5
    tw[-1] *= 0.5
    phi = np.zeros(grid.n_points)
    for ti in range(ensemble.n_times):
        phi += tw[ti] * witness(ensemble.times[ti], ensemble.positions[:, ti, :])

    # weak-type constant measured on Phi, exactly the proof's objects:
    # M_{2R} Phi on B(R), integral over B(3R)
    phi_max = float(phi[grid.ball_mask(region_radius)].max(initial=0.0))
    if phi_max > 0.0:
        alphas = phi_max * 0.5 ** np.arange(1, 8)
        wt = weak_type_check(
            grid, phi, region_radius, 2.0 * region_radius, alphas
        )
        c_d = float(wt.constants["c_measured"])
    else:
        c_d = 0.0

    big_radius = 3.0 * region_radius + horizon * field.sup_bound
    norm_grid = make_grid(d, big_radius, grid.spacing)
    g_norm = _witness_norm(field, ensemble.times, norm_grid)
    base_l = compressibility_constant(field, norm_grid, horizon)
    c_bar = 3.0 * (1.0 + c_d) * base_l * g_norm
    threshold = max(c_bar / epsilon, 1.0)

    radii = dyadic_radii(2.0 * region_radius, grid.spacing, depth)
    live = _live_radii(ensemble, radii, threshold)
    rows, q_max = _q_sweep(ensemble, modulus, live, region_radius)
    member = q_max <= threshold
    e_rows = rows[member]
    deficit = float((len(rows) - len(e_rows)) * grid.cell_volume)

    lens = LENS_CONSTANT[d]
    target = 2.0 * lens * threshold
    xi_cap = 2.0 * ensemble.growth_radius() + 1.0

    rng = np.random.default_rng(seed)
    worst = 0.0
    n_pairs = n_vacuous = 0
    if len(e_rows) >= 2 and n_pair_samples > 0:
        ia = rng.choice(e_rows, n_pair_samples)
        ib = rng.choice(e_rows, n_pair_samples)
        keep = ia != ib
        ia, ib = ia[keep], ib[keep]
        n_pairs = len(ia)
        max_dist = sup_distance_rows(
            ensemble.positions, ensemble.positions, ia, ib
        )
        # one psi_r per lattice distance r = h sqrt(k), k an integer, serves
        # the vacuity check psi_r(xi_cap) and the bound of every pair at r
        steps = grid.indices[ia] - grid.indices[ib]
        lattice = np.sum(steps * steps, axis=1)
        bounds = np.full(len(ia), np.inf)  # beyond any attainable distance
        for k in np.unique(lattice):
            fam = PsiFunctional(modulus, grid.spacing * math.sqrt(k))
            at_cap = fam.psi(xi_cap)
            # psi_r(xi_cap) falls as r grows: vacuous here, with room for
            # the quadrature error, means vacuous at every larger r
            if at_cap + 1e-6 <= target:
                break
            if at_cap > target:
                bounds[lattice == k] = fam.psi_inverse(target, tol=1e-9)
        n_vacuous = int(np.isinf(bounds).sum())
        finite = np.isfinite(bounds)
        ratios = np.zeros_like(bounds)
        ratios[finite] = max_dist[finite] / bounds[finite]
        worst = float(ratios.max(initial=0.0))
        if (max_dist > xi_cap).any():
            raise EstimateError("separation exceeded the growth cap")

    deficit_ok = deficit <= epsilon * (1.0 + slack)
    lhs = worst if deficit_ok else max(worst, 1.0 + slack + 1.0)
    constants = {
        "C_d_measured": c_d,
        "C_bar": c_bar,
        "threshold": threshold,
        "lens": lens,
        "deficit": deficit,
        "epsilon": epsilon,
        "L": base_l,
        "g_norm": g_norm,
        "set_size": len(e_rows),
        "n_pairs": n_pairs,
        "n_vacuous_bounds": n_vacuous,
        "xi_cap": xi_cap,
    }
    report = _report(
        "thm41", lhs, 1.0, constants, _metadata(ensemble, field), slack=slack
    )
    return e_rows, report


# --------------------------------------------------------------------------
# proposition 4.3: compactness functional
# --------------------------------------------------------------------------


def compactness_a(
    ensemble: TrajectoryEnsemble,
    field: VectorField,
    radius: float,
    region_radius: float,
    slack: float = DEFAULT_SLACK,
) -> EstimateReport:
    """a(r, R, X) = integral over B(R) of sup_t Q(t, x, r) against its bound.

    ``field`` is the rough field b behind the flow X; its modulus, witness,
    sup bound and divergence enter.  Requires 0 < r < R/2 and an ensemble
    grid covering B(R + r).  The bound is
    |B(R)| + 2 L ||g||_L1([0,T] x B(3R/2 + 2T||b||)).
    """
    if not 0.0 < radius < region_radius / 2.0:
        raise EstimateError("need 0 < r < R/2")
    grid = ensemble.grid
    horizon = ensemble.horizon
    _, q_sup = _q_sweep(ensemble, field.modulus, [radius], region_radius)
    lhs = float(np.sum(q_sup) * grid.cell_volume)

    r_bar = 1.5 * region_radius + 2.0 * horizon * field.sup_bound
    norm_grid = make_grid(grid.dimension, r_bar, grid.spacing)
    g_norm = _witness_norm(field, ensemble.times, norm_grid)
    base_l = compressibility_constant(field, norm_grid, horizon)
    region_measure = ball_measure(grid.dimension, region_radius)
    rhs = region_measure + 2.0 * base_l * g_norm
    constants = {
        "r": radius,
        "R": region_radius,
        "R_bar": r_bar,
        "L": base_l,
        "g_norm": g_norm,
        "ball_measure": region_measure,
    }
    return _report(
        "prop43", lhs, rhs, constants, _metadata(ensemble, field), slack=slack
    )


# --------------------------------------------------------------------------
# theorem 4.4: translation estimate
# --------------------------------------------------------------------------


def _offset_sums(ensemble: TrajectoryEnsemble, rows, radius: float):
    """Per mesh time, the sum of |X_t(x + k h) - X_t(x)| over the centers x
    at grid ``rows`` and the nonzero lattice offsets k in B(r).

    The sums stream over blocks of mesh times, each about
    ``numerics.BLOCK_ELEMENTS`` distances and at least 2 times wide
    (``row_blocks`` with ``min_rows=2``).  A column sum of a wider block
    adds the centers in order, as a sum over all mesh times at once does; a
    one-column sum would take numpy's pairwise path and round differently.
    """
    neighbors = list(_neighbor_rows(ensemble.grid, rows, radius))
    acc = np.zeros(ensemble.n_times)
    for cols in row_blocks(ensemble.n_times, len(rows), min_rows=2):
        here = ensemble.positions[rows, cols]
        for nbr in neighbors:
            acc[cols] += _separation(ensemble.positions[nbr, cols], here).sum(axis=0)
    return acc


@dataclass(frozen=True)
class TranslationConstants:
    """Uniform-in-level constants for the translation estimate."""

    r_tilde: float
    c_drt: float
    base_l: float
    sup_g_norm: float


def translation_constants(
    base_field: VectorField,
    ensembles: list,
    region_radius: float,
) -> TranslationConstants:
    """R~ = 3R/2 + 2T sup_n ||b^n|| and C = |B(R)| + 2L sup_n ||g^n||, over
    the fields b^n that drive ``ensembles``, on the first one's horizon T,
    spacing and times."""
    first = ensembles[0]
    horizon = first.horizon
    sup_b = max(e.field.sup_bound for e in ensembles)
    r_tilde = 1.5 * region_radius + 2.0 * horizon * sup_b
    norm_grid = make_grid(base_field.dimension, r_tilde, first.grid.spacing)
    base_l = compressibility_constant(base_field, norm_grid, horizon)
    sup_g = max(
        _witness_norm(e.field, first.times, norm_grid) for e in ensembles
    )
    c_drt = (
        ball_measure(base_field.dimension, region_radius)
        + 2.0 * base_l * sup_g
    )
    return TranslationConstants(r_tilde, c_drt, base_l, sup_g)


def translation_functional(
    ensemble: TrajectoryEnsemble,
    radius: float,
    region_radius: float,
    consts: TranslationConstants,
    slack: float = DEFAULT_SLACK,
) -> EstimateReport:
    """sup_t of the double integral of |X_t(x) - X_t(x+z)| vs g(r) |B(r)|.

    z runs over lattice multiples of the grid spacing inside B(r) (nearest
    trajectory lookup, no interpolation); the bound is
    g(r) = (R~ / psi_r(R~)) C_{d,R,T} times the measure of B(r), with psi_r
    of the modulus of the field that drives ``ensemble``.
    """
    if not 0.0 < radius < region_radius / 2.0:
        raise EstimateError("need 0 < r < R/2")
    grid = ensemble.grid
    rows = np.flatnonzero(grid.ball_mask(region_radius))
    acc = _offset_sums(ensemble, rows, radius)
    lhs = float(acc.max() * grid.cell_volume * grid.cell_volume)

    psi = PsiFunctional(ensemble.field.modulus, float(radius))
    psi_at_rt = psi.psi(consts.r_tilde)
    g_of_r = consts.r_tilde / psi_at_rt * consts.c_drt
    rhs = g_of_r * ball_measure(grid.dimension, radius)
    constants = {
        "r": radius,
        "R": region_radius,
        "R_tilde": consts.r_tilde,
        "C_dRT": consts.c_drt,
        "psi_r_at_R_tilde": psi_at_rt,
        "g_of_r": g_of_r,
        "L": consts.base_l,
        "sup_g_norm": consts.sup_g_norm,
    }
    return _report(
        "thm44", lhs, rhs, constants, _metadata(ensemble), slack=slack
    )


# --------------------------------------------------------------------------
# lemma 2.3: weak-type bound of the local maximal function
# --------------------------------------------------------------------------


def weak_type_check(
    grid: PointGrid,
    samples: np.ndarray,
    region_radius: float,
    radius_cap: float,
    alphas,
    metadata: dict | None = None,
) -> EstimateReport:
    """Measure the weak-type superlevel bound of M_lambda on |samples|.

    For each threshold alpha, records the superlevel measure inside
    B(region_radius) and the ratio  measure * alpha / integral |f|; the
    report's measured constant is the sup of those ratios.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if np.any(alphas <= 0.0):
        raise EstimateError("thresholds must be positive")
    if grid.radius < region_radius + radius_cap - MEMBERSHIP_SLACK:
        raise EstimateError("grid must cover B(region_radius + radius_cap)")
    # looked up on ``fields`` at call time, so that a wrapper installed
    # there also sees this call
    m_f = fields.maximal_function(grid, samples, radius_cap)
    inside = grid.ball_mask(region_radius)
    integral = grid_integral(grid, np.abs(samples))
    cell = grid.cell_volume
    measures = np.array([(m_f[inside] > a).sum() * cell for a in alphas])
    if integral > 0.0:
        ratios = measures * alphas / integral
        c_measured = float(ratios.max())
    else:
        ratios = np.zeros_like(alphas)
        c_measured = 0.0
    lhs = float(np.max(measures * alphas))
    rhs = c_measured * integral
    constants = {
        "c_measured": c_measured,
        "integral_abs_f": integral,
        "alphas": alphas.tolist(),
        "superlevel_measures": measures.tolist(),
        "ratios": ratios.tolist(),
        "region_radius": region_radius,
        "radius_cap": radius_cap,
    }
    meta = {"h": grid.spacing, **(metadata or {})}
    return _report("lemma23", lhs, rhs, constants, meta, slack=1e-12)
