"""Vector-field catalog, continuity witnesses, mollification and local
maximal functions.

The catalog ships five bounded autonomous fields (every interface still
carries a time argument):

* ``constant``            b = v, witness 0
* ``linear``              b = a x with a scalar slope a, smoothly
                          truncated far outside the working ball, analytic
                          divergence
* ``osgood-sum``          components V_K(x_i) = sum_{k<=K} |sin(k x_i)|/k^2,
                          constant witness against the log modulus
* ``sobolev-singular``    b = min(|x|^-alpha, cap) e1, calibrated
                          maximal-function witness against the linear modulus
* ``combined``            sobolev-singular + osgood-sum, composite witness
                          against the log modulus

A witness g certifies the hybrid continuity bound

    |b_t(x) - b_t(y)| <= (g_t(x) + g_t(y)) rho(|x - y|)

off the singular points that calibration excludes.  A witness is a plain
function ``g(t, pts (n, d)) -> (n,)``: the estimates read it only through
its values and its L1 norm (``estimates.witness_l1_norm``).  Every field is
built with its witness g, its modulus rho and its divergence, so no estimate
meets a field without them.  Measured witness constants are inflated by a
small headroom factor (1.5%) so that the certificate also covers pairs that
the finite calibration sample missed; the raw constants are the return
values of ``measure_osgood_constant`` (cached per term count) and
``calibrate_witness_constant``, which also returns the witness, and a field
keeps only its witness.

Every field has one evaluator, one divergence and one quadrature, and
``mollify`` is the only place that knows how a field is convolved.

This module builds fields and writes no reports: the lemma23 weak-type
check of the maximal function is an estimate (``estimates``), every byte
and name of a result file (reports, ``summary.csv``, plots) comes from
``reporting``, and ``cli`` writes them.  The only file this module writes
is the disk cache of the tail table below.

Performance note: the base ``osgood-sum`` evaluates V_K exactly
(``series_direct``); only its mollified levels, which the flows integrate,
read the tail table.  V_K is even and pi-periodic, so a mollified level
folds every shifted point onto the half period [0, pi/2] and takes the
k > 16 tail from a piecewise-linear table at 1e-6 spacing (about 12.6 MB on
disk).  The table error is ``step / (2 (k0 + 1))`` from slope breaks of the
first tail term plus a curvature term below 1e-12, about 3e-8 total, except
within a step of x = p pi / q for small q, where every tail term with q | k
breaks slope at once: for K = 1000 it reaches 9.0e-7 next to pi/2 and
6.8e-7 next to pi/3, and about 3e-5 of uniformly drawn points exceed 5e-8.
No error budget carries that excess yet.  Mollified evaluators use kernel
weights normalized to unit mass, so they are convex combinations of field
values: constants mollify exactly, sup bounds are inherited exactly, and the
witness-transfer inequality is preserved by construction.  The mollified
``osgood-sum`` is that convex combination up to rounding, not exactly: each
component takes the kernel's axis marginal on its 49 axis nodes, and the
nodes' symmetric pairs give the k <= 16 part (every k for the divergence)
in closed form, leaving 49 tail lerps per point and component.
``combined`` is mollified by linearity, as the sum of its mollified parts;
the other fields, and every witness, take the generic blocked quadrature.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .modulus import ModulusOfContinuity
from .numerics import (
    BALL_VOLUME_COEFF,
    GridError,
    MEMBERSHIP_SLACK,
    PointGrid,
    integrate_1d,
    make_grid,
    row_blocks,
    row_norms,
    split_rows,
)

__all__ = [
    "FieldError",
    "CalibrationError",
    "MollifierKernel",
    "VectorField",
    "CATALOG",
    "catalog_field",
    "mollify",
    "maximal_function",
    "calibrate_witness_constant",
    "divergence_negative_part",
    "compressibility_constant",
    "series_direct",
    "series_deriv_direct",
    "measure_osgood_constant",
    "sobolev_profile",
]

PI2_OVER_6 = math.pi**2 / 6.0

# headroom applied to measured witness constants (sampling-density margin)
WITNESS_HEADROOM = 1.015

# central finite-difference step for divergence of mollified fields; small
# enough that slope breaks of the underlying series rarely fall inside the
# stencil, large enough to sit far above evaluator roundoff
FD_DIV_STEP = 2e-6

# measure_osgood_constant: random pairs on [-span, span]^2 against log rho
OSGOOD_PAIRS = 100_000
OSGOOD_SEED = 20260809
OSGOOD_SPAN = 3.0

# sobolev-singular profile min(|x|^-alpha, cap): default exponent and cap
SOBOLEV_ALPHA = 0.3
SOBOLEV_CAP = 10.0

# sobolev-singular witness calibration grid B(radius) at spacing, and pairs
SOBOLEV_CAL_RADIUS = 2.0
SOBOLEV_CAL_SPACING = 0.01
SOBOLEV_CAL_PAIRS = 10_000
SOBOLEV_CAL_SEED = 20260809

# calibration skips pairs within this many grid spacings of a singular point
SINGULAR_EXCLUSION = 2.0

# the linear field is flat out to this radius, then fades to 0 over the width
LINEAR_TRUNC_RADIUS = 6.0
LINEAR_BLEND_WIDTH = 1.0

# midpoint nodes per axis of the mollifier quadrature: the smallest odd count
# whose discrete kernel mass is within 1e-6 of one in every supported
# dimension (49 measures 5.1e-7 in d = 1; 33 measures 4.6e-6)
KERNEL_NODES = 49


class FieldError(Exception):
    """Invalid field construction or use."""


class CalibrationError(FieldError):
    """Witness calibration could not use any sampled pair."""


# ==========================================================================
# truncated oscillatory series V_K and its tail table
# ==========================================================================

SERIES_DIRECT_TERMS = 16
SERIES_TAIL_STEP = 1e-6
# every term |sin(k x)|/k^2 is even and pi-periodic, so [0, pi/2] covers R
SERIES_DOMAIN = math.pi / 2
# the recurrence keeps about seven float64 temporaries per point alive, so
# 2^15 points (1.8 MB) stay in a 2 MB L2 cache; 2^17 spill it and make the
# tail-table build 0.69 s instead of 0.50 s, while 2^11 pays more per-call
# overhead (0.90 s).  Values do not depend on the chunk length.
_CHUNK = 1 << 15


def _chunked(fn, x, size=_CHUNK):
    """fn over float64 ``x`` in pieces of ``size``; a scalar gives a float."""
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.ravel()
    out = _fill_pieces(lambda lo, hi: fn(flat[lo:hi]), len(flat), size)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _fill_pieces(piece, n: int, size=_CHUNK) -> np.ndarray:
    """The length-``n`` array whose ``[lo:hi]`` is ``piece(lo, hi)`` over
    consecutive pieces of ``size``.

    At least two ``_CHUNK``s are split across the CPUs of the affinity mask
    at piece edges (``numerics.split_rows``), so every piece is computed
    exactly as in one process.
    """

    def fill(out, lo, hi):
        for i in range(lo, hi, size):
            j = min(i + size, hi)
            out[i:j] = piece(i, j)

    if n >= 2 * _CHUNK:
        return split_rows(fill, n, align=size)
    out = np.empty(n)
    fill(out, 0, n)
    return out


def _series_chunk(x: np.ndarray, k_from: int, k_to: int) -> np.ndarray:
    """sum_{k=k_from..k_to} |sin(k x)| / k^2 by the Chebyshev recurrence."""
    acc = np.zeros_like(x)
    if k_to < k_from:
        return acc
    two_c = 2.0 * np.cos(x)
    if k_from == 1:
        s_prev = np.zeros_like(x)
        s_cur = np.sin(x)
        k = 1
    else:
        s_prev = np.sin((k_from - 1) * x)
        s_cur = np.sin(k_from * x)
        k = k_from
    while True:
        acc += np.abs(s_cur) / (k * k)
        if k == k_to:
            break
        s_prev, s_cur = s_cur, two_c * s_cur - s_prev
        k += 1
    return acc


def _deriv_chunk(x: np.ndarray, terms: int) -> np.ndarray:
    """sum_{k<=terms} cos(k x) sign(sin(k x)) / k by the same recurrence."""
    two_c = 2.0 * np.cos(x)
    s_prev = np.zeros_like(x)
    c_prev = np.ones_like(x)
    s_cur = np.sin(x)
    c_cur = np.cos(x)
    acc = np.zeros_like(x)
    k = 1
    while True:
        acc += c_cur * np.sign(s_cur) / k
        if k == terms:
            break
        s_prev, s_cur = s_cur, two_c * s_cur - s_prev
        c_prev, c_cur = c_cur, two_c * c_cur - c_prev
        k += 1
    return acc


def series_direct(x, terms: int) -> np.ndarray:
    """Exact partial sum V_terms at arbitrary points (chunked)."""
    return _chunked(lambda xa: _series_chunk(xa, 1, terms), x)


def series_deriv_direct(x, terms: int) -> np.ndarray:
    """Termwise derivative sum cos(kx) sign(sin(kx)) / k, odd in x.

    Defined off the finite set of corner points of the truncated series;
    at a corner the sign convention sign(0) = 0 is used.
    """
    return _chunked(lambda xa: _deriv_chunk(xa, terms), x)


def _tail_cache_path(terms: int) -> str:
    cache_dir = os.environ.get(
        "RLFLAB_CACHE", os.path.join(os.path.expanduser("~"), ".cache", "rlflab")
    )
    name = (
        f"tail_K{terms}_k{SERIES_DIRECT_TERMS}"
        f"_step{SERIES_TAIL_STEP:g}_halfpi.npy"
    )
    return os.path.join(cache_dir, name)


def _save_atomic(path: str, table: np.ndarray) -> None:
    """Write through a temp file and rename, so no reader sees half a table."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    except OSError:
        return  # the cache is an optimization only
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, table)
        os.replace(tmp, path)
    except OSError:
        os.unlink(tmp)


@functools.cache
def _tail_table(terms: int) -> np.ndarray:
    """Tail sum_{k>k0} |sin(k x)|/k^2 tabulated on the half period
    [0, SERIES_DOMAIN] = [0, pi/2].

    The table is deterministic, so it is memoized on disk (about 12.6 MB)
    as well as in process.  A disk copy is used only if its shape and nine
    recomputed entries, the first and the last included, match; otherwise
    it is rebuilt and overwritten.  The match has a tolerance because
    vectorized sin/cos may differ by an ulp between array lengths.

    A build holds the table and one ``_CHUNK`` piece's temporaries: each
    piece generates its own abscissas, so no array of every abscissa
    exists next to the table.
    """
    n = int(round(SERIES_DOMAIN / SERIES_TAIL_STEP)) + 2
    idx = np.linspace(0, n - 1, 9).round().astype(np.int64)
    fresh = _series_chunk(idx * SERIES_TAIL_STEP, SERIES_DIRECT_TERMS + 1, terms)
    path = _tail_cache_path(terms)
    try:
        table = np.load(path)
    except (OSError, ValueError, EOFError):
        table = np.empty(0)  # missing or unreadable: rebuild
    if table.shape == (n,) and np.all(np.abs(table[idx] - fresh) <= 1e-12):
        return table

    def piece(lo, hi):
        xs = np.arange(lo, hi, dtype=np.float64) * SERIES_TAIL_STEP
        return _series_chunk(xs, SERIES_DIRECT_TERMS + 1, terms)

    table = _fill_pieces(piece, n)
    _save_atomic(path, table)
    return table


class SeriesEvaluator:
    """The series V_K split for mollification: exact k <= ``k0`` = 16 and
    the tabulated tail sum_{k>16} on the half period [0, pi/2].

    V_K is even and pi-periodic, so ``tail`` serves all of R once a point is
    folded onto [0, pi/2].  The table is built or loaded here.
    """

    def __init__(self, terms: int):
        if terms < 1:
            raise FieldError("series needs at least one term")
        self.terms = int(terms)
        self.k0 = min(self.terms, SERIES_DIRECT_TERMS)
        self._tail = _tail_table(self.terms) if self.terms > self.k0 else None

    def tail(self, ax: np.ndarray) -> np.ndarray:
        """Lerp of the tabulated tail sum_{k>16} at folded points ``ax``."""
        u = ax / SERIES_TAIL_STEP
        idx = u.astype(np.int64)
        frac = u - idx
        tail = self._tail
        return tail[idx] * (1.0 - frac) + tail[idx + 1] * frac


def _finite_or_zero(x: np.ndarray):
    """``x`` with non-finite entries set to 0, and the mask of those entries."""
    bad = ~np.isfinite(x)
    return (np.where(bad, 0.0, x) if bad.any() else x), bad


@functools.cache
def measure_osgood_constant(terms: int) -> float:
    """Empirical sup of |V_K(t) - V_K(s)| / rho(|t - s|) over random pairs,
    with the log modulus rho.

    The true constant is existential in the underlying theory; this measured
    stand-in uses exact partial sums (no table), as the base field does.
    The pairs are taken one ``_CHUNK`` piece at a time, so only their
    ratios are held for all pairs.  Cached per term count.
    """
    rng = np.random.default_rng(OSGOOD_SEED)
    t = rng.uniform(-OSGOOD_SPAN, OSGOOD_SPAN, OSGOOD_PAIRS)
    s = rng.uniform(-OSGOOD_SPAN, OSGOOD_SPAN, OSGOOD_PAIRS)
    keep = t != s
    t, s = t[keep], s[keep]
    rho = ModulusOfContinuity("log")

    def piece(lo, hi):
        tp, sp = t[lo:hi], s[lo:hi]
        gap = _series_chunk(tp, 1, terms) - _series_chunk(sp, 1, terms)
        return np.abs(gap) / rho(np.abs(tp - sp))

    return float(_fill_pieces(piece, len(t)).max())


# ==========================================================================
# witnesses
# ==========================================================================


def constant_witness(value: float):
    value = float(value)
    if value < 0.0:
        raise FieldError("witness must be nonnegative")

    def ev(t, pts):
        return np.where(np.isfinite(pts).all(axis=1), value, np.nan)

    return ev


# ==========================================================================
# mollifier kernels
# ==========================================================================

@functools.cache
def _bump_normalizer(dimension: int) -> float:
    """1 / integral of the bump over the unit ball, per dimension: the
    sphere area d |B_1| times the radial integral, taken over [-1, 1]."""
    if dimension not in BALL_VOLUME_COEFF:
        raise FieldError("kernel dimensions stop at 3")
    radial = integrate_1d(
        lambda r: abs(r) ** (dimension - 1) * math.exp(-1.0 / (1.0 - r * r))
        if abs(r) < 1
        else 0.0,
        -1.0,
        1.0,
        1e-13,
    ).value
    return 1.0 / (0.5 * dimension * BALL_VOLUME_COEFF[dimension] * radial)


@dataclass(frozen=True)
class MollifierKernel:
    """Standard bump kernel scaled to support radius 1/level.

    chi_n(z) = n^d c_d exp(-1/(1 - |n z|^2)) on |z| < 1/n.  Quadrature is a
    tensor-product midpoint rule with ``KERNEL_NODES`` nodes per axis.
    """

    level: int

    def __post_init__(self):
        if self.level < 1:
            raise FieldError("kernel level must be a positive integer")

    def density(self, z: np.ndarray, dimension: int) -> np.ndarray:
        """Scaled kernel density chi_n at points z of shape (m, d)."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        r = row_norms(self.level * z)
        c = _bump_normalizer(dimension)
        vals = np.zeros_like(r)
        inside = r < 1.0
        vals[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
        return self.level**dimension * c * vals

    def nodes_weights(self, dimension: int):
        """Midpoint nodes, raw weights, and the raw quadrature mass."""
        _, nodes, weights = self._quadrature(dimension)
        return nodes, weights, float(weights.sum())

    def axis_marginal(self, dimension: int):
        """The axis nodes and the kernel's marginal weight on each, at unit
        mass.  The midpoint ball is symmetric under permutations of the
        axes, so this one marginal (summed along axis 0) serves every axis."""
        axis, nodes, weights = self._quadrature(dimension)
        cols = np.searchsorted(axis / self.level, nodes[:, 0])
        marginal = np.bincount(cols, weights, minlength=len(axis))
        return axis / self.level, marginal / weights.sum()

    def _quadrature(self, dimension: int):
        """Unscaled axis nodes, then the nodes and raw weights in the ball."""
        nax = KERNEL_NODES
        step = 2.0 / nax  # in unscaled coordinates on [-1, 1]
        axis = -1.0 + (np.arange(nax) + 0.5) * step
        mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
        u = np.stack(mesh, axis=-1).reshape(-1, dimension)
        keep = np.sum(u * u, axis=1) < 1.0
        u = u[keep]
        nodes = u / self.level
        cell = (step / self.level) ** dimension
        weights = self.density(nodes, dimension) * cell
        return axis, nodes, weights


# ==========================================================================
# vector fields
# ==========================================================================


@dataclass(frozen=True)
class VectorField:
    """Bounded vector field with its witness, modulus and divergence.

    ``evaluator(t, pts)`` maps an (n, d) array of points to (n, d)
    velocities, and ``witness(t, pts)`` to (n,) witness values.
    ``sup_bound`` must be finite.  ``witness``, ``modulus`` and
    ``div_evaluator`` are required: every estimate reads them.
    ``div_evaluator`` is the catalog's analytic divergence, or, on a
    mollified field, the central difference at ``FD_DIV_STEP`` that
    ``mollify`` sets.  ``series`` and ``parts`` only tell ``mollify`` how
    to convolve the field.  ``terms`` is the series truncation K of a field
    built on V_K (report metadata K and the truncation budget), None for the
    others.  Catalog fields do not depend on t, but every interface carries
    it.
    """

    dimension: int
    catalog_id: str
    sup_bound: float
    evaluator: object
    witness: object
    modulus: ModulusOfContinuity
    div_evaluator: object
    terms: int | None = None
    mollification_level: int | None = None
    # set when component i is series(x_i), so that mollify can convolve
    # each component in closed form
    series: SeriesEvaluator | None = None
    # fields whose evaluators and divergences sum to this field's, so that
    # mollify convolves each of them by linearity
    parts: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.sup_bound):
            raise FieldError(
                f"{self.catalog_id} sup bound must be finite, "
                f"got {self.sup_bound}"
            )
        # (key, other field, grid, value) entries of measured_once; a
        # value-idempotent cache
        object.__setattr__(self, "_measured", [])

    def __call__(self, t: float, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.dimension:
            raise FieldError(
                f"points have dimension {pts.shape[1]}, field has "
                f"{self.dimension}"
            )
        return np.asarray(self.evaluator(t, pts), dtype=np.float64)

    def divergence(self, t: float, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.div_evaluator(t, np.asarray(pts, np.float64)))

    def speed(self, t: float, pts: np.ndarray) -> np.ndarray:
        return row_norms(self(t, pts))


def measured_once(field: VectorField, key, grid: PointGrid, measure, other=None):
    """``measure()``, taken once per key, other field and grid, and kept on
    ``field``.

    ``key`` (a string or a tuple of strings and numbers) matches by value,
    ``other`` by identity and ``grid`` by ``PointGrid`` equality.  A field
    made by ``replace`` starts with nothing kept.
    """
    for k, o, g, value in field._measured:
        if k == key and o is other and g == grid:
            return value
    value = measure()
    field._measured.append((key, other, grid, value))
    return value


def catalog_field(catalog_id: str, dimension: int = 1, **params) -> VectorField:
    """Construct a catalog field; unknown ids raise with the catalog list."""
    if catalog_id not in CATALOG:
        raise FieldError(
            f"unknown field id {catalog_id!r}; catalog: {', '.join(CATALOG)}"
        )
    return CATALOG[catalog_id](dimension, **params)


def _make_constant(dimension, value=1.0):
    v = np.full(dimension, float(value))

    def ev(t, pts):
        out = np.broadcast_to(v, pts.shape).copy()
        bad = ~np.isfinite(pts).all(axis=1)
        if bad.any():
            out[bad] = np.nan
        return out

    def div(t, pts):
        return np.where(np.isfinite(pts).all(axis=1), 0.0, np.nan)

    return VectorField(
        dimension,
        "constant",
        math.hypot(*v),  # no overflow below the float range
        ev,
        witness=constant_witness(0.0),
        modulus=ModulusOfContinuity("linear"),
        div_evaluator=div,
    )


def _trunc_profile(s: np.ndarray, r_flat: float, width: float):
    """C1 cutoff: 1 on [0, r_flat], cubic fade to 0 over [r_flat, r_flat+w]."""
    u = np.clip((s - r_flat) / width, 0.0, 1.0)
    theta = 1.0 - u * u * (3.0 - 2.0 * u)
    dtheta = -6.0 * u * (1.0 - u) / width
    return theta, dtheta


def _make_linear(dimension, slope=-1.0):
    A = np.eye(dimension) * float(slope)
    op_norm = float(np.linalg.norm(A, 2))
    tr = float(np.trace(A))

    # a row with a non-finite coordinate is evaluated at 0 and reads NaN
    def ev(t, pts):
        pts, bad = _finite_or_zero(pts)
        s = row_norms(pts)
        theta, _ = _trunc_profile(s, LINEAR_TRUNC_RADIUS, LINEAR_BLEND_WIDTH)
        out = (pts @ A.T) * theta[:, None]
        out[bad.any(axis=1)] = np.nan
        return out

    def div(t, pts):
        pts, bad = _finite_or_zero(pts)
        s = row_norms(pts)
        theta, dtheta = _trunc_profile(s, LINEAR_TRUNC_RADIUS, LINEAR_BLEND_WIDTH)
        ax = pts @ A.T
        radial = np.zeros_like(s)
        pos = dtheta != 0.0  # the blend shell, where s > 0 and x.Ax is finite
        radial[pos] = np.sum(ax[pos] * pts[pos], axis=1) / s[pos]
        out = tr * theta + dtheta * radial
        out[bad.any(axis=1)] = np.nan
        return out

    # sup of |A x| theta(|x|) and of the local Lipschitz constant, on a
    # dense radial mesh (the profile is radial so this is exact up to mesh)
    mesh = np.linspace(0.0, LINEAR_TRUNC_RADIUS + LINEAR_BLEND_WIDTH, 20001)
    theta, dtheta = _trunc_profile(mesh, LINEAR_TRUNC_RADIUS, LINEAR_BLEND_WIDTH)
    sup_bound = op_norm * float(np.max(mesh * theta))
    lipschitz = op_norm * float(np.max(np.abs(theta + mesh * dtheta)))
    return VectorField(
        dimension,
        "linear",
        sup_bound,
        ev,
        witness=constant_witness(0.5 * lipschitz),
        modulus=ModulusOfContinuity("linear"),
        div_evaluator=div,
    )


def _make_osgood_sum(dimension, terms=1000):
    series = SeriesEvaluator(terms)
    c2 = measure_osgood_constant(terms)

    def ev(t, pts):
        pts, bad = _finite_or_zero(pts)
        out = series_direct(pts, terms)
        out[bad] = np.nan
        return out

    def div(t, pts):
        pts, bad = _finite_or_zero(pts)
        vals = series_deriv_direct(np.abs(pts), terms) * np.sign(pts)
        vals[bad] = np.nan
        return vals.sum(axis=1)

    return VectorField(
        dimension,
        "osgood-sum",
        PI2_OVER_6,
        ev,
        terms=terms,
        witness=constant_witness(0.5 * dimension * c2 * WITNESS_HEADROOM),
        modulus=ModulusOfContinuity("log"),
        div_evaluator=div,
        series=series,
    )


def sobolev_profile(
    pts: np.ndarray, alpha: float = SOBOLEV_ALPHA, cap: float = SOBOLEV_CAP
):
    """min(r^-alpha, cap) and r = |x| per row; NaN where r is not finite.
    The ``sobolev-singular`` field's speed, and the lemma23 battery's
    ``singular_speed`` at the defaults."""
    r = row_norms(pts)
    with np.errstate(divide="ignore"):  # r = 0 gives inf, capped below
        out = np.power(r, -alpha)
    np.minimum(out, cap, out=out)
    out[np.isinf(r)] = np.nan  # a NaN r already gives NaN
    return out, r


def _sobolev_grad(pts: np.ndarray, alpha: float, r_cap: float) -> np.ndarray:
    """|grad profile| = alpha r^(-alpha-1) outside the cap plateau r <= r_cap;
    NaN where r is not finite."""
    r = row_norms(pts)
    out = np.zeros_like(r)
    outside = r > r_cap
    out[outside] = alpha * r[outside] ** (-alpha - 1.0)
    out[~np.isfinite(r)] = np.nan
    return out


def _make_sobolev(dimension, alpha=SOBOLEV_ALPHA, cap=SOBOLEV_CAP):
    if not 0.0 < alpha < dimension:
        raise FieldError(
            f"alpha must lie in (0, d) for local integrability, got {alpha}"
        )
    if cap <= 0.0:
        raise FieldError("cap must be positive")
    alpha = float(alpha)
    cap = float(cap)
    try:
        r_cap = cap ** (-1.0 / alpha)
    except OverflowError:  # past the float range: the plateau cap e1 everywhere
        r_cap = math.inf

    def ev(t, pts):
        prof, _ = sobolev_profile(pts, alpha, cap)
        out = np.zeros_like(pts)
        out[:, 0] = prof
        return out

    def div(t, pts):
        # d(profile)/dx_1 = f'(r) x_1 / r off the plateau; NaN where r is
        # not finite
        r = row_norms(pts)
        out = np.zeros(pts.shape[0])
        finite = np.isfinite(r)
        outside = finite & (r > r_cap)
        out[outside] = (
            -alpha
            * r[outside] ** (-alpha - 1.0)
            * pts[outside, 0]
            / r[outside]
        )
        out[~finite] = np.nan
        return out

    def grad_fn(t, pts):
        return _sobolev_grad(pts, alpha, r_cap)

    grid = make_grid(dimension, SOBOLEV_CAL_RADIUS, SOBOLEV_CAL_SPACING)
    _, witness = calibrate_witness_constant(
        ev,
        grid,
        grad_fn,
        SOBOLEV_CAL_PAIRS,
        seed=SOBOLEV_CAL_SEED,
        singular_points=((0.0,) * dimension,),
    )
    return VectorField(
        dimension,
        "sobolev-singular",
        cap,
        ev,
        witness=witness,
        modulus=ModulusOfContinuity("linear"),
        div_evaluator=div,
    )


def _summed(parts):
    """The evaluator and the divergence of the sum of the fields ``parts``."""

    def ev(t, pts):
        return sum(p.evaluator(t, pts) for p in parts)

    def div(t, pts):
        return sum(p.div_evaluator(t, pts) for p in parts)

    return ev, div


def _make_combined(dimension, alpha=SOBOLEV_ALPHA, cap=2.0, terms=1000):
    sob = _make_sobolev(dimension, alpha=alpha, cap=cap)
    osc = _make_osgood_sum(dimension, terms)
    c2 = measure_osgood_constant(terms)
    c2d = c2 * dimension * WITNESS_HEADROOM
    if c2d <= 1.0:
        raise FieldError("combined witness needs C2 * d > 1")
    g1 = sob.witness
    ev, div = _summed((sob, osc))

    def g(t, pts):
        return c2d * (1.0 + g1(t, pts))

    return VectorField(
        dimension,
        "combined",
        cap + PI2_OVER_6,
        ev,
        terms=terms,
        witness=g,
        modulus=osc.modulus,
        div_evaluator=div,
        parts=(sob, osc),
    )


# id -> constructor; the parameters after ``dimension`` are the config keys
# the field reads
CATALOG = {
    "constant": _make_constant,
    "linear": _make_linear,
    "osgood-sum": _make_osgood_sum,
    "sobolev-singular": _make_sobolev,
    "combined": _make_combined,
}


# ==========================================================================
# mollification
# ==========================================================================


class _PairedSeries:
    """sum_j W_j sum_{k<=terms} |sin k(x - a_j)| / k^2 in closed form, for
    nodes a_j and weights W_j symmetric about 0.

    A pair of nodes +-a carrying w each contributes, per k,

        w (|sin k(x - a)| + |sin k(x + a)|)
            = 2 w max(|sin kx| |cos ka|, |cos kx| |sin ka|),

    and the max takes its first argument exactly when the pair's key
    |sin ka| / (|sin ka| + |cos ka|) is at most the point's key A / (A + B),
    A = |sin kx|, B = |cos kx|.  So per k the pairs are sorted by key once,
    and a point's value is A * prefix[c] + B * suffix[c], with prefix sums of
    2 w |cos ka| / k^2, suffix sums of 2 w |sin ka| / k^2 and c the number of
    pairs at or below the point's key.  sin kx and cos kx are the parts of
    exp(ikx), taken as running products of exp(ix): the angle-addition
    recurrence.  The Chebyshev recurrence loses up to 4e-14 relative near
    x = 0, where 1 - cos x carries the rounding of cos x.  Each point is
    summed on its own, so its value does not depend on the other points.
    """

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, terms: int):
        half = (len(nodes) + 1) // 2
        a = ((nodes[::-1] - nodes) / 2.0)[:half]  # >= 0; the middle node 0
        w = (weights + weights[::-1])[:half]
        if len(nodes) % 2:
            w[-1] /= 2.0  # the middle node is its own mirror
        k = np.arange(1, terms + 1, dtype=np.float64)[:, None]
        sin_ka = np.abs(np.sin(k * a))
        cos_ka = np.abs(np.cos(k * a))
        key = sin_ka / (sin_ka + cos_ka)
        order = np.argsort(key, axis=1, kind="stable")
        self._keys, sin_ka, cos_ka = (
            np.take_along_axis(v, order, axis=1) for v in (key, sin_ka, cos_ka)
        )
        wk = w[order] / (k * k)
        zero = np.zeros((terms, 1))
        prefix = np.cumsum(wk * cos_ka, axis=1)
        suffix = np.cumsum((wk * sin_ka)[:, ::-1], axis=1)[:, ::-1]
        self._prefix = np.hstack([zero, prefix]).ravel()
        self._suffix = np.hstack([suffix, zero]).ravel()
        self._row_start = np.arange(terms)[:, None] * (half + 1)
        self.terms = terms

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Values at finite points ``x`` (1-D)."""
        e1 = np.empty(len(x), dtype=np.complex128)
        e1.real = np.cos(x)
        e1.imag = np.sin(x)
        ek = np.cumprod(np.broadcast_to(e1, (self.terms, len(x))), axis=0)
        a = np.abs(ek.imag)
        b = np.abs(ek.real)
        q = a / (a + b)
        j = np.empty(q.shape, dtype=np.int64)
        for r, keys in enumerate(self._keys):
            j[r] = np.searchsorted(keys, q[r], "right")
        j += self._row_start
        vals = a * self._prefix[j] + b * self._suffix[j]
        # one contiguous row per point, so that its sum is its own reduction
        return np.ascontiguousarray(vals.T).sum(axis=1)


def _mollified_series(series: SeriesEvaluator, nodes, weights, exact: bool):
    """Evaluator of V_K(x_i) per component i, convolved with axis nodes and
    weights.

    ``exact`` gives the closed form for every k <= K.  Otherwise the closed
    form covers k <= 16 and the tail table the rest, as a weighted sum of
    tail lerps at the folded shifted points.  Non-finite coordinates give
    NaN in their component.
    """
    low = _PairedSeries(nodes, weights, series.terms if exact else series.k0)
    with_tail = not exact and series.terms > series.k0
    size = max(1, _CHUNK // max(low.terms, len(nodes) if with_tail else 1))

    def piece(x):
        out = low(x)
        if with_tail:
            # x on [-pi/2, pi/2] first, exactly (fmod, then a Sterbenz-exact
            # shift), so that |x - a_j| < pi needs no second fmod
            x = np.fmod(x, math.pi)
            x -= math.pi * np.sign(x) * (np.abs(x) > math.pi / 2)
            ax = np.abs(x[:, None] - nodes)
            tails = series.tail(np.minimum(ax, math.pi - ax))
            out += (tails * weights).sum(axis=1)
        return out

    def ev(t, pts):
        pts, bad = _finite_or_zero(pts)
        out = np.empty_like(pts)
        for i in range(pts.shape[1]):
            out[:, i] = _chunked(piece, pts[:, i], size)
        out[bad] = np.nan
        return out

    return ev


def mollify(field: VectorField, kernel: MollifierKernel) -> VectorField:
    """Convolve the field, its divergence and its witness with the scaled
    bump kernel.

    The tensor-product midpoint quadrature weights are normalized to unit
    mass, so the mollified evaluator is a convex combination of field values;
    the sup bound is inherited and constants are reproduced exactly.  The
    quadrature runs over blocks of points, each point's value its own
    reduction over the nodes.  numpy's einsum can sum a one-point block
    along another path than a wider block and round differently, so no
    block holds one point alone (``numerics.row_blocks`` with
    ``min_rows=2``).

    ``osgood-sum``, whose components are one 1-D series each, convolves each
    component with the kernel's axis marginal in closed form over the
    symmetric node pairs (``_PairedSeries``): the same quadrature, equal to
    the convex combination up to rounding, at 49 nodes per component in
    every dimension.  A field with ``parts`` (``combined``) is convolved by
    linearity: its evaluator and divergence are the sums of those of its
    mollified parts.  Every other field, and every witness, takes the
    generic quadrature.

    The divergence is the central difference at ``FD_DIV_STEP`` of the
    convolved evaluator; for a series field, of the closed form over every
    k <= K, so that differencing never amplifies the tail table's error.
    """
    if field.mollification_level is not None:
        raise FieldError("field is already mollified")
    nodes, weights, mass = kernel.nodes_weights(field.dimension)
    if abs(mass - 1.0) > 1e-6:
        raise FieldError(
            f"kernel mass {mass} deviates from 1 by more than 1e-6; "
            "increase KERNEL_NODES"
        )
    w = weights / mass
    d = field.dimension
    m = len(w)

    def convolved(base_ev, width):
        """The node quadrature of ``base_ev``, ``width`` values per point."""

        def ev(t, pts):
            out = np.empty((len(pts), width))
            # in d = 1 a block's (rows * m, d) temporaries fit the element
            # budget; in d >= 2 a block holds 2 or 3 rows
            for blk in row_blocks(len(pts), m * d, min_rows=2):
                block = pts[blk]
                shifted = (block[:, None, :] - nodes[None, :, :]).reshape(-1, d)
                vals = np.asarray(base_ev(t, shifted), np.float64)
                vals = vals.reshape(len(block), m, width)
                out[blk] = np.einsum("nmd,m->nd", vals, w)
            return out

        return ev

    if field.parts:
        evaluator, div = _summed([mollify(p, kernel) for p in field.parts])
    elif field.series is not None:
        axis, marginal = kernel.axis_marginal(d)
        evaluator = _mollified_series(field.series, axis, marginal, False)
        div = _central_divergence(
            _mollified_series(field.series, axis, marginal, True), d
        )
    else:
        evaluator = convolved(field.evaluator, d)
        div = _central_divergence(evaluator, d)
    g = convolved(field.witness, 1)

    def witness(t, pts):
        return g(t, pts)[:, 0]

    return replace(
        field,
        evaluator=evaluator,
        witness=witness,
        div_evaluator=div,
        mollification_level=kernel.level,
        series=None,
        parts=(),
    )


def _central_divergence(ev, dimension: int):
    """sum_i of the central difference of ``ev``'s component i along axis
    i, at step ``FD_DIV_STEP``."""

    def div(t, pts):
        out = np.zeros(pts.shape[0])
        for axis in range(dimension):
            e = np.zeros(dimension)
            e[axis] = FD_DIV_STEP
            fwd = ev(t, pts + e)[:, axis]
            bwd = ev(t, pts - e)[:, axis]
            out += (fwd - bwd) / (2.0 * FD_DIV_STEP)
        return out

    return div


# ==========================================================================
# divergence data
# ==========================================================================


def divergence_negative_part(field: VectorField, grid: PointGrid) -> float:
    """Sup over the grid of max(0, -div b) at t = 0, from
    ``field.divergence``."""
    div = field.divergence(0.0, grid.points)
    return max(0.0, float(np.max(-div)))


def compressibility_constant(
    field: VectorField, grid: PointGrid, horizon: float
) -> float:
    """L = exp(horizon * grid sup of [div b]^- at t = 0), for a field that
    does not depend on t.

    A measured constant, not a bound: the grid sup can miss the field's
    true sup of [div b]^- (6.914 against H_K = 7.4855 on ``osgood-sum``,
    K = 1000; 119.4 against 6,463 on ``sobolev-singular``; ROADMAP item 2).
    The sup is measured once per field and grid and kept on the field.  An
    exponent past the float range gives inf, which the reports reject.
    """
    sup = measured_once(
        field,
        "div_sup",
        grid,
        lambda: divergence_negative_part(field, grid),
    )
    with np.errstate(over="ignore"):
        return float(np.exp(horizon * sup))


# ==========================================================================
# local maximal functions
# ==========================================================================


def dyadic_radii(radius_cap: float, spacing: float, depth: int = 6) -> np.ndarray:
    """{R 2^-j} down to the grid spacing, at most depth+1 values; the
    halving stops at the first radius below it, whatever the depth."""
    floor = spacing * (1.0 - MEMBERSHIP_SLACK)
    radii = []
    for j in range(depth + 1):
        r = radius_cap * 0.5**j
        if not r >= floor:
            break
        radii.append(r)
    if not radii:
        raise FieldError("no admissible radius >= grid spacing")
    return np.asarray(radii, dtype=np.float64)


def maximal_function(
    grid: PointGrid,
    samples: np.ndarray,
    radius_cap: float,
    radii=None,
) -> np.ndarray:
    """Restricted local maximal function M_R of |samples| on the grid.

    The sup over radii runs over ``radii`` (default ``dyadic_radii``) plus
    the degenerate single-point ball, which realizes the r -> 0 limit, so
    M f >= |f| pointwise.  Balls that leave the sampled domain are averaged
    over in-domain points only.

    Every dimension takes one path.  |samples| and a point count of 1 are
    embedded in the ``(2m + 1)^d`` box of the grid, with prefix sums along
    the last axis.  The lattice ball B(r) (``grid.ball_offsets(r)`` plus the
    center) splits into rows along the last axis, one per leading offset j,
    each of half-width w_j.  A row's sum at every box cell is one prefix
    difference ``cs[..., hi + 1] - cs[..., lo]`` over the clipped window
    [i - w_j, i + w_j], shifted by -j along the leading axes with zero fill,
    and added to the ball's sums and counts.  Cells off the grid hold 0 in
    both, so each ball averages over its in-domain points.  Cost per radius
    is O(box * rows) time and O(box) memory; in d = 1 there is one row.
    """
    samples = np.abs(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] != grid.n_points:
        raise GridError("samples length does not match grid")
    if radii is None:
        radii = dyadic_radii(radius_cap, grid.spacing)
    else:
        radii = np.asarray(radii, dtype=np.float64)
        if len(radii) == 0:
            raise FieldError("radii set must be nonempty")
        if radii.min() < grid.spacing * (1.0 - MEMBERSHIP_SLACK):
            raise FieldError("min radius must be >= grid spacing")
        if radii.max() > radius_cap * (1.0 + MEMBERSHIP_SLACK):
            raise FieldError("max radius must be <= radius cap")
    values = samples.copy()  # degenerate single-point ball
    # slot 0 sums values, slot 1 counts points
    box = np.stack([grid.embed(samples), grid.embed(np.ones(grid.n_points))])
    cs = np.concatenate([np.zeros(box.shape[:-1] + (1,)), box.cumsum(-1)], -1)
    width = box.shape[-1]
    pos = np.arange(width)
    every = (slice(None),)
    for r in radii:
        k = np.vstack([np.zeros((1, grid.dimension), np.int64), grid.ball_offsets(r)])
        leads, row = np.unique(k[:, :-1], axis=0, return_inverse=True)
        half = np.zeros(len(leads), np.int64)
        np.maximum.at(half, row, np.abs(k[:, -1]))
        total = np.zeros_like(box)
        for lead, w in zip(leads, half):
            if np.abs(lead).max(initial=0) >= width:
                continue  # the whole row lies outside the box
            lo = np.maximum(pos - w, 0)
            hi = np.minimum(pos + w, width - 1)
            rows = cs[..., hi + 1] - cs[..., lo]
            dst = tuple(slice(max(-j, 0), width - max(j, 0)) for j in lead)
            src = tuple(slice(max(j, 0), width - max(-j, 0)) for j in lead)
            total[every + dst] += rows[every + src]
        sums, counts = total[every + grid.box_index()]
        values = np.maximum(values, sums / counts)
    return values


# ==========================================================================
# witness calibration
# ==========================================================================


def calibrate_witness_constant(
    b, grid: PointGrid, grad_fn, n_pairs: int, seed=0, singular_points=()
):
    """Empirical constant for the maximal-function continuity bound.

    Measures  max |b(x)-b(y)| / (|x-y| (M|grad b|(x) + M|grad b|(y)))  over
    sampled grid-point pairs, with b any field callable ``b(t, pts)`` and
    |grad b| the function ``grad_fn(t, pts)``, both read at t = 0 on the
    grid, excluding pairs within ``SINGULAR_EXCLUSION * h`` of the points
    ``singular_points``.  The sample mixes uniform pairs with short-range
    pairs (offsets of a few grid cells); the ratio sup lives on
    near-diagonal pairs, so the mixture keeps the sampled max stable across
    seeds.  Pairs with zero difference contribute a zero ratio; pairs with
    positive difference but zero denominator are skipped.  Returns the raw
    constant c_hat and the calibrated witness
    g = c_hat * WITNESS_HEADROOM * M|grad b|  (the headroom covers the
    sampling density).
    """
    if n_pairs < 1000:
        raise CalibrationError("need at least 1e3 pairs")
    grad_samples = np.abs(np.asarray(grad_fn(0.0, grid.points), np.float64))
    m_grad = maximal_function(grid, grad_samples, 2.0 * grid.radius)
    rng = np.random.default_rng(seed)
    half = n_pairs // 2
    ia_u = rng.integers(0, grid.n_points, half)
    ib_u = rng.integers(0, grid.n_points, half)
    ia_s, ib_s = _near_pairs(grid, n_pairs - half, rng)
    ia = np.concatenate([ia_u, ia_s])
    ib = np.concatenate([ib_u, ib_s])
    keep = ia != ib
    zone = SINGULAR_EXCLUSION * grid.spacing
    for s in singular_points:
        for i in (ia, ib):
            keep &= row_norms(grid.points[i] - np.asarray(s, np.float64)) > zone
    ia, ib = ia[keep], ib[keep]
    xa, xb = grid.points[ia], grid.points[ib]
    num = row_norms(b(0.0, xa) - b(0.0, xb))
    dist = row_norms(xa - xb)
    den = dist * (m_grad[ia] + m_grad[ib])
    ratios = np.zeros_like(num)
    positive = num > 0.0
    usable = positive & (den > 0.0)
    ratios[usable] = num[usable] / den[usable]
    skipped = positive & (den <= 0.0)
    if skipped.all() or len(num) == 0:
        raise CalibrationError("all sampled pairs were skipped")
    c_hat = float(ratios.max()) if len(ratios) else 0.0
    scale = c_hat * WITNESS_HEADROOM
    return c_hat, _maximal_witness(grid, m_grad, scale, grad_fn)


def _near_pairs(grid: PointGrid, n: int, rng):
    """Up to n row pairs (a, b), b = a + k with k a lexicographically positive
    lattice offset, |k| <= 8 h; b is clipped to [-m, m]^d and dropped if off
    the grid.  In d = 1 this is the clipped row offset ``a + 1..8``."""
    offsets = grid.ball_offsets(8 * grid.spacing)
    offsets = offsets[len(offsets) // 2 :]  # -k sorts before k
    ia = rng.integers(0, grid.n_points, n)
    m = grid.half_width
    k = offsets[rng.integers(0, len(offsets), n)]
    target = np.clip(grid.indices[ia] + k, -m, m)
    ib = grid.embed(np.arange(grid.n_points), fill=-1)[grid.box_index(target)]
    on_grid = ib >= 0
    return ia[on_grid], ib[on_grid]


def _maximal_witness(grid: PointGrid, m_grad: np.ndarray, scale, grad_fn):
    """Witness g = scale * M|grad b|, nearest-grid inside the sampled ball.

    Outside the sampled ball the witness falls back to ``scale * |grad b|``
    from the analytic gradient ``grad_fn`` (an underestimate of the maximal
    function, hence conservative in right sides).
    """
    m = grid.half_width
    box = grid.embed(m_grad)

    def ev(t, pts):
        pts = np.asarray(pts, dtype=np.float64)
        inside = grid.ball_mask(grid.radius, pts)
        out = np.zeros(pts.shape[0])
        ii = np.rint(pts[inside] / grid.spacing).astype(np.int64)
        out[inside] = box[grid.box_index(np.clip(ii, -m, m))]
        far = ~inside
        if far.any():
            out[far] = np.abs(grad_fn(t, pts[far]))
        return scale * out

    return ev
