"""Shared numerical kernels.

Lattice grids covering centered balls, ``row_norms`` (the one |x| every
module takes), ball averages and Lebesgue-measure helpers, adaptive 1-D
quadrature, ``row_blocks``, which cuts a row-wise reduction into blocks of
a fixed element budget, and ``split_rows``, which allocates an array and
fills its rows across the CPUs of the affinity mask.  Everything else in
this module is a pure function of its inputs and deterministic, so all
operations are safe to call concurrently.

Conventions
-----------
* Grids are the integer lattice ``i * h`` restricted to the closed Euclidean
  ball of radius ``R``;  point ordering is lexicographic in the integer
  multi-index, which makes it reproducible across runs.
* Ball membership tests carry a relative slack of 1e-12 so that lattice
  points that lie exactly on the sphere are kept regardless of rounding.
* Integrals over a grid are plain Riemann sums ``sum(values) * h**d``; the
  error is controlled by ``h`` and is reported by the callers that assemble
  inequality verdicts.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "NumericsError",
    "GridError",
    "EmptyBallError",
    "QuadratureBudgetError",
    "InversionError",
    "PointGrid",
    "QuadratureResult",
    "make_grid",
    "row_norms",
    "ball_average",
    "ball_measure",
    "grid_integral",
    "integrate_1d",
    "row_blocks",
    "split_rows",
]

# closed-ball membership slack, relative
MEMBERSHIP_SLACK = 1e-12

# volume of the unit ball per dimension (desk scale stops at d = 3)
BALL_VOLUME_COEFF = {1: 2.0, 2: float(np.pi), 3: 4.0 * float(np.pi) / 3.0}


class NumericsError(Exception):
    """Base class for failures of the numerical kernels."""


class GridError(NumericsError):
    """Invalid grid construction parameters."""


class EmptyBallError(NumericsError):
    """A ball average was requested over a ball containing no grid point."""


class QuadratureBudgetError(NumericsError):
    """Adaptive quadrature did not converge within its node budget."""


class InversionError(NumericsError):
    """Bisection failed to reach the requested tolerance."""


@dataclass(frozen=True)
class PointGrid:
    """Lattice points ``i * h`` inside the closed ball ``B(radius)``.

    ``indices`` has shape (n, d) with integer entries, ordered
    lexicographically; ``points`` is ``indices * spacing``, shape (n, d) in
    every dimension, d = 1 included.  Instances are immutable after
    construction.  They own the lattice-ball geometry: centered ball masks,
    nonzero offsets in a ball, the ``indices + m`` box and the sub-grid of a
    smaller ball.
    """

    dimension: int
    spacing: float
    radius: float
    indices: np.ndarray
    points: np.ndarray

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @cached_property
    def half_width(self) -> int:
        """m = max |index|: the box ``[-m, m]^d`` holds every grid index."""
        return int(np.max(np.abs(self.indices)))

    def ball_mask(self, radius: float, points=None) -> np.ndarray:
        """Mask of ``points`` (default: the grid's own) in centered B(radius)."""
        pts = self.points if points is None else points
        return row_norms(pts) <= radius * (1.0 + MEMBERSHIP_SLACK)

    def ball_offsets(self, radius: float) -> np.ndarray:
        """Nonzero lattice offsets k, ``|k h| <= radius``, lexicographic."""
        k = _lattice_ball(self.dimension, radius, self.spacing)
        return k[np.any(k != 0, axis=1)]

    def restrict(self, radius: float) -> tuple:
        """Sub-grid of ``B(radius)`` and its row mask into this grid.

        The sub-grid equals ``make_grid(dimension, radius, spacing)``: rows
        pass the membership test ``make_grid`` uses and keep their order.
        """
        _check_radius(radius, self.spacing)
        if radius > self.radius:
            raise GridError(f"radius {radius} exceeds the grid radius {self.radius}")
        rows = _in_ball(self.indices, radius, self.spacing)
        sub = PointGrid(
            self.dimension,
            self.spacing,
            float(radius),
            self.indices[rows],
            self.points[rows],
        )
        return sub, rows

    def box_index(self, indices=None) -> tuple:
        """Cells ``indices + m`` of the box array (default: the grid's own)."""
        idx = self.indices if indices is None else indices
        return tuple((idx + self.half_width).T)

    def embed(self, values, fill=0.0) -> np.ndarray:
        """Per-point ``values`` at ``indices + m`` in a ``(2m + 1)^d`` box."""
        values = np.asarray(values)
        shape = (2 * self.half_width + 1,) * self.dimension + values.shape[1:]
        box = np.full(shape, fill, dtype=values.dtype)
        box[self.box_index()] = values
        return box

    def __eq__(self, other) -> bool:  # structural equality for mesh checks
        if not isinstance(other, PointGrid):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.spacing == other.spacing
            and self.radius == other.radius
            and np.array_equal(self.indices, other.indices)
        )


@dataclass(frozen=True)
class QuadratureResult:
    """Adaptive quadrature outcome: value and node count."""

    value: float
    nodes: int


def make_grid(dimension: int, radius: float, spacing: float) -> PointGrid:
    """Build the lattice grid covering the centered ball ``B(radius)``.

    Rejects ``spacing >= radius`` (a degenerate grid that cannot resolve the
    ball) and dimensions outside 1..3.
    """
    if dimension not in (1, 2, 3):
        raise GridError(f"dimension must be 1, 2 or 3, got {dimension}")
    _check_radius(radius, spacing)
    indices = _lattice_ball(dimension, radius, spacing)
    points = indices.astype(np.float64) * spacing
    return PointGrid(dimension, float(spacing), float(radius), indices, points)


def row_norms(pts: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``pts`` (n, d), ``sqrt(sum(pts * pts))``;
    finite rows whose sum of squares overflows (past about 1.3e154) take
    ``np.hypot``, which scales.  A non-finite row reads inf or NaN."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(pts * pts, axis=1))
    big = np.isinf(norms)
    if big.any():
        big &= np.isfinite(pts).all(axis=1)
        norms[big] = np.hypot.reduce(pts[big], axis=1)
    return norms


def _check_radius(radius: float, spacing: float) -> None:
    if not (math.isfinite(radius) and math.isfinite(spacing)):
        raise GridError(
            f"radius and spacing must be finite, got {radius} and {spacing}"
        )
    if radius <= 0.0 or spacing <= 0.0:
        raise GridError("radius and spacing must be positive")
    if spacing >= radius:
        raise GridError(
            f"spacing {spacing} must be smaller than radius {radius}"
        )


def _lattice_ball(dimension: int, radius: float, spacing: float) -> np.ndarray:
    """Integer vectors i with ``|i * spacing| <= radius``, lexicographic,
    cut from the cube ``[-m, m]^d``; a cube that cannot be allocated, or
    whose side is past what numpy can index, raises a GridError naming its
    shape and size."""
    half = np.floor(radius / spacing * (1.0 + MEMBERSHIP_SLACK))
    try:
        m = int(half)
        axis = np.arange(-m, m + 1, dtype=np.int64)
        mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
        indices = np.stack(mesh, axis=-1).reshape(-1, dimension)
        return indices[_in_ball(indices, radius, spacing)]
    except (MemoryError, OverflowError, ValueError):
        side = 2.0 * half + 1.0
        shape = ", ".join([f"{side:.15g}"] * dimension + [str(dimension)])
        with np.errstate(over="ignore"):
            gib = 8.0 * dimension * side**dimension / 2**30
        size = f"{gib:.1f}" if gib < 1e6 else f"{gib:.1e}"
        raise GridError(
            f"cannot allocate the ({shape}) lattice cube of B({radius:g}) at "
            f"spacing {spacing:g}: {size} GiB"
        ) from None


def _in_ball(indices: np.ndarray, radius: float, spacing: float) -> np.ndarray:
    """Row mask of the integer vectors with ``|i * spacing| <= radius``."""
    sq = np.sum((indices.astype(np.float64) * spacing) ** 2, axis=1)
    return sq <= radius * radius * (1.0 + MEMBERSHIP_SLACK)


def ball_measure(dimension: int, radius: float) -> float:
    """Lebesgue measure of a ball of the given radius."""
    if dimension not in BALL_VOLUME_COEFF:
        raise GridError(f"dimension must be 1, 2 or 3, got {dimension}")
    if radius < 0.0:
        raise GridError("radius must be nonnegative")
    return BALL_VOLUME_COEFF[dimension] * radius**dimension


def ball_average(
    grid: PointGrid, samples: np.ndarray, center, radius: float
) -> float:
    """Average of sampled values over grid points in ``B(center, radius)``.

    This is the discrete counterpart of the dashed-integral average; the
    error is first order in the grid spacing for Lipschitz integrands.
    """
    if radius <= 0.0:
        raise GridError("ball radius must be positive")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[0] != grid.n_points:
        raise GridError("samples length does not match grid")
    c = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if c.shape != (grid.dimension,):
        raise GridError(
            f"center must have {grid.dimension} coordinates, got {c.shape}"
        )
    mask = grid.ball_mask(radius, grid.points - c)
    if not mask.any():
        raise EmptyBallError(
            f"no grid point inside ball of radius {radius} at {center}"
        )
    return float(samples[mask].mean())


def grid_integral(grid: PointGrid, samples: np.ndarray) -> float:
    """Riemann sum of sampled values over the grid, ``sum * h**d``."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[0] != grid.n_points:
        raise GridError("samples length does not match grid")
    return float(samples.sum() * grid.cell_volume)


def integrate_1d(
    f,
    a: float,
    b: float,
    tol: float,
    max_nodes: int = 1_000_000,
) -> QuadratureResult:
    """Adaptive Simpson quadrature of ``f`` on [a, b].

    Interval bisection with the classical |S2 - S1|/15 error estimate and a
    hard node budget (default 1e6 evaluations).  Exact for polynomials of
    degree <= 3.  Raises :class:`QuadratureBudgetError` when the budget is
    exhausted before every subinterval meets its share of ``tol``.
    """
    if not tol > 0.0:
        raise NumericsError("tol must be positive")
    if a > b:
        raise NumericsError("integration bounds must satisfy a <= b")
    if a == b:
        return QuadratureResult(0.0, 1)

    fa = float(f(a))
    fb = float(f(b))
    m = 0.5 * (a + b)
    fm = float(f(m))
    if not (np.isfinite(fa) and np.isfinite(fb) and np.isfinite(fm)):
        raise NumericsError("integrand is not finite on [a, b]")
    nodes = 3
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # stack entries: (a, m, b, fa, fm, fb, simpson(a, b), local tol)
    stack = [(a, m, b, fa, fm, fb, whole, tol)]
    total = 0.0
    min_width = abs(b - a) * 1e-15
    while stack:
        xa, xm, xb, ya, ym, yb, s_coarse, loc_tol = stack.pop()
        lm = 0.5 * (xa + xm)
        rm = 0.5 * (xm + xb)
        yl = float(f(lm))
        yr = float(f(rm))
        nodes += 2
        if nodes > max_nodes:
            raise QuadratureBudgetError(
                f"node budget {max_nodes} exceeded before reaching tol {tol}"
            )
        s_left = (xm - xa) / 6.0 * (ya + 4.0 * yl + ym)
        s_right = (xb - xm) / 6.0 * (ym + 4.0 * yr + yb)
        s_fine = s_left + s_right
        diff = s_fine - s_coarse
        if abs(diff) <= 15.0 * loc_tol or (xb - xa) <= min_width:
            total += s_fine + diff / 15.0
        else:
            half = 0.5 * loc_tol
            stack.append((xa, lm, xm, ya, yl, ym, s_left, half))
            stack.append((xm, rm, xb, ym, yr, yb, s_right, half))
    return QuadratureResult(total, nodes)


# --------------------------------------------------------------------------
# row blocks
# --------------------------------------------------------------------------

# float64 elements per row block (64 KiB): a block's temporaries stay below
# glibc's default 128 KiB mmap threshold, so they are reused from the heap
# instead of faulting in fresh pages for every block
BLOCK_ELEMENTS = 1 << 13


def row_blocks(n_rows: int, row_size: int, min_rows: int = 1) -> list:
    """Slices cutting ``range(n_rows)`` into consecutive blocks of
    ``max(min_rows, BLOCK_ELEMENTS // row_size)`` rows; the last may be
    shorter.  With ``min_rows >= 2`` no block holds one row alone: a
    one-row remainder joins the block before it.

    A reduction that treats each row on its own gives the same values over
    the blocks as over all rows at once, while its temporaries hold one
    block: about ``BLOCK_ELEMENTS`` elements each, or ``min_rows`` rows (one
    more in the last block) when one row is larger than the budget.  numpy
    may reduce a one-row array along another path than a wider one and
    round differently; with ``min_rows >= 2`` no row is reduced alone.
    """
    step = max(min_rows, BLOCK_ELEMENTS // row_size)
    blocks = [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]
    if min_rows >= 2 and len(blocks) > 1 and n_rows - blocks[-1].start == 1:
        blocks[-2:] = [slice(blocks[-2].start, n_rows)]
    return blocks


# --------------------------------------------------------------------------
# row-parallel filling
# --------------------------------------------------------------------------

# fewest rows worth a worker process.  Forking a 55 MB interpreter, copying
# its rows back and reaping it takes 2.8 ms (2 vCPUs, numpy 2.4.6): the time
# of about 6 psi quadratures (0.46 ms each) or 6 RK4 trajectories of 50
# steps on mollified osgood-sum (0.5 ms each), but of about 50 trajectories
# of 100 steps on the mollified constant field (55 us each), the cheapest
# rows split_rows is given
MIN_BLOCK_ROWS = 64

# set while split_rows runs in this process, and for good in a worker, so
# that a nested call fills its rows in-process
_splitting = False


def split_rows(fill, shape, align: int = 1) -> np.ndarray:
    """A float64 array of ``shape`` whose rows ``fill(out, lo, hi)`` writes,
    ``out[lo:hi]`` at a time, one contiguous block per CPU of the affinity
    mask.

    Block edges fall on multiples of ``align``.  The result is allocated
    here with ``np.empty`` and belongs to the caller alone.  The first block
    is filled into it in this process; each other block is filled by a
    forked worker into an anonymous shared mapping that lives only for this
    call, and copied into the result once the worker is reaped.  ``fill``
    must compute each row from its own inputs only, so that the result does
    not depend on how the rows are cut.

    The CPU count is that of ``os.sched_getaffinity``, so ``taskset``
    limits it; ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
    ``MKL_NUM_THREADS`` size BLAS thread pools only.  All rows are filled
    in-process when ``os.fork`` or the affinity mask is unavailable, when
    another thread is running (forking it is unsafe), when the mapping
    cannot be created, inside another ``split_rows`` (a worker never forks)
    or when a block would hold fewer than ``MIN_BLOCK_ROWS`` rows.  A block
    whose worker cannot be forked or exits nonzero is filled here instead,
    so any exception ``fill`` raises surfaces from this process, in row
    order.  Workers leave through ``os._exit`` and are always reaped, also
    when this process's own block raises.
    """
    global _splitting
    out = np.empty(shape)
    edges = _block_edges(len(out), align)
    if len(edges) < 3 or _splitting:
        fill(out, 0, len(out))
        return out
    try:
        scratch = mmap.mmap(-1, out.nbytes)
    except OSError:
        fill(out, 0, len(out))
        return out
    shared = np.frombuffer(scratch).reshape(out.shape)
    _splitting = True
    workers = []  # [pid or None, lo, hi]
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            workers.append([_fork_block(fill, shared, lo, hi), lo, hi])
        fill(out, edges[0], edges[1])
        for w in workers:
            pid, lo, hi = w
            if pid is not None:
                status = os.waitpid(pid, 0)[1]
                w[0] = None
                if status == 0:
                    out[lo:hi] = shared[lo:hi]
                    continue
            fill(out, lo, hi)
    finally:
        _splitting = False
        for pid, _, _ in workers:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        del shared  # the mapping's one view: it closes only without views
        scratch.close()
    return out


def _block_edges(n: int, align: int) -> list:
    """Edges of one block per CPU, on multiples of ``align``; one block when
    splitting is unavailable or a block would be too small to pay."""
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return [0, n]
    units = -(-n // align)
    k = min(len(os.sched_getaffinity(0)), units, n // MIN_BLOCK_ROWS)
    if k < 2:
        return [0, n]
    return [min(n, units * i // k * align) for i in range(k + 1)]


def _fork_block(fill, shared: np.ndarray, lo: int, hi: int):
    """Pid of a worker filling ``shared[lo:hi]``; None when it cannot be
    started."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        # a worker never returns into the caller's stack: it would run the
        # caller's cleanup (atexit handlers, test teardown) a second time
        code = 1
        try:
            fill(shared, lo, hi)
            code = 0
        finally:
            os._exit(code)
    return pid
