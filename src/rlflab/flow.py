"""Ensemble integration of dX/dt = b_t(X) and the sup distance of two flows.

Trajectories start from every point of a lattice ball grid and are advanced
with classical fixed-step RK4.  A fixed uniform time mesh keeps ensembles
directly comparable: sup distances, the ball-average functionals and the
translation functionals all consume the stored ``(point, time, coordinate)``
position array.  A coarser mesh is a slice of it, ``positions[:, ::k]``.
The push-forward bound L of a flow is not measured here: every report takes
it from the field's divergence, ``fields.compressibility_constant``.

Integration is data-parallel across initial points: contiguous blocks of
them run on the CPUs of the affinity mask, one process each.  A trajectory
that ever produces a non-finite field value keeps NaN positions from that
step on and is flagged, while the rest of the ensemble completes.  Each
trajectory depends on its own initial point only, so an ensemble does not
depend on how its rows are cut, and the rows of an ensemble started on a
ball ``B(r)`` inside the grid's ball equal a direct integration from
``make_grid(d, r, h)`` bit for bit: ``TrajectoryEnsemble.restrict`` serves
them.  The experiment pipeline integrates each mollified level once, on the
largest ball any chosen suite reads, and restricts it for the smaller ones.

The limit flow of a rough field is represented downstream by its
highest-level mollified ensemble together with the Cauchy-tail diagnostics;
no separate object exists for it.  A discrete mesh cannot certify absolute
continuity in time, so the integral-equation residual check in the test
suite stands in for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import VectorField
from .numerics import PointGrid, row_blocks, split_rows

__all__ = [
    "FlowError",
    "TrajectoryEnsemble",
    "integrate_ensemble",
    "sup_distance",
    "sup_distance_rows",
]

GROWTH_SLACK_STEPS = 10.0  # growth bound slack, in units of tau


class FlowError(Exception):
    """Invalid ensemble construction or combination."""


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Flow maps sampled on a grid of initial conditions over a time mesh.

    ``positions`` has shape (n_points, n_times, d); positions at the first
    mesh time equal the grid points exactly.  ``flags`` marks trajectories
    aborted by non-finite field evaluations.
    """

    grid: PointGrid
    times: np.ndarray
    positions: np.ndarray
    flags: np.ndarray
    field_id: str
    mollification_level: int | None
    sup_bound: float
    tau: float

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_times(self) -> int:
        return int(len(self.times))

    def growth_radius(self) -> float:
        """R + T ||b|| + 10 tau, the bound every trajectory must respect."""
        return (
            self.grid.radius
            + self.horizon * self.sup_bound
            + GROWTH_SLACK_STEPS * self.tau
        )

    def same_mesh(self, other: "TrajectoryEnsemble") -> bool:
        return (
            self.grid == other.grid
            and self.times.shape == other.times.shape
            and np.allclose(self.times, other.times, rtol=0.0, atol=1e-12)
        )

    def restrict(self, radius: float) -> "TrajectoryEnsemble":
        """Trajectories started in ``B(radius)``, in ``make_grid`` order.

        When the rows form one contiguous run, as every centered ball does
        in d = 1, the positions and flags are views of this ensemble's;
        otherwise they are copies.
        """
        if radius > self.grid.radius:
            raise FlowError(
                f"radius {radius} exceeds the ensemble's grid radius "
                f"{self.grid.radius}"
            )
        if radius == self.grid.radius:
            return self
        grid, rows = self.grid.restrict(radius)
        run = np.flatnonzero(rows)
        if len(run) and run[-1] - run[0] + 1 == len(run):
            rows = slice(run[0], run[-1] + 1)
        return replace(
            self, grid=grid, positions=self.positions[rows], flags=self.flags[rows]
        )

    def time_index(self, t: float) -> int:
        idx = int(round(t / self.tau))
        if idx < 0 or idx >= self.n_times or abs(idx * self.tau - t) > 1e-9:
            raise FlowError(f"time {t} is not on the mesh")
        return idx


def integrate_ensemble(
    field: VectorField,
    grid: PointGrid,
    horizon: float,
    tau: float,
) -> TrajectoryEnsemble:
    """Classical RK4 over every grid point, storing all mesh positions.

    ``numerics.split_rows`` allocates ``positions`` and cuts the
    trajectories into contiguous row blocks, one per CPU of the affinity
    mask, each integrated by the same code; a trajectory depends on its own
    initial point only, so the result does not depend on the CPU count
    (``taskset -c 0`` runs it in one process).  A time mesh or positions
    array that cannot be allocated, or that is past what numpy can index,
    raises a FlowError naming the positions' shape and size; so does a
    MemoryError while the trajectories are integrated.
    """
    if field.dimension != grid.dimension:
        raise FlowError("field and grid dimensions differ")
    if tau <= 0.0 or horizon <= 0.0:
        raise FlowError("horizon and step must be positive")
    steps = horizon / tau
    if not math.isfinite(steps):
        raise FlowError(
            f"horizon/step = {horizon}/{tau} is past the float range"
        )
    n_steps = int(round(steps))
    if abs(n_steps * tau - horizon) > 1e-9 * max(1.0, horizon):
        raise FlowError(f"horizon/step = {horizon}/{tau} is not an integer")
    ev = field.evaluator
    half = 0.5 * tau
    sixth = tau / 6.0

    def fill(positions, lo, hi):
        x = grid.points[lo:hi].copy()
        positions[lo:hi, 0, :] = x
        for step in range(n_steps):
            t = times[step]
            k1 = ev(t, x)
            k2 = ev(t + half, x + half * k1)
            k3 = ev(t + half, x + half * k2)
            k4 = ev(t + tau, x + tau * k3)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            positions[lo:hi, step + 1, :] = x

    shape = (grid.n_points, n_steps + 1, grid.dimension)
    size = 8.0 * math.prod(map(float, shape))  # bytes, past any int range
    try:
        if size > np.iinfo(np.intp).max:  # numpy's ValueError past this
            raise MemoryError
        times = np.arange(n_steps + 1, dtype=np.float64) * tau
        positions = split_rows(fill, shape)
    except MemoryError:
        dims = ", ".join(f"{s:.15g}" for s in map(float, shape))
        gib = size / 2**30
        amount = f"{gib:.1f}" if gib < 1e6 else f"{gib:.1e}"
        raise FlowError(
            f"cannot allocate ({dims}) positions: {amount} GiB"
        ) from None
    flags = ~np.isfinite(positions).all(axis=(1, 2))
    return TrajectoryEnsemble(
        grid,
        times,
        positions,
        flags,
        field.catalog_id,
        field.mollification_level,
        field.sup_bound,
        float(tau),
    )


def sup_distance(a: TrajectoryEnsemble, b: TrajectoryEnsemble) -> np.ndarray:
    """Per initial point, max over mesh times of |X_t(x) - X~_t(x)|.

    Streamed by ``sup_distance_rows``: beyond the result, its temporaries
    hold one row block of about ``numerics.BLOCK_ELEMENTS`` elements each.
    """
    if not a.same_mesh(b):
        raise FlowError("ensembles must share the initial grid and time mesh")
    return sup_distance_rows(a.positions, b.positions)


def sup_distance_rows(pa: np.ndarray, pb: np.ndarray, ia=None, ib=None):
    """Per row i, max over mesh times t of |pa[ia[i], t] - pb[ib[i], t]|.

    ``pa`` holds (row, time, coordinate) positions; ``pb`` the same, or one
    time that broadcasts against every time of ``pa``.  ``ia`` and ``ib``
    are row indices, every row in order when omitted.  Rows go through
    ``numerics.row_blocks``, so the temporaries hold one block of about
    ``numerics.BLOCK_ELEMENTS`` elements each.  A block keeps the largest
    squared distance per row and the root is taken once per row: sqrt is
    monotone and correctly rounded, so this is the largest distance bit for
    bit.  A row with a NaN position gives NaN.
    """
    n = len(pa) if ia is None else len(ia)
    out = np.empty(n)
    for blk in row_blocks(n, pa.shape[1] * pa.shape[2]):
        xa = pa[blk] if ia is None else pa[ia[blk]]
        xb = pb[blk] if ib is None else pb[ib[blk]]
        diff = xa - xb
        out[blk] = np.sum(np.square(diff, out=diff), axis=2).max(axis=1)
    return np.sqrt(out, out=out)
