"""Moduli of continuity and the separation functional built from them.

A modulus ``rho`` is a strictly increasing continuous function with
``rho(0) = 0``.  The catalog holds three kinds, ``NAMED_KINDS``:

* ``linear``      rho(s) = s
* ``log``         rho(s) = s log(1/s) on [0, e^-2], s + e^-2 beyond
* ``loglog``      rho(s) = s log(1/s) loglog(1/s) on [0, e^-e], with a C1
                  linear continuation beyond e^-e

The ``log`` and ``loglog`` formulas only make sense on a small interval, so
each is extended linearly past its end (``LOG_BREAK``, ``LOGLOG_BREAK``);
the ``log`` extension is continuously differentiable there (left slope
log(1/c0) - 1 = 1 equals the right slope 1 at c0 = e^-2), and the
``loglog`` extension continues with the left slope e - 2.

The functional

    psi_delta(xi) = integral_0^xi ds / (rho(s) + delta)

is strictly increasing and concave in xi, diverges pointwise as delta -> 0
exactly when rho is an Osgood modulus (integral ds/rho divergent at 0+), and
satisfies psi_delta(xi) <= xi / delta.  For rho(s) = s it has the closed form
log(xi/delta + 1) with inverse delta (e^t - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import InversionError, integrate_1d, row_blocks

__all__ = [
    "ModulusError",
    "ModulusOfContinuity",
    "PsiFunctional",
]

# the kinds ``ModulusOfContinuity`` takes, the ones ``rlf-lab psi`` can name
NAMED_KINDS = ("linear", "log", "loglog")

LOG_BREAK = math.exp(-2.0)  # e^-2
LOGLOG_BREAK = math.exp(-math.e)  # e^-e
_LOGLOG_VALUE = LOGLOG_BREAK * math.e  # rho value at LOGLOG_BREAK
_LOGLOG_SLOPE = math.e - 2.0  # left derivative there


class ModulusError(Exception):
    """Invalid modulus construction or evaluation."""


@dataclass(frozen=True)
class ModulusOfContinuity:
    """A modulus rho, one of ``NAMED_KINDS``."""

    kind: str

    def __post_init__(self):
        if self.kind not in NAMED_KINDS:
            raise ModulusError(f"unknown modulus kind {self.kind!r}")

    def __call__(self, s):
        """rho at a scalar or array of nonnegative arguments."""
        arr = np.asarray(s, dtype=np.float64)
        scalar = arr.ndim == 0
        x = np.atleast_1d(arr)
        if np.any(x < 0.0):
            raise ModulusError("rho is only defined for s >= 0")
        kind = self.kind
        if kind == "linear":
            out = x.copy()
        elif kind == "log":
            out = np.empty_like(x)
            low = x <= LOG_BREAK
            # guard the 0 * log(inf) corner: the limit is 0
            xs = np.where(x[low] > 0.0, x[low], 1.0)
            out[low] = np.where(x[low] > 0.0, xs * np.log(1.0 / xs), 0.0)
            out[~low] = x[~low] + LOG_BREAK
        else:  # loglog
            out = np.empty_like(x)
            low = x <= LOGLOG_BREAK
            xs = np.where(x[low] > 0.0, x[low], 0.5 * LOGLOG_BREAK)
            lg = np.log(1.0 / xs)
            out[low] = np.where(x[low] > 0.0, xs * lg * np.log(lg), 0.0)
            out[~low] = _LOGLOG_VALUE + _LOGLOG_SLOPE * (x[~low] - LOGLOG_BREAK)
        return float(out[0]) if scalar else out

    def scalar(self, s: float) -> float:
        """Fast scalar evaluation (hot path of the adaptive quadrature)."""
        if s < 0.0:
            raise ModulusError("rho is only defined for s >= 0")
        kind = self.kind
        if kind == "linear":
            return s
        if s == 0.0:
            return 0.0
        if kind == "log":
            if s <= LOG_BREAK:
                return s * math.log(1.0 / s)
            return s + LOG_BREAK
        if s <= LOGLOG_BREAK:
            lg = math.log(1.0 / s)
            return s * lg * math.log(lg)
        return _LOGLOG_VALUE + _LOGLOG_SLOPE * (s - LOGLOG_BREAK)


# --------------------------------------------------------------------------
# psi_delta functional
# --------------------------------------------------------------------------

# bulk-table layout: fine uniform mesh near 0 where the integrand curvature
# concentrates, coarse uniform mesh beyond
_FINE_END = 0.25
_FINE_STEP = 2e-6
_COARSE_STEP = 1e-4
# smallest delta whose bulk values meet atol 2e-5, rtol 2e-6 against psi
BULK_DELTA_FLOOR = 1e-3
# smallest decade delta whose adaptive values meet rtol 1e-8 for every kind
# at xi from 1e-3 to 100, against log(xi/delta + 1) (linear) and 30-digit
# mpmath quadrature (log, loglog); below it the bisection's width floor
# leaves the peak 1/delta of the integrand unresolved, and log at xi = 100
# already misses by 4e-8 at delta = 1e-11
PSI_DELTA_FLOOR = 1e-10
# largest decade xi/delta at which the adaptive values stay within 2e-9
# relative of the same oracles for every kind and delta = 1e-10, 1e-6, 1e-3
# and 0.25; past it the bisection's width floor xi 1e-15 no longer resolves
# the peak 1/delta near 0 (1.4e-7 at 1e13, 2.3e-3 at 1e15)
PSI_RATIO_CEILING = 1e12


@dataclass(frozen=True)
class PsiFunctional:
    """psi_delta(xi) = integral of 1/(rho + delta), evaluated adaptively.

    ``psi`` is the contract path (adaptive Simpson to ``quad_tol``);
    ``psi_values`` is a vectorized path backed by a cumulative-trapezoid
    table, used by the grid sweeps where millions of evaluations are needed.
    The two paths are cross-validated in the test suite.  Instances are
    immutable; the lazily built table is a value-idempotent cache.  Its mesh
    covers ``[0, need]`` by construction, so it is built once per instance
    and rebuilt, on a longer mesh with the same nodes, only when a query
    goes past it.
    """

    modulus: ModulusOfContinuity
    delta: float
    quad_tol: float = 1e-8

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ModulusError("delta must be positive")
        if not self.quad_tol > 0.0:
            raise ModulusError("quad_tol must be positive")
        object.__setattr__(self, "_table", None)

    def integrand(self, s: float) -> float:
        return 1.0 / (self.modulus.scalar(s) + self.delta)

    def psi(self, xi: float) -> float:
        """Adaptive evaluation of psi_delta at a single point.  Raises
        :class:`ModulusError` for delta below ``PSI_DELTA_FLOOR`` and for xi
        beyond ``PSI_RATIO_CEILING`` times delta."""
        if self.delta < PSI_DELTA_FLOOR:
            raise ModulusError(
                f"psi needs delta >= {PSI_DELTA_FLOOR}, got {self.delta}"
            )
        if xi < 0.0:
            raise ModulusError("psi is only defined for xi >= 0")
        if xi > PSI_RATIO_CEILING * self.delta:
            raise ModulusError(
                f"psi needs xi <= {PSI_RATIO_CEILING:g} delta, got xi = {xi} "
                f"at delta = {self.delta}"
            )
        if xi == 0.0:
            return 0.0
        res = integrate_1d(self.integrand, 0.0, xi, self.quad_tol)
        return res.value

    __call__ = psi

    def psi_inverse(self, t: float, tol: float = 1e-10) -> float:
        """Inverse of psi_delta: the bracket [0, hi] grows geometrically
        until psi(hi) >= t, then bisection of that bracket returns x with
        |psi(x) - t| <= tol.  Bisection, not Newton, stays robust where psi
        is steep or nearly flat.  Raises :class:`InversionError` when the
        bracket cannot reach t or the bisection stalls."""
        if t < 0.0:
            raise ModulusError("psi_inverse is only defined for t >= 0")
        if t == 0.0:
            return 0.0
        hi = max(self.delta, 1e-6)
        # the bracket stays where psi is defined (``PSI_RATIO_CEILING``)
        limit = min(1e15, PSI_RATIO_CEILING * self.delta)
        # a NaN t grows the bracket and raises
        while not (psi_hi := self.psi(hi)) >= t:
            if hi >= limit:
                raise InversionError(
                    "bracket-growth budget exceeded in psi_inverse"
                )
            hi = min(2.0 * hi, limit)
        if t <= tol:  # psi(0) = 0
            return 0.0
        if psi_hi - t <= tol:
            return hi
        lo = 0.0
        for _ in range(200):
            x = 0.5 * (lo + hi)
            fx = self.psi(x)
            if abs(fx - t) <= tol:
                return x
            if fx < t:
                lo = x
            else:
                hi = x
            if hi - lo <= abs(x) * 1e-16:
                break
        raise InversionError(
            f"bisection stalled at residual {abs(fx - t)} > tol {tol}"
        )

    # -- bulk path ---------------------------------------------------------

    def _build_table(self, need: float):
        """Cumulative trapezoid of 1/(rho + delta) over the fine mesh and a
        coarse mesh up to ``need``.

        Past rho's own evaluation, at most three float64 arrays of the mesh
        length are alive at once: each operation writes in place, and each
        array is dropped after its last use.  The table keeps ``cum`` and
        ``half``.
        """
        fine = np.arange(0.0, _FINE_END + _FINE_STEP, _FINE_STEP)
        n_fine, fine_end = len(fine), float(fine[-1])
        # arange with stop need + step can end a rounding error short of
        # need; one more step of headroom puts the last node past it.  The
        # nodes themselves do not depend on stop.
        coarse = np.arange(
            fine_end + _COARSE_STEP, need + 2.0 * _COARSE_STEP, _COARSE_STEP
        )
        mesh = np.concatenate([fine, coarse])
        del fine, coarse
        vals = self.modulus(mesh)
        vals += self.delta
        np.divide(1.0, vals, out=vals)
        half = vals[1:] + vals[:-1]  # pair sums, halved below
        del vals
        inc = np.diff(mesh)
        mesh_max = float(mesh[-1])
        del mesh
        inc *= 0.5
        inc *= half
        cum = np.empty(len(inc) + 1)
        cum[0] = 0.0
        np.cumsum(inc, out=cum[1:])
        table = {
            "mesh_max": mesh_max,
            "n_fine": n_fine,
            "fine_end": fine_end,
            "cum": cum,
            "half": np.multiply(half, 0.5, out=half),  # per cell
        }
        object.__setattr__(self, "_table", table)

    def psi_values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized psi_delta over an array of nonnegative arguments.

        The table covers ``[0, need]`` with ``need = max(xs) + step``; it is
        built on the first call and rebuilt, to at least twice its length,
        only when a later call needs more than the current mesh covers.
        The lookup then runs over ``numerics.row_blocks`` of ``xs``, so
        beyond the result its temporaries hold about
        ``numerics.BLOCK_ELEMENTS`` elements each.  Raises
        :class:`ModulusError` for delta below ``BULK_DELTA_FLOOR``.
        """
        if self.delta < BULK_DELTA_FLOOR:
            raise ModulusError(
                f"bulk psi needs delta >= {BULK_DELTA_FLOOR}, got {self.delta}"
            )
        xs = np.asarray(xs, dtype=np.float64)
        tab = self._table
        need = float(xs.max(initial=0.0)) + _COARSE_STEP
        if tab is None or tab["mesh_max"] < need:
            if tab is not None:
                need = max(need, 2.0 * tab["mesh_max"])
                # freed first, so it is not alive next to the new build
                tab = None
                object.__setattr__(self, "_table", None)
            self._build_table(need)
            tab = self._table
        cum, half = tab["cum"], tab["half"]
        n_fine, fine_end = tab["n_fine"], tab["fine_end"]
        flat = xs.ravel()
        out = np.empty(len(flat))
        for blk in row_blocks(len(flat), 1):
            x = flat[blk]
            # one index path: cell j of the fine mesh is cell j of the
            # table, cell j of the coarse mesh (origin fine_end) is cell
            # n_fine - 1 + j
            coarse = x > fine_end
            origin = coarse * fine_end
            step = np.where(coarse, _COARSE_STEP, _FINE_STEP)
            last = np.where(coarse, len(cum) - n_fine - 1, n_fine - 2)
            j = np.clip(((x - origin) / step).astype(np.int64), 0, last)
            s0 = origin + j * step
            cell = j + coarse * (n_fine - 1)
            out[blk] = cum[cell] + (x - s0) * half[cell]
        return out.reshape(xs.shape)
