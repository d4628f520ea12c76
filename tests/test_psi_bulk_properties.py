"""Property tests for the bulk path ``PsiFunctional.psi_values``.

psi_delta(xi) = integral_0^xi ds / (rho(s) + delta) is nondecreasing,
bounded by xi / delta and concave (rho is increasing, so the integrand
decreases).  The bulk table interpolates a cumulative trapezoid with
per-cell slopes that decrease too, so each property holds up to rounding.

delta is drawn log-uniformly from [2e-3, 10].  The sweeps call the bulk
path with delta = r >= h; the fixed fine step 2e-6 of the table holds the
bulk-versus-adaptive tolerance down to about delta = 1e-3 and not below.

The last property is the round trip of the adaptive path through
``psi_inverse``, whose bound follows from its ``tol`` and ``quad_tol``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from rlflab.modulus import ModulusOfContinuity, PsiFunctional

KINDS = st.sampled_from(["linear", "log", "loglog"])
DELTAS = st.floats(np.log10(2e-3), 1.0).map(lambda e: 10.0**e)
XI = st.floats(0.0, 10.0, allow_nan=False)
# a rounding budget for second differences: 64 ulp of the largest value
CONCAVITY_ULPS = 64 * np.finfo(np.float64).eps

FAST = settings(max_examples=30, deadline=None)


def bulk(kind, delta, xs):
    fam = PsiFunctional(ModulusOfContinuity(kind), delta)
    return fam, fam.psi_values(np.asarray(xs, dtype=np.float64))


@FAST
@given(KINDS, DELTAS, st.lists(XI, min_size=2, max_size=64))
def test_nondecreasing_on_sorted_inputs(kind, delta, xs):
    _, vals = bulk(kind, delta, sorted(xs))
    assert np.all(np.diff(vals) >= 0.0)


@FAST
@given(KINDS, DELTAS, st.lists(XI, min_size=1, max_size=64))
def test_bounded_by_xi_over_delta(kind, delta, xs):
    xs = np.asarray(xs)
    _, vals = bulk(kind, delta, xs)
    assert np.all(vals <= xs / delta * (1.0 + 1e-12))


@FAST
@given(
    KINDS,
    DELTAS,
    st.floats(0.0, 5.0),
    st.floats(-6.0, -0.3).map(lambda e: 10.0**e),
)
def test_concave_on_uniform_sample(kind, delta, start, step):
    _, vals = bulk(kind, delta, start + step * np.arange(33))
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    assert np.all(second <= CONCAVITY_ULPS * max(1.0, vals.max()))


@settings(max_examples=15, deadline=None)
@given(KINDS, DELTAS, st.lists(XI, min_size=1, max_size=6))
def test_bulk_matches_adaptive(kind, delta, xs):
    fam, vals = bulk(kind, delta, xs)
    ref = np.array([fam.psi(x) for x in xs])
    np.testing.assert_allclose(vals, ref, atol=2e-5, rtol=2e-6)


@settings(max_examples=20, deadline=None)
@given(KINDS, st.floats(-4.0, 1.0).map(lambda e: 10.0**e), XI)
def test_inverse_round_trip(kind, delta, xi):
    # invert_monotone stops within tol of the target t = psi(xi).  psi is
    # within quad_tol of psi_delta, whose inverse has slope rho + delta, at
    # most rho(max(x, xi)) + delta between the two points.
    fam = PsiFunctional(ModulusOfContinuity(kind), delta)
    tol = 1e-10
    t = fam.psi(xi)
    x = fam.psi_inverse(t, tol=tol)
    assert abs(fam.psi(x) - t) <= tol
    slope = fam.modulus.scalar(max(x, xi)) + delta
    assert abs(x - xi) <= slope * (tol + 2.0 * fam.quad_tol)
