"""The closed-form mollification of ``osgood-sum`` against the generic one.

``mollify`` convolves each ``osgood-sum`` component with the kernel's axis
marginal in closed form over symmetric node pairs: with the tail table for
the evaluator the flows integrate, and over every k <= K for the divergence.
The oracle is the same field with its series profile removed, which
``mollify`` then convolves by the generic 49-node (tensor in d >= 2)
quadrature, of ``series_direct`` (the base evaluator) and of a test-local
table-backed evaluator: exact k <= 16 plus the tail lerp at folded points.

The generic quadrature evaluates V_K at the rounded shifted point x - a_j,
which is off by up to half an ulp of |x| + 1; |V_K'| <= H_K = sum 1/k, so
its own error reaches ulp(|x| + 1) H_K, about 3.7e-14 at |x| = 60 and
K = 100.  The comparisons allow that on top of 1e-13 relative;
``test_closer_to_truth_than_generic`` shows the excess is the oracle's.
"""

import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlflab.fields import (
    MollifierKernel,
    _mollified_series,
    catalog_field,
    mollify,
    series_direct,
)

LEVELS = (1, 3, 4, 32, 64)
TERMS = (1, 2, 16, 17, 100)


def table_backed(series):
    """V_K as the closed form reads it: exact k <= 16, tail lerp beyond."""

    def ev(t, pts):
        ax = np.fmod(np.abs(pts), math.pi)
        ax = np.minimum(ax, math.pi - ax)
        out = series_direct(ax, series.k0)
        if series.terms > series.k0:
            out += series.tail(ax)
        return out

    return ev


@functools.cache
def pair(level, terms, dimension=1):
    """The closed forms, with the table (the field's evaluator) and over
    every k, and the generic quadratures of the table-backed evaluator and of
    ``series_direct``, of osgood-sum at one level: (closed, exact, generic,
    generic_exact)."""
    field = catalog_field("osgood-sum", dimension, terms=terms)
    kernel = MollifierKernel(level)
    exact = _mollified_series(
        field.series, *kernel.axis_marginal(dimension), True
    )
    bare = replace(field, series=None)
    hybrid = replace(bare, evaluator=table_backed(field.series))
    return (
        mollify(field, kernel),
        exact,
        mollify(hybrid, kernel),
        mollify(bare, kernel),
    )


def allowance(x, ref, terms):
    harmonic = sum(1.0 / k for k in range(1, terms + 1))
    return 1e-13 * np.abs(ref) + np.spacing(np.abs(x) + 1.0) * harmonic


def points(level):
    """|x| <= 60, with node offsets a_j and k pi / q, also shifted by a_j."""
    nodes = MollifierKernel(level).axis_marginal(1)[0]
    rational = st.builds(
        lambda k, q: k * math.pi / q, st.integers(-19, 19), st.integers(1, 6)
    )
    return st.one_of(
        st.floats(-60.0, 60.0),
        st.sampled_from(list(nodes)),
        st.builds(lambda r, a: r + a, rational, st.sampled_from(list(nodes))),
        rational,
    )


@st.composite
def cases(draw):
    level = draw(st.sampled_from(LEVELS))
    terms = draw(st.sampled_from(TERMS))
    xs = draw(st.lists(points(level), min_size=1, max_size=24))
    return level, terms, np.array(xs)[:, None]


@settings(max_examples=120, deadline=None)
@given(cases())
def test_matches_generic_quadrature(case):
    level, terms, x = case
    closed, exact, generic, generic_exact = pair(level, terms)
    for got, ref in (
        (exact(0.0, x), generic_exact(0.0, x)),
        (closed(0.0, x), generic(0.0, x)),
    ):
        assert np.all(np.abs(got - ref) <= allowance(x, ref, terms))


@pytest.mark.parametrize("level", [1, 4, 32])
@pytest.mark.parametrize("terms", [16, 100])
def test_marginal_matches_tensor_quadrature_2d(level, terms):
    # 49 axis nodes with marginal weights per component, against the
    # 1,885 tensor nodes of the disc
    closed, exact, generic, generic_exact = pair(level, terms, 2)
    x = np.random.default_rng(level).uniform(-3.0, 3.0, (200, 2))
    for got, ref in (
        (exact(0.0, x), generic_exact(0.0, x)),
        (closed(0.0, x), generic(0.0, x)),
    ):
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_closer_to_truth_than_generic():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    _, exact, _, generic_exact = pair(64, 100)
    nodes, weights = MollifierKernel(64).axis_marginal(1)

    def truth(x):
        total = mpmath.mpf(0)
        for a, w in zip(nodes, weights):
            y = mpmath.mpf(float(x)) - mpmath.mpf(float(a))
            v = sum(abs(mpmath.sin(k * y)) / k**2 for k in range(1, 101))
            total += mpmath.mpf(float(w)) * v
        return total

    x = np.array([[56.54808957611051], [7.128614737419436e-4], [0.5]])
    got = exact(0.0, x)[:, 0]
    ref = generic_exact(0.0, x)[:, 0]
    exact = [truth(v) for v in x[:, 0]]
    rel = [abs(float((g - t) / t)) for g, t in zip(got, exact)]
    assert max(rel) <= 5e-15
    # the generic quadrature's shifted argument is rounded at |x| = 56.5
    assert abs(float((ref[0] - exact[0]) / exact[0])) > 1e-13


@pytest.mark.parametrize("dimension", [1, 2])
def test_non_finite_gives_nan_without_warning(dimension):
    closed, exact, _, _ = pair(4, 100, dimension)
    x = np.full((5, dimension), 0.3)
    x[1, 0], x[2, 0], x[3, 0] = np.nan, np.inf, -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ev in (closed, exact):
            out = ev(0.0, x)
            assert np.all(np.isnan(out[1:4, 0]))
            assert np.array_equal(out[0], out[4])
            assert np.all(np.isfinite(np.delete(out, [1, 2, 3], axis=0)))
            if dimension == 2:
                assert np.all(out[:, 1] == out[0, 1])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(LEVELS),
    st.lists(st.floats(-60.0, 60.0), min_size=2, max_size=40),
    st.data(),
)
def test_rows_are_independent(level, xs, data):
    closed, exact, _, _ = pair(level, 100)
    x = np.array(xs)[:, None]
    i = data.draw(st.integers(0, len(xs) - 1))
    j = data.draw(st.integers(i + 1, len(xs)))
    for ev in (closed, exact):
        assert np.array_equal(ev(0.0, x[i:j]), ev(0.0, x)[i:j])
