"""Row-block streaming: values equal to the unblocked expressions at every
block edge, and peak memory bounded by one block instead of the whole
(rows x mesh times) array.

Peaks are tracemalloc peaks above the allocations alive when tracing
starts; the inputs are built before it starts.
"""

import tracemalloc

import numpy as np
import pytest

from rlflab.estimates import (
    TranslationConstants,
    _live_radii,
    _neighbor_rows,
    _offset_sums,
    _q_sweep,
    _separation,
    regularity_set,
    translation_functional,
)
from rlflab.fields import (
    OSGOOD_PAIRS,
    OSGOOD_SEED,
    OSGOOD_SPAN,
    SERIES_DIRECT_TERMS,
    SERIES_TAIL_STEP,
    _CHUNK,
    MollifierKernel,
    VectorField,
    _series_chunk,
    _tail_table,
    catalog_field,
    measure_osgood_constant,
    mollify,
    series_direct,
)
from rlflab.flow import (
    TrajectoryEnsemble,
    integrate_ensemble,
    sup_distance,
    sup_distance_rows,
)
from rlflab.modulus import ModulusOfContinuity, PsiFunctional
from rlflab.numerics import BLOCK_ELEMENTS, MEMBERSHIP_SLACK, make_grid, row_blocks

MiB = 2**20


def traced_peak(fn):
    """fn() and the tracemalloc peak it adds to what is already allocated."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - base


def unblocked_sup(pa, pb):
    diff = pa - pb
    return np.sqrt(np.sum(diff * diff, axis=2)).max(axis=1)


def synthetic_ensemble(dimension, radius, spacing, n_times, seed=0, nan=True):
    """Random motion around the grid points, with one NaN trajectory unless
    ``nan`` is false."""
    grid = make_grid(dimension, radius, spacing)
    rng = np.random.default_rng(seed)
    times = np.arange(n_times) * 1e-3
    positions = grid.points[:, None, :] + rng.normal(
        0.0, 0.1, (grid.n_points, n_times, dimension)
    )
    positions[:, 0, :] = grid.points
    if nan:
        positions[grid.n_points // 3, n_times // 2 :, :] = np.nan
    flags = ~np.isfinite(positions).all(axis=(1, 2))
    # a stand-in driving field: the estimates read its modulus and id only
    field = VectorField(
        dimension, "synthetic", 1.0, None, None, ModulusOfContinuity("log"), None
    )
    return TrajectoryEnsemble(grid, times, positions, flags, field, 1e-3)


class TestRowBlocks:
    @pytest.mark.parametrize("row_size", [1, 1000, 1024, 10**6])
    def test_blocks_cover_rows_in_order(self, row_size):
        rows = max(1, BLOCK_ELEMENTS // row_size)
        for n_rows in (0, 1, 7, 8, 9, 100, BLOCK_ELEMENTS + 1):
            blocks = row_blocks(n_rows, row_size)
            assert [b.start for b in blocks] == list(range(0, n_rows, rows))
            assert [b.stop for b in blocks] == [
                min(b.start + rows, n_rows) for b in blocks
            ]

    def test_min_rows(self):
        assert row_blocks(200, 10**6, min_rows=64)[0] == slice(0, 64)
        assert len(row_blocks(200, 1, min_rows=64)) == 1

    @pytest.mark.parametrize("min_rows", [2, 3, 64])
    def test_one_row_remainder_joins_the_block_before(self, min_rows):
        n_rows = 4 * min_rows + 1
        blocks = row_blocks(n_rows, 10**6, min_rows=min_rows)
        assert blocks[-1] == slice(3 * min_rows, n_rows)
        assert [b.stop for b in blocks[:-1]] == [b.start for b in blocks[1:]]
        assert row_blocks(1, 10**6, min_rows=min_rows) == [slice(0, 1)]
        # min_rows = 1 keeps a one-row block
        assert row_blocks(5, 10**6)[-1] == slice(4, 5)

    def test_mollified_value_does_not_depend_on_the_cut(self):
        # one row of the d = 3 kernel holds about 61,600 nodes, and einsum
        # sums a one-row call along another path: row 64 of a 65-row call
        # must not be a block of its own
        field = mollify(catalog_field("osgood-sum", 3, terms=100), MollifierKernel(4))
        pts = make_grid(3, 1.0, 0.25).points[:65]
        full = field.witness(0.0, pts)
        assert full[64] == field.witness(0.0, pts[63:65])[1]


# translation_functional cases by dimension: grid radius, spacing, region
# radius R and offset radius r; every shifted center stays on the grid
TRANSLATION_CASES = {1: (1.5, 0.01, 1.0, 0.25), 2: (0.6, 0.05, 0.4, 0.15)}
TRANSLATION_CONSTS = TranslationConstants(2.0, 3.0, 1.5, 0.5)


class TestBlockEdges:
    """Rows that straddle a block edge equal the unblocked expression."""

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_sup_distance(self, dimension):
        # 10 mesh times: 819 rows per block in d = 1, 409 in d = 2, so both
        # grids hold several block edges
        radius, spacing = (1.0, 0.001) if dimension == 1 else (0.5, 0.02)
        a = synthetic_ensemble(dimension, radius, spacing, 10)
        b = synthetic_ensemble(dimension, radius, spacing, 10, seed=1)
        assert a.grid.n_points > 2 * BLOCK_ELEMENTS // (10 * dimension)
        got = sup_distance(a, b)
        want = unblocked_sup(a.positions, b.positions)
        assert np.isnan(got).sum() == 1
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_pair_rows(self, dimension, offset):
        # the thm41 pair check: rows gathered by index pairs, at 0, 1 and
        # a block's row count -1, +0 and +1 pairs
        ens = synthetic_ensemble(dimension, 0.3, 0.02, 41)
        per_block = BLOCK_ELEMENTS // (41 * dimension)
        rng = np.random.default_rng(5)
        if offset is None:
            counts = [0, 1]
        else:
            counts = [per_block + offset, 2 * per_block + offset]
        nan_row = int(np.flatnonzero(ens.flags)[0])
        for n_pairs in counts:
            ia = rng.integers(0, ens.grid.n_points, n_pairs)
            ib = rng.integers(0, ens.grid.n_points, n_pairs)
            if n_pairs > 1:  # a NaN row at the first block's end
                ia[min(per_block, n_pairs) - 1] = nan_row
            pos = ens.positions
            got = sup_distance_rows(pos, pos, ia, ib)
            want = unblocked_sup(pos[ia], pos[ib])
            assert got.shape == (n_pairs,)
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_displacement_bound(self, dimension):
        # _live_radii's D, against the per-coordinate sum it replaced
        spacing = 0.01 if dimension == 1 else 0.03
        ens = synthetic_ensemble(dimension, 0.3, spacing, 51, nan=False)
        sq = np.zeros((ens.grid.n_points, ens.n_times))
        for j in range(dimension):
            sq += np.square(ens.positions[..., j] - ens.grid.points[:, j, None])
        reach = 2.0 * np.sqrt(sq.max())
        moved = sup_distance_rows(ens.positions, ens.grid.points[:, None, :])
        assert 2.0 * moved.max() == reach
        radii = np.array([0.01, 0.02, 0.04, 0.08])
        bound = (radii * (1.0 + MEMBERSHIP_SLACK) + reach) / radii
        for threshold in [1.0, *bound, *np.nextafter(bound, 0.0)]:
            want = radii[~(bound * (1.0 + 1e-9) <= threshold)]
            assert np.array_equal(_live_radii(ens, radii, threshold), want)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("n_times", [2, 3, 41, 42, 81, 83, 1001])
    def test_offset_sums(self, dimension, n_times):
        # thm44's per-time sums: 201 centers (d = 1) give 40-column blocks,
        # 197 (d = 2) 41-column ones, so 41, 81 and 1001 mesh times in
        # d = 1, and 42 and 83 in d = 2, leave a 1-column remainder, which
        # joins the block before it
        radius, spacing, region, r = TRANSLATION_CASES[dimension]
        ens = synthetic_ensemble(dimension, radius, spacing, n_times, nan=False)
        rows = np.flatnonzero(ens.grid.ball_mask(region))
        here = ens.positions[rows]
        want = np.zeros(n_times)
        for nbr in _neighbor_rows(ens.grid, rows, r):
            want += _separation(ens.positions[nbr], here).sum(axis=0)
        assert np.array_equal(_offset_sums(ens, rows, r), want)

    @pytest.mark.parametrize(
        "n", [0, 1, BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS, BLOCK_ELEMENTS + 1]
    )
    def test_psi_values(self, n):
        fam = PsiFunctional(ModulusOfContinuity("log"), 0.01)
        xs = np.random.default_rng(n).uniform(0.0, 2.0, n)
        fam.psi_values(np.array([2.0]))  # one table serves every call
        got = fam.psi_values(xs)
        for i in (0, BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS, n - 1):
            if 0 <= i < n:
                assert got[i] == fam.psi_values(xs[i : i + 1])[0]
        two_d = fam.psi_values(xs.reshape(1, n))
        assert two_d.shape == (1, n) and np.array_equal(two_d[0], got)

    def test_tail_table_pieces(self, tmp_path, monkeypatch):
        # abscissas generated per piece are those of one arange over all
        monkeypatch.setenv("RLFLAB_CACHE", str(tmp_path))
        k = SERIES_DIRECT_TERMS + 1
        table = _tail_table.__wrapped__(k)
        xs = np.arange(len(table), dtype=np.float64) * SERIES_TAIL_STEP
        last = (len(table) - 1) // _CHUNK * _CHUNK
        for lo in (0, _CHUNK, last):
            hi = min(lo + _CHUNK, len(table))
            want = _series_chunk(xs[lo:hi], k, k)
            assert np.array_equal(table[lo:hi], want)

    def test_osgood_constant_same_draws(self):
        rng = np.random.default_rng(OSGOOD_SEED)
        t = rng.uniform(-OSGOOD_SPAN, OSGOOD_SPAN, OSGOOD_PAIRS)
        s = rng.uniform(-OSGOOD_SPAN, OSGOOD_SPAN, OSGOOD_PAIRS)
        keep = t != s
        t, s = t[keep], s[keep]
        gap = np.abs(series_direct(t, 40) - series_direct(s, 40))
        want = (gap / ModulusOfContinuity("log")(np.abs(t - s))).max()
        assert measure_osgood_constant.__wrapped__(40) == want


class TestPeakMemory:
    """Each streamed site holds one block, not a (rows x mesh times) array;
    each bound lies below the peak of the unblocked code, given per test."""

    def test_regularity_pair_check(self):
        # 1,000 pairs x 2,001 mesh times: each full pair array is 15 MiB,
        # and the unblocked check peaked at 43 MiB
        f = catalog_field("linear", 1, slope=-1.0)
        ens = integrate_ensemble(f, make_grid(1, 1.5, 0.05), 2.0, 1e-3)
        assert ens.n_times == 2001
        regularity_set(ens, f, 0.5, 0.1, n_pair_samples=10)  # per-field norms
        (e_rows, rep), peak = traced_peak(
            lambda: regularity_set(ens, f, 0.5, 0.1, n_pair_samples=1000)
        )
        # n_pairs counts the pairs of distinct rows among the 1,000 drawn
        rng = np.random.default_rng(20260809)
        ia, ib = rng.choice(e_rows, 1000), rng.choice(e_rows, 1000)
        assert len(e_rows) >= 2 and rep.constants["n_pairs"] == (ia != ib).sum()
        assert peak < 2 * MiB

    def test_q_sweep(self):
        # 201 centers x 2,001 mesh times: 3.1 MiB per (centers x times)
        # array.  Blocked, the sweep holds the psi table (about 4 MiB to
        # build) and one block, 6.0 MiB; over all centers at once it
        # peaked at 21 MiB
        ens = synthetic_ensemble(1, 1.1, 0.01, 2001, nan=False)
        (rows, q_sup), peak = traced_peak(
            lambda: _q_sweep(ens, ModulusOfContinuity("log"), [0.05], 1.0)
        )
        assert len(rows) == 201 and np.all(q_sup > 0.0)
        assert peak < 8 * MiB

    def test_sup_distance(self):
        # 201 points x 2,001 times x 2 coordinates: 6.1 MiB per full array,
        # 15 MiB peak unblocked
        a = synthetic_ensemble(2, 0.08, 0.01, 2001)
        b = synthetic_ensemble(2, 0.08, 0.01, 2001, 1)
        _, peak = traced_peak(lambda: sup_distance(a, b))
        assert a.positions.nbytes > 6 * MiB
        assert peak < 0.5 * MiB

    def test_translation_functional(self):
        # 201 centers x 2,001 mesh times, 50 offsets: 3.1 MiB per (centers
        # x times) array, 12.3 MiB peak over all mesh times at once
        radius, spacing, region, r = TRANSLATION_CASES[1]
        ens = synthetic_ensemble(1, radius, spacing, 2001, nan=False)
        translation_functional(ens, r, region, TRANSLATION_CONSTS)
        _, peak = traced_peak(
            lambda: translation_functional(ens, r, region, TRANSLATION_CONSTS)
        )
        assert peak < 1 * MiB

    def test_live_radii(self):
        # 9.0 MiB peak unblocked
        ens = synthetic_ensemble(2, 0.08, 0.01, 2001)
        _, peak = traced_peak(lambda: _live_radii(ens, np.array([0.02]), 1.0))
        assert peak < 0.5 * MiB

    def test_psi_values(self):
        # a 1e6-point lookup allocates its result and one block; the
        # unblocked lookup held ten temporaries of the input's length and
        # peaked at 70 MiB
        fam = PsiFunctional(ModulusOfContinuity("log"), 0.01)
        xs = np.linspace(0.0, 3.0, 1_000_000)
        fam.psi_values(xs)
        _, peak = traced_peak(lambda: fam.psi_values(xs))
        assert peak < xs.nbytes + 1 * MiB

    @pytest.mark.parametrize("kind", ["linear", "log", "loglog"])
    def test_psi_table_build(self, kind):
        # below four arrays of the mesh length (rho's own temporaries
        # included); the unblocked build held seven
        fam = PsiFunctional(ModulusOfContinuity(kind), 0.01)
        _, peak = traced_peak(lambda: fam._build_table(3.0))
        assert peak < 4 * 8 * len(fam._table["cum"])

    @pytest.mark.parametrize("kind", ["linear", "log", "loglog"])
    def test_psi_table_rebuild(self, kind):
        # a query past the table rebuilds it after freeing the old one; the
        # old table alive next to the build took the peak to 5.1 arrays
        fam = PsiFunctional(ModulusOfContinuity(kind), 0.01)

        def first_and_rebuild():
            fam.psi_values(np.array([3.0]))
            fam.psi_values(np.array([3.5]))

        _, peak = traced_peak(first_and_rebuild)
        assert fam._table["mesh_max"] >= 6.0  # rebuilt at twice the length
        assert peak < 4 * 8 * len(fam._table["cum"])

    def test_tail_table_build(self, tmp_path, monkeypatch):
        # the table (12 MiB) and one piece; the unblocked build also held
        # every abscissa, another 12 MiB, and peaked at 25 MiB
        monkeypatch.setenv("RLFLAB_CACHE", str(tmp_path))
        table, peak = traced_peak(
            lambda: _tail_table.__wrapped__(SERIES_DIRECT_TERMS + 1)
        )
        assert peak < table.nbytes + 2 * MiB

    def test_osgood_constant(self):
        # 100,000 pairs (0.76 MiB per array): the draws, the ratios and one
        # piece; the unblocked measurement peaked at 6.4 MiB
        _, peak = traced_peak(lambda: measure_osgood_constant.__wrapped__(40))
        assert peak < 5 * MiB
