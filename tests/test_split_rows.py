"""numerics.split_rows: rows filled across forked workers equal rows filled
in one process, and the workers never outlive or re-enter the caller.

CPU counts are faked by replacing ``os.sched_getaffinity``, so each case
forks the same number of workers on any host.
"""

import mmap
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from rlflab import fields, numerics
from rlflab.fields import MollifierKernel, catalog_field, mollify
from rlflab.flow import integrate_ensemble
from rlflab.numerics import make_grid, split_rows


def fake_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def small_blocks(monkeypatch):
    # a block of any size pays, so that short arrays split too
    monkeypatch.setattr(numerics, "MIN_BLOCK_ROWS", 1)


def fill_pids(out, lo, hi):
    out[lo:hi] = os.getpid()


class TestEnsembles:
    def across_cpus(self, monkeypatch, field, grid, horizon, tau):
        runs = []
        for count in (1, 2, 3):
            fake_cpus(monkeypatch, count)
            runs.append(integrate_ensemble(field, grid, horizon, tau))
        for ens in runs[1:]:
            np.testing.assert_array_equal(ens.positions, runs[0].positions)
            np.testing.assert_array_equal(ens.flags, runs[0].flags)

    def test_osgood_sum(self, monkeypatch, moll):
        grid = make_grid(1, 1.0, 0.01)
        assert grid.n_points >= 3 * numerics.MIN_BLOCK_ROWS
        self.across_cpus(monkeypatch, moll[8], grid, 0.05, 1e-3)

    def test_sobolev_singular(self, monkeypatch):
        field = mollify(catalog_field("sobolev-singular", 1), MollifierKernel(8))
        grid = make_grid(1, 1.0, 0.01)
        self.across_cpus(monkeypatch, field, grid, 0.05, 1e-3)

    def test_linear_two_d(self, monkeypatch, small_blocks):
        field = mollify(catalog_field("linear", 2, slope=-1.0), MollifierKernel(4))
        grid = make_grid(2, 0.35, 0.1)
        self.across_cpus(monkeypatch, field, grid, 0.05, 0.01)


def test_tail_table_split_equals_unsplit(monkeypatch, tmp_path):
    tables = []
    for count in (1, 2):
        fake_cpus(monkeypatch, count)
        monkeypatch.setenv("RLFLAB_CACHE", str(tmp_path / str(count)))
        tables.append(fields._tail_table.__wrapped__(100))
    np.testing.assert_array_equal(tables[0], tables[1])


class TestSplitRows:
    def test_one_block_per_cpu(self, monkeypatch, small_blocks):
        fake_cpus(monkeypatch, 3)
        out = split_rows(fill_pids, (30, 2, 2), align=4)
        pids = out[:, 0, 0]
        assert (out == pids[:, None, None]).all()  # whole rows per block
        edges = np.flatnonzero(np.diff(pids)) + 1
        assert list(edges) == [8, 20]  # on multiples of 4
        assert pids[0] == os.getpid() and len(set(pids)) == 3

    def test_worker_failure_is_refilled_here(self, monkeypatch, small_blocks):
        fake_cpus(monkeypatch, 3)
        parent = os.getpid()

        def fill(out, lo, hi):
            if os.getpid() != parent:
                raise RuntimeError("worker only")
            out[lo:hi] = np.arange(lo, hi)

        np.testing.assert_array_equal(split_rows(fill, 90), np.arange(90))

    def test_fork_failure_runs_in_process(self, monkeypatch, small_blocks):
        fake_cpus(monkeypatch, 3)

        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert set(split_rows(fill_pids, 90)) == {os.getpid()}

    def test_mapping_failure_runs_in_process(self, monkeypatch, small_blocks):
        fake_cpus(monkeypatch, 3)

        def no_mapping(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", no_mapping)
        assert set(split_rows(fill_pids, 90)) == {os.getpid()}

    def test_result_is_private(self, monkeypatch, small_blocks):
        # neither the caller's later forks nor the workers share its pages
        fake_cpus(monkeypatch, 3)
        out = split_rows(fill_pids, 90)
        want = out.copy()
        assert len(set(want)) == 3
        pid = os.fork()
        if pid == 0:
            try:
                out[:] = -1.0
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        np.testing.assert_array_equal(out, want)

    def test_parent_failure_propagates_and_reaps(self, monkeypatch, small_blocks):
        fake_cpus(monkeypatch, 3)
        parent = os.getpid()

        def fill(out, lo, hi):
            if os.getpid() == parent:
                raise RuntimeError("parent block")
            out[lo:hi] = 1.0

        with pytest.raises(RuntimeError, match="parent block"):
            split_rows(fill, 90)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_in_process_while_a_thread_runs(self, monkeypatch, small_blocks):
        fake_cpus(monkeypatch, 3)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            out = split_rows(fill_pids, 90)
        finally:
            stop.set()
            thread.join()
        assert set(out) == {os.getpid()}

    def test_small_arrays_stay_in_process(self, monkeypatch):
        fake_cpus(monkeypatch, 3)
        out = split_rows(fill_pids, 2 * numerics.MIN_BLOCK_ROWS - 1)
        assert set(out) == {os.getpid()}

    def test_workers_never_run_exit_handlers(self):
        script = (
            "import atexit, os\n"
            "from rlflab import numerics\n"
            "atexit.register(print, 'exit handler')\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "numerics.MIN_BLOCK_ROWS = 1\n"
            "def fill(out, lo, hi):\n"
            "    out[lo:hi] = os.getpid()\n"
            "out = numerics.split_rows(fill, 9)\n"
            "assert len(set(out)) == 3\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(numerics.__file__))]
            + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "exit handler\n"
