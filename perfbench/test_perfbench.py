"""Fast checks of the benchmark itself on a tiny config.

    python3 -m pytest -q perfbench

The repository's own test run collects ``tests/`` only, so these stay out
of it.  ``terms = 64`` keeps the cold tail-table build to about a second.
"""

from __future__ import annotations

import json
import shutil

import pytest

import run as bench
import tracer as tracing

TINY = {
    "config": {"h": 0.05, "tau": 0.01, "levels": "4,8,16", "terms": 64},
    "warm": True,
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs sharing one tail cache: the first starts empty."""
    state = tmp_path_factory.mktemp("state")
    inv = bench.Invocation("tiny", TINY, bench.REFERENCE_SEED, state=state)
    runs = [inv.run("trace"), inv.run("trace")]
    yield inv, runs
    inv.close()


def reference_of(out, exit_code):
    reports = bench.read_reports(out)
    for rep in reports.values():
        rep["seed_dependent"] = False
    return {
        "seed": bench.REFERENCE_SEED,
        "rel_tol": 1e-9,
        "exit_code": exit_code,
        "reports": reports,
    }


def test_missing_cache_file_registers_cold(traced):
    _, ((first, _), (second, _)) = traced
    assert first["record"]["counts"]["fields.series_table.cold"] == 1
    assert first["cache_write_mb"] > 0.0
    assert second["record"]["counts"].get("fields.series_table.cold", 0) == 0
    assert second["cache_write_mb"] == 0.0


def test_tampered_report_counts_as_failed(traced, tmp_path):
    _, ((first, out), _) = traced
    reference = reference_of(out, first["exit_code"])
    seed = bench.REFERENCE_SEED
    assert bench.check_reports(out, first["exit_code"], reference, seed)[1] == 0

    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    files = sorted((copy / "reports").glob("*.json"))
    doc = json.loads(files[0].read_text())
    doc["lhs"] *= 1.0 + 1e-6
    files[0].write_text(json.dumps(doc))
    expected, failed, problems = bench.check_reports(
        copy, first["exit_code"], reference, seed
    )
    assert (expected, failed) == (len(files), 1)
    assert files[0].name in problems[0]

    files[1].unlink()
    assert bench.check_reports(copy, first["exit_code"], reference, seed)[1] == 2
    # a wrong exit code fails every report
    assert bench.check_reports(out, 7, reference, seed)[1] == len(files)


def test_span_self_times_nonnegative(traced):
    _, runs = traced
    for sample, _ in runs:
        rec = sample["record"]
        spans = rec["spans"]
        assert spans
        assert tracing.nesting_violations(spans) == 0
        assert min(tracing.self_times(spans)) >= 0.0
        metrics = tracing.summarize(
            spans,
            rec["counts"],
            rec["setup_at"],
            sample["spawned_at"],
            sample["exited_at"],
        )
        assert metrics["trace.unattributed_s"] >= 0.0
        assert all(metrics[f"{layer}.self_s"] >= 0.0 for layer in tracing.LAYERS)
