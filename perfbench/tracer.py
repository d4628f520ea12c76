"""In-memory spans and counters around the calls into each rlflab layer.

The wrappers are installed from benchmark code only: they replace the names
that ``rlflab.cli``, ``rlflab.estimates``, ``rlflab.fields`` and
``rlflab.modulus`` look up at call time, so no tracing lives in ``src/``.
A span is ``[name, start, end, parent]`` with ``time.monotonic()`` stamps
(one clock for every process on the machine) and ``parent`` the index of
the enclosing span, or -1 at top level.  The layer of a span is the part of
its name before the first dot; ``cli`` spans belong to the ``reporting``
layer.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import Counter
from pathlib import Path

LAYERS = ("numerics", "modulus", "fields", "flow", "estimates", "reporting")
_LAYER_OF = {"cli": "reporting"}

# spans whose summed duration is the per-layer metric "<span>.s"
TIMED_SPANS = (
    "fields.eval",
    "flow.integrate",
    "fields.series_table",
    "fields.osgood_constant",
    "fields.calibrate_witness",
    "fields.maximal_function",
    "fields.weak_type",
    "fields.compressibility",
    "modulus.psi_values",
    "modulus.psi",
    "estimates.stability",
    "estimates.cauchy",
    "estimates.regularity",
    "estimates.compactness",
    "estimates.translation",
    "estimates.field_l1",
    "reporting.write",
)

# per-layer metrics counted by the wrappers
COUNT_METRICS = (
    "fields.eval.calls",
    "fields.eval.points",
    "flow.integrate.calls",
    "flow.rk4_steps",
    "flow.flagged",
    "cli.ensemble.requests",
    "fields.series_table.cold",
    "fields.maximal_function.calls",
    "modulus.psi_values.calls",
    "modulus.psi_values.points",
    "modulus.psi_table.builds",
    "modulus.psi.calls",
    "modulus.psi_inverse.calls",
    "numerics.quad.calls",
    "numerics.quad.nodes",
    "numerics.make_grid.points",
    "reporting.reports",
)


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return _LAYER_OF.get(head, head)


class Tracer:
    """Records nested spans and named counts for one process."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.setup_at: float | None = None
        self._stack: list = []

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` timed as span ``name``; ``on_result(counts, result,
        *args)`` adds the call's counts after it returns."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            rec = [name, time.monotonic(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.monotonic()
            if on_result is not None:
                on_result(counts, result, *args)
            return result

        return traced

    def mark_setup(self, fn):
        """Return ``fn`` stamping ``setup_at`` when its first call returns."""

        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.setup_at is None:
                self.setup_at = time.monotonic()
            return result

        return marked


def snapshot(path) -> dict:
    """Size and mtime of every file under ``path``; empty when it is absent."""
    out = {}
    if path and Path(path).is_dir():
        for p in Path(path).rglob("*"):
            if p.is_file():
                st = p.stat()
                out[p] = (st.st_size, st.st_mtime_ns)
    return out


def install(tracer: Tracer) -> None:
    """Wrap the public calls into every layer that a ``run`` makes."""
    import rlflab.cli as cli
    import rlflab.estimates as estimates
    import rlflab.fields as fields
    import rlflab.modulus as modulus

    wrap = tracer.wrap

    def count_calls(key):
        def add(counts, result, *args):
            counts[key] += 1

        return add

    # numerics
    def grid_points(counts, grid, *args):
        counts["numerics.make_grid.points"] += grid.n_points

    def quad_nodes(counts, result, *args):
        counts["numerics.quad.calls"] += 1
        counts["numerics.quad.nodes"] += result.nodes

    for mod in (cli, estimates, fields):
        mod.make_grid = wrap("numerics.make_grid", mod.make_grid, grid_points)
    for mod in (fields, modulus):
        mod.integrate_1d = wrap("numerics.quad", mod.integrate_1d, quad_nodes)

    # modulus: PsiFunctional methods are looked up on the class at call time
    psi_cls = modulus.PsiFunctional

    def psi_points(counts, result, *args):
        counts["modulus.psi_values.calls"] += 1
        counts["modulus.psi_values.points"] += len(result)

    traced_psi = wrap("modulus.psi", psi_cls.psi, count_calls("modulus.psi.calls"))
    psi_cls.psi = psi_cls.__call__ = traced_psi
    psi_cls.psi_inverse = wrap(
        "modulus.psi_inverse",
        psi_cls.psi_inverse,
        count_calls("modulus.psi_inverse.calls"),
    )
    psi_cls.psi_values = wrap("modulus.psi_values", psi_cls.psi_values, psi_points)
    psi_cls._build_table = wrap(
        "modulus.psi_table",
        psi_cls._build_table,
        count_calls("modulus.psi_table.builds"),
    )

    # fields
    series_evaluator = fields.SeriesEvaluator

    cache = os.environ.get("RLFLAB_CACHE")

    def timed_series(*args, **kwargs):
        before = snapshot(cache)
        result = series_evaluator(*args, **kwargs)
        if snapshot(cache) != before:
            tracer.counts["fields.series_table.cold"] = 1
        return result

    fields.SeriesEvaluator = wrap("fields.series_table", timed_series)
    fields.measure_osgood_constant = wrap(
        "fields.osgood_constant", fields.measure_osgood_constant
    )
    fields.calibrate_witness_constant = wrap(
        "fields.calibrate_witness", fields.calibrate_witness_constant
    )
    fields.maximal_function = wrap(
        "fields.maximal_function",
        fields.maximal_function,
        count_calls("fields.maximal_function.calls"),
    )
    for mod in (cli, estimates):
        mod.weak_type_check = wrap("fields.weak_type", mod.weak_type_check)
    estimates.compressibility_constant = wrap(
        "fields.compressibility", estimates.compressibility_constant
    )
    cli.catalog_field = tracer.mark_setup(
        wrap("fields.catalog", cli.catalog_field)
    )

    mollify = cli.mollify

    def traced_mollify(field, kernel):
        moll = mollify(field, kernel)
        n_nodes = len(kernel.nodes_weights(field.dimension)[1])

        def eval_points(counts, result, t, pts):
            counts["fields.eval.calls"] += 1
            counts["fields.eval.points"] += len(pts) * n_nodes

        ev = wrap("fields.eval", moll.evaluator, eval_points)
        return dataclasses.replace(moll, evaluator=ev)

    cli.mollify = wrap("fields.mollify", traced_mollify)

    # flow
    def integrated(counts, ens, *args):
        counts["flow.integrate.calls"] += 1
        counts["flow.rk4_steps"] += (len(ens.times) - 1) * ens.grid.n_points
        counts["flow.flagged"] += int(ens.flags.sum())

    cli.integrate_ensemble = wrap(
        "flow.integrate", cli.integrate_ensemble, integrated
    )
    cli._Pipeline.ensemble = wrap(
        "cli.ensemble",
        cli._Pipeline.ensemble,
        count_calls("cli.ensemble.requests"),
    )

    # estimates
    for name, span in (
        ("stability_report", "estimates.stability"),
        ("cauchy_diagnostic", "estimates.cauchy"),
        ("regularity_set", "estimates.regularity"),
        ("compactness_a", "estimates.compactness"),
        ("translation_constants", "estimates.translation"),
        ("translation_functional", "estimates.translation"),
    ):
        setattr(cli, name, wrap(span, getattr(cli, name)))
    # cli imports field_l1_distance from the module at call time
    estimates.field_l1_distance = wrap(
        "estimates.field_l1", estimates.field_l1_distance
    )

    # reporting: report JSON, summary CSV and SVG plots
    cli._write_report = wrap(
        "reporting.write", cli._write_report, count_calls("reporting.reports")
    )
    cli.reports_to_csv = wrap("reporting.write", cli.reports_to_csv)
    cli.emit_plots = wrap("reporting.write", cli.emit_plots)


# --------------------------------------------------------------------------
# analysis, run in the benchmark process on the spans a child wrote
# --------------------------------------------------------------------------


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_violations(spans, slack: float = 1e-6) -> int:
    """Count child spans that start before or end after their parent."""
    bad = 0
    for _, start, end, parent in spans:
        if end < start:
            bad += 1
        elif parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start - slack or end > p_end + slack:
                bad += 1
    return bad


def summarize(spans, counts, setup_at, spawned_at, exited_at) -> dict:
    """Per-layer metrics of one traced run (times in seconds)."""
    total, own = Counter(), Counter()
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_s
    out = {key: counts.get(key, 0) for key in COUNT_METRICS}
    out.update({f"{name}.s": total[name] for name in TIMED_SPANS})
    out["flow.integrate.self_s"] = own["flow.integrate"]
    requests = counts.get("cli.ensemble.requests", 0)
    out["cli.ensemble.hit_ratio"] = (
        1.0 - counts.get("flow.integrate.calls", 0) / requests if requests else 0.0
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s for name, s in own.items() if layer_of(name) == layer
        )
    run_s = exited_at - spawned_at
    setup_s = setup_at - spawned_at
    after_setup = sum(
        end - start
        for _, start, end, parent in spans
        if parent < 0 and start >= setup_at
    )
    out["trace.run_s"] = run_s
    out["trace.setup_s"] = setup_s
    out["trace.unattributed_s"] = run_s - setup_s - after_setup
    return out

