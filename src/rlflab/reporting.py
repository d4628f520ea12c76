"""Result bytes: inequality reports, their JSON and CSV forms, the report
file names and the SVG plots.

Every quantitative check in the laboratory funnels through
:class:`EstimateReport`, built by ``estimates`` alone, which refuses a
non-finite side or constant and passes plain python values, so each report
is valid JSON as it stands.  A verdict passes when

    lhs <= rhs * (1 + slack) + additive

where ``slack`` is the multiplicative tolerance (default 5%) and
``additive`` collects declared discretization budgets (grid quadrature,
series truncation, integrator error).  Reports serialize to a JSON document
and to a flat CSV row for batch tabulation, ``report_file_name`` names each
report's file, and ``emit_plots`` draws the suite plots on a fixed canvas.
Every form is deterministic: floats are written by ``repr`` or by fixed
format specs, and nothing carries a timestamp.  ``cli`` chooses the reports
a run makes and writes the files; this module decides every byte in them.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EstimateReport",
    "CSV_COLUMNS",
    "reports_to_csv",
    "report_file_name",
    "emit_plots",
]

# summary.csv columns: the suite, the report's own fields (floats by repr),
# and for any other name the report's metadata entry (empty when absent)
CSV_COLUMNS = (
    "suite",
    "estimate_id",
    "field",
    "n",
    "m",
    "lhs",
    "rhs",
    "slack",
    "verdict",
    "h",
    "tau",
    "K",
)


@dataclass(frozen=True)
class EstimateReport:
    """Measured sides of one inequality plus provenance metadata."""

    estimate_id: str
    lhs: float
    rhs: float
    constants: dict
    metadata: dict
    slack: float
    additive: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + self.slack) + self.additive

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "estimate_id": self.estimate_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "additive": self.additive,
            "verdict": self.verdict,
            "constants": self.constants,
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def csv_row(self, suite: str) -> list[str]:
        own = {
            "suite": suite,
            "estimate_id": self.estimate_id,
            "lhs": repr(self.lhs),
            "rhs": repr(self.rhs),
            "slack": repr(self.slack),
            "verdict": self.verdict,
        }
        meta = self.metadata
        return [own[c] if c in own else str(meta.get(c, "")) for c in CSV_COLUMNS]


def reports_to_csv(rows: list[tuple[str, "EstimateReport"]]) -> str:
    """Render (suite, report) pairs as the summary CSV text."""
    lines = [",".join(CSV_COLUMNS)]
    for suite, report in rows:
        lines.append(",".join(report.csv_row(suite)))
    return "\n".join(lines) + "\n"


def report_file_name(suite: str, report: EstimateReport, index: int) -> str:
    """``<suite>_<estimate>_<field>[_n<n>][_m<m>][_r<r>][_d<delta>]_<index>.json``,
    with ``index`` the report's running number in the run, which keeps names
    unique when a suite emits repeated shapes."""
    meta = report.metadata
    parts = [suite, report.estimate_id, str(meta.get("field", ""))]
    for key in ("n", "m"):
        v = meta.get(key, "")
        if v != "" and v is not None:
            parts.append(f"{key}{v}")
    r = report.constants.get("r")
    if r is not None:
        parts.append(f"r{r:.6g}")
    delta = report.constants.get("delta")
    if delta is not None:
        parts.append(f"d{delta:.3g}")
    slug = "_".join(parts).replace("/", "-")
    return f"{slug}_{index:03d}.json"


# --------------------------------------------------------------------------
# deterministic SVG plots
# --------------------------------------------------------------------------

_CANVAS = (640, 480)
_MARGIN = (70, 30, 40, 60)  # left, right, top, bottom
_PALETTE = ("#1b6ca8", "#c23b22", "#2e8540", "#8e6bbf", "#b8860b")


def _text(x, y, size, body, anchor="middle", attrs="") -> str:
    """A text element; an int coordinate prints as it is, a float to 0.1."""
    x, y = (str(v) if isinstance(v, int) else f"{v:.1f}" for v in (x, y))
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-size="{size}"'
        f"{attrs}>{body}</text>"
    )


def _line(x1: int, y1: int, x2: int, y2: int) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>'


def _polyline(points, color) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def _circle(x, y, color) -> str:
    return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>'


def _svg_line_plot(series, title, xlabel, ylabel) -> str:
    """Fixed-canvas line plot of (label, xs, ys) series; tick labels with
    %.6g, no timestamps."""
    width, height = _CANVAS
    ml, mr, mt, mb = _MARGIN
    inner_w, inner_h = width - ml - mr, height - mt - mb
    xs_all = np.concatenate([np.asarray(s[1], float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], float) for s in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(min(ys_all.min(), 0.0)), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(y):
        return mt + inner_h - (y - y_lo) / (y_hi - y_lo) * inner_h

    bottom, mid = mt + inner_h, mt + inner_h / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _text(width / 2, 18, 14, title),
        _line(ml, bottom, ml + inner_w, bottom),
        _line(ml, mt, ml, bottom),
    ]
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4.0
        yv = y_lo + (y_hi - y_lo) * i / 4.0
        parts.append(_text(px(xv), bottom + 16, 10, f"{xv:.6g}"))
        parts.append(_text(ml - 6, py(yv) + 3, 10, f"{yv:.6g}", "end"))
    parts.append(_text(ml + inner_w / 2, height - 8, 12, xlabel))
    turn = f' transform="rotate(-90 16 {mid:.1f})"'
    parts.append(_text(16, mid, 12, ylabel, "middle", turn))
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = [(px(float(x)), py(float(y))) for x, y in zip(xs, ys)]
        parts.append(_polyline(points, color))
        parts.extend(_circle(x, y, color) for x, y in points)
        legend_y = mt + 14 + 14 * idx
        parts.append(
            _text(ml + inner_w - 4, legend_y, 11, label, "end", f' fill="{color}"')
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plots(reports, out_dir) -> list:
    """Write the suite plots; returns the written paths (empty = warning)."""
    if not reports:
        print("warning: no reports, no plots emitted", file=sys.stderr)
        return []
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write(name, *plot):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(_svg_line_plot(*plot))
        written.append(path)

    def level(r, key):
        return r.metadata.get(key) or 0

    stab = [r for r in reports if r.estimate_id == "thm31"]
    if stab:
        stab.sort(key=lambda r: (level(r, "n"), level(r, "m")))
        xs = list(range(1, len(stab) + 1))
        lhs, rhs = [r.lhs for r in stab], [r.rhs for r in stab]
        series = [("lhs", xs, lhs), ("rhs", xs, rhs)]
        title = "stability functional vs bound (pairs ordered by level)"
        write("stability_lhs_rhs.svg", series, title, "pair index", "value")

    doubling = [
        r
        for r in reports
        if r.estimate_id == "cauchy" and r.metadata.get("m") == 2 * level(r, "n")
    ]
    if doubling:
        doubling.sort(key=lambda r: r.metadata["n"])
        ns = [r.metadata["n"] for r in doubling]
        series = [("D(n,2n)", ns, [r.lhs for r in doubling])]
        write("cauchy_decay.svg", series, "mollification flow gap", "level n", "D")

    trans = [r for r in reports if r.estimate_id == "thm44"]
    if trans:
        # g(r) does not depend on the level: one curve, and each level's
        # functional per unit ball, lhs/|B(r)| = lhs g(r)/rhs, under it
        g = {r.constants["r"]: r.constants["g_of_r"] for r in trans}
        radii = sorted(g)
        series = [("g(r)", radii, [g[r] for r in radii])]
        for n in sorted({r.metadata.get("n") for r in trans} - {None}):
            group = [r for r in trans if r.metadata.get("n") == n]
            group.sort(key=lambda r: r.constants["r"])
            per_ball = [r.lhs * r.constants["g_of_r"] / r.rhs for r in group]
            series.append((f"n={n}", [r.constants["r"] for r in group], per_ball))
        title = "translation bound g(r) and lhs/|B(r)| per level"
        write("translation_g.svg", series, title, "r", "value")
    return written
