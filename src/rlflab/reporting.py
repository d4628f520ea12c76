"""Inequality reports: one measured left side, one measured right side, one
verdict, and enough metadata to reproduce the run.

Every quantitative check in the laboratory funnels through
:class:`EstimateReport`.  A verdict passes when

    lhs <= rhs * (1 + slack) + additive

where ``slack`` is the multiplicative tolerance (default 5%) and
``additive`` collects declared discretization budgets (grid quadrature,
series truncation, integrator error).  Reports serialize to a JSON document
and to a flat CSV row for batch tabulation; both forms are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["EstimateReport", "make_report", "CSV_COLUMNS", "reports_to_csv"]

ESTIMATE_IDS = ("thm31", "cauchy", "thm41", "prop43", "thm44", "lemma23")

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

    def __post_init__(self):
        for name, value in (("lhs", self.lhs), ("rhs", self.rhs)):
            if not _is_finite_number(value):
                raise ValueError(f"report {name} must be finite, got {value}")

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
            "constants": _plain(self.constants),
            "metadata": _plain(self.metadata),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def csv_row(self, suite: str) -> list[str]:
        meta = self.metadata
        return [
            suite,
            self.estimate_id,
            str(meta.get("field", "")),
            str(meta.get("n", "")),
            str(meta.get("m", "")),
            repr(float(self.lhs)),
            repr(float(self.rhs)),
            repr(float(self.slack)),
            self.verdict,
            str(meta.get("h", "")),
            str(meta.get("tau", "")),
            str(meta.get("K", "")),
        ]


def make_report(
    estimate_id: str,
    lhs: float,
    rhs: float,
    constants: dict,
    metadata: dict,
    slack: float = 0.05,
    additive: float = 0.0,
) -> EstimateReport:
    """Assemble a report with plain float sides, slack and budget."""
    if estimate_id not in ESTIMATE_IDS:
        raise ValueError(f"unknown estimate id {estimate_id!r}")
    return EstimateReport(
        estimate_id, float(lhs), float(rhs), dict(constants), dict(metadata),
        float(slack), float(additive),
    )


def reports_to_csv(rows: list[tuple[str, "EstimateReport"]]) -> str:
    """Render (suite, report) pairs as the summary CSV text."""
    lines = [",".join(CSV_COLUMNS)]
    for suite, report in rows:
        lines.append(",".join(report.csv_row(suite)))
    return "\n".join(lines) + "\n"


def _is_finite_number(x) -> bool:
    try:
        xf = float(x)
    except (TypeError, ValueError):
        return False
    return xf == xf and abs(xf) != float("inf")


def _plain(obj):
    """Coerce numpy scalars and arrays to JSON-friendly plain python."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return str(obj)
