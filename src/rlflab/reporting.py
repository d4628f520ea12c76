"""Inequality reports: one measured left side, one measured right side, one
verdict, and enough metadata to reproduce the run.

Every quantitative check in the laboratory funnels through
:class:`EstimateReport`, built by ``estimates`` alone, which refuses a
non-finite side or constant and passes plain python values, so each report
is valid JSON as it stands.  A verdict passes when

    lhs <= rhs * (1 + slack) + additive

where ``slack`` is the multiplicative tolerance (default 5%) and
``additive`` collects declared discretization budgets (grid quadrature,
series truncation, integrator error).  Reports serialize to a JSON document
and to a flat CSV row for batch tabulation; both forms are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["EstimateReport", "CSV_COLUMNS", "reports_to_csv"]

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
        meta = self.metadata
        return [
            suite,
            self.estimate_id,
            str(meta.get("field", "")),
            str(meta.get("n", "")),
            str(meta.get("m", "")),
            repr(self.lhs),
            repr(self.rhs),
            repr(self.slack),
            self.verdict,
            str(meta.get("h", "")),
            str(meta.get("tau", "")),
            str(meta.get("K", "")),
        ]


def reports_to_csv(rows: list[tuple[str, "EstimateReport"]]) -> str:
    """Render (suite, report) pairs as the summary CSV text."""
    lines = [",".join(CSV_COLUMNS)]
    for suite, report in rows:
        lines.append(",".join(report.csv_row(suite)))
    return "\n".join(lines) + "\n"

