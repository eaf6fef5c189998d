"""Audit verdicts and machine-readable run reports.

A verdict is PASS/FAIL on the measured residual, or ERROR when the check
could not be evaluated at all (e.g. a singular encounter during
integration). FAIL is a result, not an exception.
"""

from __future__ import annotations

import json
from typing import NamedTuple

__all__ = ["PASS", "FAIL", "ERROR", "AuditResult", "AuditReport"]

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"


class AuditResult(NamedTuple):
    """Outcome of one audit: verdict plus the measured residual and the
    tolerance it was held to. ``lemma`` names the statement being checked."""

    audit: str
    lemma: str
    verdict: str
    residual: float | None = None
    tolerance: float | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def line(self) -> str:
        res = "" if self.residual is None else f" residual={self.residual:.3e}"
        tol = "" if self.tolerance is None else f" tolerance={self.tolerance:.3e}"
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{self.verdict:5s} {self.audit}{res}{tol} ({self.lemma}){extra}"


class AuditReport(NamedTuple):
    """Per-scenario collection of audit results, in catalog order.

    Serialization is deterministic: identical inputs give byte-identical
    JSON. Wall-clock timing therefore never enters the report; the CLI
    prints it separately.
    """

    scenario: str
    seed: int
    results: tuple[AuditResult, ...] = ()
    integrator: dict | None = None

    @property
    def overall(self) -> str:
        return PASS if all(r.passed for r in self.results) else FAIL

    def to_json(self) -> str:
        doc = {
            "schema": "v1",
            "scenario": self.scenario,
            "seed": self.seed,
            "integrator": self.integrator,
            "overall": self.overall,
            "audits": [r._asdict() for r in self.results],
        }
        return json.dumps(doc, indent=2) + "\n"

    def summary_lines(self) -> list[str]:
        lines = [r.line() for r in self.results]
        lines.append(f"overall: {self.overall} ({self.scenario}, seed {self.seed})")
        return lines
