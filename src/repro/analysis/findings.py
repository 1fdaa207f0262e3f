"""Findings: what a rule reports, and how both linters print it.

The zone linter (:mod:`repro.zones.lint`) predates this package and has
its own ``Finding`` shape; :func:`findings_to_json` renders either kind
so ``tools/lint --json`` and ``tools/selfcheck --json`` share one output
schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum


class Severity(Enum):
    ERROR = "error"  # the invariant is broken; selfcheck exits non-zero
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a file/line."""

    rule: str
    message: str
    path: str = ""
    line: int = 0
    severity: Severity = Severity.ERROR

    def __str__(self) -> str:
        return render_finding(self)


def render_finding(finding) -> str:
    """Text rendering shared by the analysis and zone-lint CLIs."""
    record = _as_record(finding)
    where = record["path"] or record["name"]
    if record["line"]:
        where = f"{where}:{record['line']}"
    prefix = f"{where}: " if where else ""
    return f"{prefix}[{record['severity']}] {record['check']}: {record['message']}"


def _as_record(finding) -> dict:
    """Normalize an analysis or zone-lint finding into one flat dict."""
    severity = getattr(finding, "severity", Severity.ERROR)
    return {
        "severity": severity.value if isinstance(severity, Enum) else str(severity),
        "check": getattr(finding, "rule", "") or getattr(finding, "check", ""),
        "message": finding.message,
        "path": getattr(finding, "path", ""),
        "line": getattr(finding, "line", 0),
        "name": str(getattr(finding, "name", "")),
    }


def findings_to_json(findings) -> str:
    """The ``--json`` schema shared by ``tools/lint`` and ``tools/selfcheck``."""
    records = [_as_record(f) for f in findings]
    errors = sum(1 for r in records if r["severity"] == Severity.ERROR.value)
    payload = {
        "findings": records,
        "total": len(records),
        "errors": errors,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
