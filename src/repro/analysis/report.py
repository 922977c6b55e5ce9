"""Report rendering for analysis results: text, json and github formats.

``text`` is the human terminal view, ``json`` the machine artifact CI
uploads, and ``github`` emits workflow commands
(``::error file=...,line=...::message``) so findings annotate the pull
request diff inline.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.engine import AnalysisResult
from repro.analysis.findings import Finding

FORMATS = ("text", "json", "github")


def _summary(result: AnalysisResult) -> str:
    return (
        f"{len(result.project.modules)} modules, {len(result.rules)} rules: "
        f"{len(result.new)} new finding(s), {len(result.suppressed)} suppressed"
    )


def render_text(result: AnalysisResult) -> str:
    lines: List[str] = []
    for finding in result.new:
        lines.append(
            f"{finding.path}:{finding.line}: {finding.severity} "
            f"[{finding.rule}] {finding.message}"
        )
    lines.append(_summary(result))
    lines.append("clean" if result.ok else "FAIL: new findings above")
    return "\n".join(lines)


def render_github(result: AnalysisResult) -> str:
    """GitHub workflow commands — new findings annotate the diff."""
    lines: List[str] = []
    for finding in result.new:
        level = "error" if finding.severity == "error" else "warning"
        message = f"[{finding.rule}] {finding.message}".replace("\n", " ")
        lines.append(
            f"::{level} file={finding.path},line={finding.line},"
            f"title=repro.analysis::{message}"
        )
    lines.append(f"::notice title=repro.analysis::{_summary(result)}")
    return "\n".join(lines)


def report_payload(result: AnalysisResult) -> Dict[str, Any]:
    """The machine-readable report (what ``--report`` writes)."""

    def dump(findings: List[Finding]) -> List[Dict[str, Any]]:
        return [finding.to_payload() for finding in findings]

    return {
        "version": 1,
        "modules": len(result.project.modules),
        "rules": [
            {"name": rule.name, "severity": rule.severity, "summary": rule.summary}
            for rule in result.rules
        ],
        "new": dump(result.new),
        "suppressed": dump(result.suppressed),
        "ok": result.ok,
    }


def render_json(result: AnalysisResult) -> str:
    return json.dumps(report_payload(result), indent=2, sort_keys=True)


def render(result: AnalysisResult, fmt: str) -> str:
    if fmt == "text":
        return render_text(result)
    if fmt == "json":
        return render_json(result)
    if fmt == "github":
        return render_github(result)
    raise ValueError(f"unknown report format {fmt!r} (want one of {FORMATS})")
