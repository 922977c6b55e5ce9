"""Findings and rule descriptors for the static-analysis suite.

A :class:`Finding` is one violation of one architectural invariant,
anchored to a file and line.  Its ``key`` is a rule-specific *stable*
identifier (an attribute name, a topic, an error class — never a line
number), so it names the same violation as unrelated lines move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    severity: str
    path: str  #: analysis-root-relative posix path
    line: int
    message: str
    key: str  #: stable identifier, independent of line numbers

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable form (the report entry shape)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "key": self.key,
        }


@dataclass(frozen=True)
class Rule:
    """One invariant: a name, a severity, and a check over project facts."""

    name: str
    severity: str
    summary: str
    check: Callable[[Any], Iterable[Finding]] = field(compare=False)

    def finding(self, *, path: str, line: int, message: str, key: str) -> Finding:
        """Build a finding carrying this rule's name and severity."""
        return Finding(
            rule=self.name,
            severity=self.severity,
            path=path,
            line=line,
            message=message,
            key=key,
        )
