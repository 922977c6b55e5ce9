"""``repro.analysis`` — AST-based architectural-invariant linter.

Nine PRs of conventions — snapshot round-trips, WAL channel coverage,
byte-determinism, shard routing, one error-mapping table — checked
declaratively instead of by reviewer memory: a shared fact-extraction
core (:mod:`repro.analysis.facts`) and independent rule plugins
(:mod:`repro.analysis.rules`), each turning one "non-negotiable
invariant" from ROADMAP/ARCHITECTURE into a CI failure.

Run it with ``python -m repro.analysis src/repro``; see
``docs/ARCHITECTURE.md`` ("Static analysis") for the rule catalogue and
the suppression policy.
"""

from __future__ import annotations

from repro.analysis.engine import AnalysisResult, Project, run_analysis
from repro.analysis.facts import ModuleFacts, extract_module
from repro.analysis.findings import Finding, Rule
from repro.analysis.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "AnalysisResult",
    "Finding",
    "ModuleFacts",
    "Project",
    "Rule",
    "extract_module",
    "run_analysis",
]
