"""The analysis engine: collect facts, run rules, apply suppressions.

The pipeline is deterministic and side-effect free:

1. discover ``.py`` files under the requested paths;
2. extract one :class:`~repro.analysis.facts.ModuleFacts` per file;
3. run every registered rule over the whole project's facts (rules are
   project-scoped — cross-module invariants like the WAL channel audit
   need the full picture);
4. drop findings silenced by an inline ``# repro: allow[rule] reason``
   on the finding's line or the line above;
5. emit ``suppression-hygiene`` findings for malformed, reason-less or
   unused suppressions (a stale ``allow`` is itself a latent bug).

CI fails on any finding that survives: an inline ``allow`` with a reason
is the one way to accept one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.facts import ModuleFacts, Suppression, extract_module
from repro.analysis.findings import SEVERITY_WARNING, Finding, Rule

#: Rule name carried by engine-emitted suppression hygiene findings.
SUPPRESSION_RULE = "suppression-hygiene"


@dataclass
class Project:
    """All module facts under one analysis root."""

    root: Path
    modules: List[ModuleFacts] = field(default_factory=list)

    def module_at(self, suffix: str) -> Optional[ModuleFacts]:
        """The module whose relpath ends with ``suffix`` (posix), if any."""
        for module in self.modules:
            if module.relpath == suffix or module.relpath.endswith("/" + suffix):
                return module
        return None


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    project: Project
    rules: List[Rule]
    new: List[Finding]  #: actionable findings (not suppressed)
    suppressed: List[Finding]

    @property
    def ok(self) -> bool:
        """Whether the tree is clean: every finding is suppressed."""
        return not self.new


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    found: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            found.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            found.append(path)
    unique: Dict[str, Path] = {}
    for path in found:
        unique[path.resolve().as_posix()] = path
    return [unique[key] for key in sorted(unique)]


def collect(paths: Sequence[Path], *, root: Path) -> Project:
    """Extract facts for every source file under ``paths``."""
    project = Project(root=Path(root))
    for path in discover_files(paths):
        project.modules.append(extract_module(path, project.root))
    return project


def _suppression_for(
    suppressions: List[Suppression], finding: Finding
) -> Optional[Suppression]:
    for suppression in suppressions:
        if suppression.rule not in (finding.rule, "*"):
            continue
        if suppression.line in (finding.line, finding.line - 1):
            return suppression
    return None


def _hygiene_findings(project: Project, used: set) -> Iterable[Finding]:
    for module in project.modules:
        for line in module.malformed_suppressions:
            yield Finding(
                rule=SUPPRESSION_RULE,
                severity=SEVERITY_WARNING,
                path=module.relpath,
                line=line,
                message=(
                    "malformed suppression marker — use "
                    "'# repro: allow[rule-name] reason'"
                ),
                key=f"malformed:{line}",
            )
        for suppression in module.suppressions:
            if not suppression.reason:
                yield Finding(
                    rule=SUPPRESSION_RULE,
                    severity=SEVERITY_WARNING,
                    path=module.relpath,
                    line=suppression.line,
                    message=(
                        f"suppression of [{suppression.rule}] has no reason — "
                        "every allow must say why"
                    ),
                    key=f"no-reason:{suppression.rule}",
                )
            elif (module.relpath, suppression.line) not in used:
                yield Finding(
                    rule=SUPPRESSION_RULE,
                    severity=SEVERITY_WARNING,
                    path=module.relpath,
                    line=suppression.line,
                    message=(
                        f"unused suppression of [{suppression.rule}] — "
                        "the finding it silenced is gone; remove the marker"
                    ),
                    key=f"unused:{suppression.rule}",
                )


def run_analysis(
    paths: Sequence[Path],
    *,
    root: Path,
    rules: Sequence[Rule],
) -> AnalysisResult:
    """Run the full pipeline and classify every finding."""
    project = collect(paths, root=root)

    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.check(project))

    by_path: Dict[str, List[Suppression]] = {
        module.relpath: module.suppressions for module in project.modules
    }
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    used: set = set()
    for finding in raw:
        suppression = _suppression_for(by_path.get(finding.path, []), finding)
        if suppression is not None:
            suppressed.append(finding)
            used.add((finding.path, suppression.line))
        else:
            kept.append(finding)

    kept.extend(_hygiene_findings(project, used))
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.key))
    return AnalysisResult(
        project=project, rules=list(rules), new=kept, suppressed=suppressed
    )
