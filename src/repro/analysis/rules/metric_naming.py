"""metric-naming: registered metric names follow the one house convention.

Telemetry names are an API: dashboards, the Prometheus text endpoint and
the CI benches all select series by name, so drift ("walBytes",
"wal_append_count") quietly breaks panels without failing any test.
Registration sites (``registry.counter/gauge/histogram``) with a literal
name argument must satisfy:

* names match ``^[a-z][a-z0-9_]*$`` (Prometheus-safe snake_case);
* counters end in ``_total`` (monotonic-counter convention);
* histograms end in a unit suffix — ``_seconds`` or ``_bytes``.

Wrappers passing a name variable through are out of scope (the literal
at the original call site is what gets checked).
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.analysis.findings import SEVERITY_ERROR, Finding, Rule

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_KINDS = {
    "counter": ("_total",),
    "histogram": ("_seconds", "_bytes"),
    "gauge": (),
}


def check(project) -> Iterator[Finding]:
    for module in project.modules:
        for call in module.calls:
            kind = call.callee.split(".")[-1]
            suffixes = _KINDS.get(kind)
            if suffixes is None or not call.args:
                continue
            name = call.args[0]
            if not isinstance(name, str):
                continue
            if not _NAME_RE.match(name):
                yield RULE.finding(
                    path=module.relpath,
                    line=call.line,
                    message=(
                        f"metric name '{name}' is not snake_case "
                        f"([a-z0-9_], leading letter)"
                    ),
                    key=f"case:{name}",
                )
            elif suffixes and not name.endswith(suffixes):
                wanted = " or ".join(suffixes)
                yield RULE.finding(
                    path=module.relpath,
                    line=call.line,
                    message=(
                        f"{kind} metric '{name}' must end in {wanted} — "
                        f"the suffix is how dashboards and the Prometheus "
                        f"endpoint tell kinds and units apart"
                    ),
                    key=f"suffix:{name}",
                )


RULE = Rule(
    name="metric-naming",
    severity=SEVERITY_ERROR,
    summary=(
        "metric registrations use snake_case names; counters end _total, "
        "histograms carry a unit suffix"
    ),
    check=check,
)
