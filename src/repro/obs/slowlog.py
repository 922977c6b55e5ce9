"""The slow-query log: table operations over a threshold, with their plan.

Every instrumented storage operation — keyset ``page_by_index`` walks,
sharded fan-out merges — reports its plan and wall time to the telemetry
query observer; anything over the configured threshold lands here with
enough context to act on: which database and table, which shard, which
access path (the plan's index and strategy), how long, how many rows.

The log is a ring buffer (``deque(maxlen=...)``), so it is O(1) per entry
and never grows: an ops surface, not an audit trail.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional


class SlowQueryLog:
    """A bounded, newest-first log of over-threshold table operations."""

    def __init__(self, *, maxlen: int = 256) -> None:
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=maxlen)
        self._recorded = 0

    @property
    def recorded(self) -> int:
        """Slow operations ever recorded (including ones evicted)."""
        return self._recorded

    def record(
        self,
        *,
        database: str,
        shard: Optional[int],
        plan: Dict[str, Any],
        elapsed_s: float,
        rows: int,
    ) -> Dict[str, Any]:
        """Append one slow operation; returns the stored entry."""
        entry = {
            "database": database,
            "shard": shard,
            "table": plan.get("table"),
            "plan": dict(plan),
            "elapsed_ms": round(elapsed_s * 1000.0, 3),
            "rows": rows,
        }
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1
        return entry

    def entries(self, limit: int = 50) -> List[Dict[str, Any]]:
        """The most recent slow operations, newest first."""
        with self._lock:
            entries = list(self._entries)
        return [dict(entry) for entry in reversed(entries[-limit:])]

    def clear(self) -> None:
        """Drop all entries (benchmark isolation)."""
        with self._lock:
            self._entries.clear()
