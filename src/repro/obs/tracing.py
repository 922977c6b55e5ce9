"""Request tracing: one trace per logical operation, spans for its parts.

One trace covers one logical operation (usually one gateway request).  The
active ``(trace, span)`` context is thread-local, so concurrent callers on
different threads never share a trace; within a request every layer runs
on the caller's thread (multi-shard work included), so spans opened
anywhere below the gateway attach to the request's trace without any
hand-off.  Spans carry tags — the shard id and the planner's ``explain()``
output for storage queries — so a slow response can be tied to the shard
and access path that caused it.

Finished traces land in two ring buffers (recent and slow) sized by
configuration; ``GET /v1/ops/traces`` serves both.  A trace is *slow* when
its wall time crosses the threshold **or** when any slow-query span was
recorded into it (:meth:`Tracer.record_span` with ``slow=True``), so a
fast-looking request that hid a slow query still surfaces.

The :class:`NullTracer` keeps the disabled path allocation-free: ``trace``
and ``span`` return one shared no-op context manager.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

_span_ids = itertools.count(1)


class Span:
    """One timed unit of work inside a trace."""

    __slots__ = ("span_id", "parent_id", "name", "started", "elapsed_s", "tags")

    def __init__(self, name: str, parent_id: Optional[int], tags: Dict[str, Any]) -> None:
        self.span_id = next(_span_ids)
        self.parent_id = parent_id
        self.name = name
        self.started = time.perf_counter()
        self.elapsed_s: Optional[float] = None
        self.tags = tags

    def to_dict(self) -> Dict[str, Any]:
        elapsed = self.elapsed_s if self.elapsed_s is not None else 0.0
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "elapsed_ms": round(elapsed * 1000.0, 3),
            "tags": dict(self.tags),
        }


class Trace:
    """One logical operation: a root span plus everything under it.

    A trace is its own context manager (``with tracer.trace(...) as t:``) —
    entering pushes it onto the tracer's thread-local stack, exiting stamps
    the wall time and hands it to the ring buffers.  Keeping enter/exit on
    the trace object itself (no wrapper allocation, no helper-call layers)
    is part of the per-request overhead budget.
    """

    __slots__ = (
        "trace_id",
        "name",
        "tags",
        "spans",
        "started",
        "elapsed_s",
        "slow",
        "_tracer",
    )

    def __init__(
        self, tracer: "Tracer", trace_id: int, name: str, tags: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.name = name
        self.tags = tags
        self.spans: List[Span] = []
        self.started = time.perf_counter()
        self.elapsed_s: Optional[float] = None
        self.slow = False

    def set_tag(self, key: str, value: Any) -> None:
        """Attach one tag to the trace (status codes, error markers)."""
        self.tags[key] = value

    def __enter__(self) -> "Trace":
        self._tracer._push((self, None))
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed_s = time.perf_counter() - self.started
        tracer = self._tracer
        tracer._pop()
        if exc is not None:
            self.tags["error"] = repr(exc)
        tracer._finish(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        elapsed = self.elapsed_s if self.elapsed_s is not None else 0.0
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "elapsed_ms": round(elapsed * 1000.0, 3),
            "slow": self.slow,
            "tags": dict(self.tags),
            "spans": [span.to_dict() for span in self.spans],
        }


class _NoopHandle:
    """What disabled trace/span context managers yield."""

    __slots__ = ()

    def set_tag(self, key: str, value: Any) -> None:
        pass


class _NoopContext:
    __slots__ = ()
    _handle = _NoopHandle()

    def __enter__(self) -> _NoopHandle:
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_CONTEXT = _NoopContext()


class _SpanContext:
    """Context manager for one child span inside the active trace."""

    __slots__ = ("_tracer", "_trace", "_span")

    def __init__(self, tracer: "Tracer", trace: Trace, span: Span) -> None:
        self._tracer = tracer
        self._trace = trace
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push((self._trace, self._span))
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._pop()
        span = self._span
        span.elapsed_s = time.perf_counter() - span.started
        if exc is not None:
            span.tags["error"] = repr(exc)
        self._trace.spans.append(span)
        return False


class Tracer:
    """Thread-local trace/span context plus the recent/slow ring buffers."""

    enabled = True

    def __init__(self, *, buffer: int = 128, slow_threshold_s: float = 0.5) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._recent: deque = deque(maxlen=buffer)
        self._slow: deque = deque(maxlen=buffer)
        self._trace_ids = itertools.count(1)
        self.slow_threshold_s = slow_threshold_s

    # Context plumbing -----------------------------------------------------

    def _stack(self) -> List[Tuple[Trace, Optional[Span]]]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _push(self, entry: Tuple[Trace, Optional[Span]]) -> None:
        self._stack().append(entry)

    def _pop(self) -> None:
        self._stack().pop()

    def _finish(self, trace: Trace) -> None:
        with self._lock:
            self._recent.append(trace)
            if trace.slow or trace.elapsed_s >= self.slow_threshold_s:
                trace.slow = True
                self._slow.append(trace)

    # Public API -----------------------------------------------------------

    def trace(self, name: str, **tags: Any) -> Trace:
        """Open a new trace on this thread (use as a context manager)."""
        return Trace(self, next(self._trace_ids), name, tags)

    def span(self, name: str, **tags: Any):
        """Open a child span of the active trace (no-op when none is active)."""
        entry = self.current()
        if entry is None:
            return _NOOP_CONTEXT
        trace, parent = entry
        parent_id = parent.span_id if parent is not None else None
        return _SpanContext(self, trace, Span(name, parent_id, tags))

    def current(self) -> Optional[Tuple[Trace, Optional[Span]]]:
        """The active (trace, span) on this thread, or ``None``."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def record_span(
        self, name: str, elapsed_s: float, *, slow: bool = False, **tags: Any
    ) -> bool:
        """Attach an already-completed span to the active trace.

        The slow-query observer uses this: query timing is measured at the
        storage layer, and the finished span (plan + shard + elapsed) is
        retro-attached here.  ``slow=True`` marks the whole trace slow.
        Returns whether a trace was active to receive it.
        """
        entry = self.current()
        if entry is None:
            return False
        trace, parent = entry
        span = Span(name, parent.span_id if parent is not None else None, tags)
        span.elapsed_s = elapsed_s
        trace.spans.append(span)
        if slow:
            trace.slow = True
        return True

    def recent(self, limit: int = 50) -> List[Dict[str, Any]]:
        """The most recently finished traces, newest first."""
        with self._lock:
            traces = list(self._recent)
        return [trace.to_dict() for trace in reversed(traces[-limit:])]

    def slow(self, limit: int = 50) -> List[Dict[str, Any]]:
        """The most recent slow traces, newest first."""
        with self._lock:
            traces = list(self._slow)
        return [trace.to_dict() for trace in reversed(traces[-limit:])]


class NullTracer:
    """Disabled tracer: every context manager is one shared no-op object."""

    enabled = False
    slow_threshold_s = float("inf")

    def trace(self, name: str, **tags: Any) -> _NoopContext:
        return _NOOP_CONTEXT

    def span(self, name: str, **tags: Any) -> _NoopContext:
        return _NOOP_CONTEXT

    def current(self) -> None:
        return None

    def record_span(self, name: str, elapsed_s: float, *, slow: bool = False, **tags: Any) -> bool:
        return False

    def recent(self, limit: int = 50) -> List[Dict[str, Any]]:
        return []

    def slow(self, limit: int = 50) -> List[Dict[str, Any]]:
        return []
