"""Span recording around each layer's public calls, from outside the program.

The benchmark patches wrappers onto the public functions named in
:data:`SPANS` (and counting wrappers onto :data:`COUNTERS`) before the
world is built, records only while :attr:`Recorder.active` is set, and
removes every wrapper again with :meth:`Recorder.uninstall`.  Nothing
under ``src/`` changes.

Spans live in memory, one list per thread, as ``[name, start, end,
parent, request]`` plus the time covered by direct children; they are
written out once, when the run ends.  A span's self time is its duration
minus its children's.  Spans on the client thread form the request's
blocking path; spans on shard worker threads are reported apart, since
the client thread's wait for them is already inside its own enclosing
span.  A wrap target that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) of every wrapped public call.
#: Several targets may share one span name; their times add up.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("gateway.codec", "repro.pipeline.gateway.gateway", "Gateway.handle_wire"),
    ("gateway.chain", "repro.pipeline.gateway.gateway", "Gateway.handle"),
    ("tick", "repro.pipeline.server", "PphcrServer.recommend"),
    ("context", "repro.pipeline.server", "PphcrServer.build_context"),
    ("context.fixes", "repro.spatialdb.tracking_store", "TrackingStore.fixes_for"),
    ("context.model", "repro.pipeline.server", "PphcrServer.mobility_model"),
    ("context.predict", "repro.trajectory.prediction", "DestinationPredictor.most_likely"),
    ("context.travel_time", "repro.trajectory.travel_time", "TravelTimePredictor.estimate"),
    ("context.route", "repro.roadnet.routing", "RoutePlanner.route_between_points"),
    ("context.route", "repro.pipeline.server", "distraction_zones_along"),
    ("context.route", "repro.pipeline.server", "route_complexity"),
    ("retrieve", "repro.recommender.content_based", "CandidateFilter.candidates"),
    ("score.content", "repro.recommender.content_based", "ContentBasedScorer.score_many"),
    ("score.context", "repro.recommender.context_relevance", "ContextScorer.score_many"),
    ("score.route", "repro.recommender.compound", "CompoundScorer.route_scorer_for"),
    ("schedule", "repro.recommender.scheduling", "Scheduler.build_plan"),
    ("users.ingest", "repro.users.management", "UserManager.ingest_fixes"),
    ("streaming.observe", "repro.streaming.sharded", "ShardedStreamingEngine.observe_fixes"),
    ("users.feedback", "repro.users.management", "UserManager.record_feedback"),
    ("wal.append", "repro.storage.wal", "DurabilityManager.append"),
    ("wal.checkpoint", "repro.storage.wal", "DurabilityManager.maybe_compact"),
    ("maintenance", "repro.pipeline.server", "PphcrServer.maintenance_tick"),
    ("content.read", "repro.content.repository", "ContentRepository.clips_page"),
    ("content.read", "repro.content.repository", "ContentRepository.clip"),
    ("users.read", "repro.users.management", "UserManager.profile"),
    ("users.read", "repro.users.management", "UserManager.preference_profile"),
    ("users.read", "repro.users.feedback", "FeedbackStore.events_page_for_user"),
    ("bus.publish", "repro.pipeline.messaging", "MessageBus.publish"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _m, _a in SPANS))

#: Counts taken by the result hooks below; reported even when zero.
COUNT_NAMES: Tuple[str, ...] = (
    "tick.plans",
    "retrieve.window_clips",
    "retrieve.candidates",
    "score.cosine_calls",
    "users.fixes_accepted",
    "users.fixes_stale",
    "wal.bytes",
    "wal.checkpoints",
    "maintenance.fixes_removed",
)


def _count_len(name: str):
    return lambda recorder, result, args, kwargs: recorder.count(name, len(result))


def _count_ingest(recorder, accepted, args, kwargs) -> None:
    fixes = args[1] if len(args) > 1 else kwargs["fixes"]
    recorder.count("users.fixes_accepted", accepted)
    recorder.count("users.fixes_stale", len(fixes) - accepted)


def _count_plan(recorder, decision, args, kwargs) -> None:
    if decision.plan is not None and decision.plan.items:
        recorder.count("tick.plans", 1)


def _count_frame(recorder, frame, args, kwargs) -> None:
    # encode_frame also rewrites kept frames during compaction; only
    # frames encoded inside DurabilityManager.append are appended bytes.
    if recorder.current_span() == "wal.append":
        recorder.count("wal.bytes", len(frame))


def _count_checkpoint(recorder, report, args, kwargs) -> None:
    if report is not None:
        recorder.count("wal.checkpoints", 1)


def _count_maintenance(recorder, summary, args, kwargs) -> None:
    recorder.count("maintenance.fixes_removed", summary.get("fixes_removed", 0))


#: Result hooks on span targets: (module, attribute path) -> hook.
SPAN_HOOKS: Dict[Tuple[str, str], Callable] = {
    ("repro.pipeline.server", "PphcrServer.recommend"): _count_plan,
    ("repro.recommender.content_based", "CandidateFilter.candidates"): _count_len(
        "retrieve.candidates"
    ),
    ("repro.users.management", "UserManager.ingest_fixes"): _count_ingest,
    ("repro.storage.wal", "DurabilityManager.maybe_compact"): _count_checkpoint,
    ("repro.pipeline.server", "PphcrServer.maintenance_tick"): _count_maintenance,
}

#: Calls whose results are counted but get no span of their own.
COUNTERS: Tuple[Tuple[str, str, Callable], ...] = (
    (
        "repro.content.repository",
        "ContentRepository.clips_published_after",
        _count_len("retrieve.window_clips"),
    ),
    ("repro.storage.wal", "encode_frame", _count_frame),
)

#: Calls that are only counted, thousands of times per tick, so their
#: wrapper is one atomic increment: (count name, module, attribute path).
CALL_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    # The name as bound in the scorer's module is what scoring calls.
    ("score.cosine_calls", "repro.recommender.content_based", "cosine_similarity"),
)


class _ThreadLog:
    __slots__ = ("name", "client", "spans", "stack", "counts")

    def __init__(self, name: str, client: bool) -> None:
        self.name = name
        self.client = client
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}


class Recorder:
    """Installs the wrappers and keeps the spans of one traced phase."""

    def __init__(self) -> None:
        self.active = False
        #: Index of the scripted request in flight (set by the replay loop).
        self.request_id = -1
        self.missing: List[str] = []
        self._client = threading.get_ident()
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._call_counts: Dict[str, "itertools.count"] = {}

    # Installation ----------------------------------------------------------

    def install(self) -> None:
        for name, module, path in SPANS:
            hook = SPAN_HOOKS.get((module, path))
            self._patch(module, path, lambda fn, name=name, hook=hook: self._span(name, fn, hook))
        for module, path, hook in COUNTERS:
            self._patch(module, path, lambda fn, hook=hook: self._counter(fn, hook))
        for name, module, path in CALL_COUNTERS:
            self._patch(module, path, lambda fn, name=name: self._call_counter(name, fn))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def _patch(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        target = f"{module}.{path}"
        try:
            owner: Any = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped: Any = type(raw)(make(raw.__func__))
        elif callable(raw):
            wrapped = make(raw)
        else:
            self.missing.append(target)
            return
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, raw))

    # Recording ---------------------------------------------------------------

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            thread = threading.current_thread()
            log = _ThreadLog(thread.name, threading.get_ident() == self._client)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
            return log

    def current_span(self) -> Optional[str]:
        log = self._log()
        return log.spans[log.stack[-1]][0] if log.stack else None

    def count(self, name: str, amount: float) -> None:
        counts = self._log().counts
        counts[name] = counts.get(name, 0) + amount

    def _span(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            log = recorder._log()
            spans, stack = log.spans, log.stack
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, recorder.request_id, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[2] = end
                if parent >= 0:
                    spans[parent][5] += end - span[1]
            if hook is not None:
                hook(recorder, result, args, kwargs)
            return result

        return wrapper

    def _counter(self, fn: Callable, hook: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if recorder.active:
                hook(recorder, result, args, kwargs)
            return result

        return wrapper

    def _call_counter(self, name: str, fn: Callable) -> Callable:
        recorder = self
        calls = self._call_counts[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.active:
                next(calls)  # atomic under the interpreter lock
            return fn(*args, **kwargs)

        return wrapper

    # Results -------------------------------------------------------------------

    def breakdown(
        self, phase_start: float, phase_end: float, excluded_s: float = 0.0
    ) -> Dict[str, float]:
        """Self time and calls per span, counts, and the unattributed residual.

        ``unattributed_ms`` is measured directly — the client thread's time
        in the phase outside any root span, less ``excluded_s`` the caller
        spent on its own measuring — and the method checks that the client
        thread's self times plus it equal the phase's wall time less that.
        """
        metrics: Dict[str, float] = dict.fromkeys(COUNT_NAMES, 0)
        for name in SPAN_NAMES:
            metrics[f"{name}.self_ms"] = 0.0
            metrics[f"{name}.worker_ms"] = 0.0
            metrics[f"{name}.calls"] = 0
        client_self_s = 0.0
        covered_s = 0.0
        for log in self._logs:
            if log.stack:
                raise RuntimeError(f"spans still open on thread {log.name}")
            for name, start, end, parent, _request, children in log.spans:
                self_s = (end - start) - children
                metrics[f"{name}.calls"] = metrics.get(f"{name}.calls", 0) + 1
                key = f"{name}.self_ms" if log.client else f"{name}.worker_ms"
                metrics[key] = metrics.get(key, 0.0) + self_s * 1000.0
                if log.client:
                    client_self_s += self_s
                    if parent < 0:
                        covered_s += end - start
            for name, amount in log.counts.items():
                metrics[name] += amount
        for name, calls in self._call_counts.items():
            metrics[name] = next(calls)
        wall_s = phase_end - phase_start - excluded_s
        unattributed_s = wall_s - covered_s
        if unattributed_s < 0 or abs(client_self_s + unattributed_s - wall_s) > 1e-6 * max(1.0, wall_s):
            raise RuntimeError(
                f"span self times ({client_self_s:.6f}s) plus unattributed "
                f"({unattributed_s:.6f}s) do not add up to wall time ({wall_s:.6f}s)"
            )
        metrics["unattributed_ms"] = unattributed_s * 1000.0
        return metrics

    def clear(self) -> None:
        """Drop the recorded spans (they would slow the collector later)."""
        self._logs.clear()
        self._local = threading.local()

    def write(self, path) -> int:
        """Write every span once, as gzip JSON lines; returns the span count."""
        written = 0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for thread_index, log in enumerate(self._logs):
                for name, start, end, parent, request, _children in log.spans:
                    handle.write(json.dumps(
                        [thread_index, log.name, name, start, end, parent, request],
                        separators=(",", ":"),
                    ))
                    handle.write("\n")
                    written += 1
        return written
