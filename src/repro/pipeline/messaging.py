"""In-process publish/subscribe message bus (RabbitMQ substitute).

The production system wires its components with RabbitMQ; the reproduction
uses a synchronous, deterministic bus with the same topology concepts:
named topics, multiple subscribers per topic, and dead letters for
messages that no subscriber handled or whose handler raised.

Dead letters come in three flavours, recorded per event (see
:class:`DeadLetterRecord`) and surfaced through the metrics registry as
``bus_dead_letters_total{topic,reason}`` when :meth:`MessageBus.attach_metrics`
is called:

* ``no_subscriber`` — the topic had no handlers at all;
* ``handler_error`` — one handler raised (others may still have delivered);
* ``all_handlers_failed`` — every handler raised, so the message itself is
  dead-lettered.

History is bounded: the bus keeps the last :data:`HISTORY_SIZE` messages
and, per (topic, reason), the last :data:`HISTORY_SIZE` dead-letter records,
so a busy unsubscribed topic never pushes a rare ``handler_error`` out.
Counts stay exact through a per-(topic, reason) tally; a consumer that needs
every message subscribes a handler.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, DefaultDict, Deque, Dict, List, Optional, Tuple

from repro.errors import PipelineError
from repro.util.ids import new_id

Handler = Callable[["Message"], None]

#: Ring size of the bus's history.  At most it holds this many messages plus
#: this many records per (topic, reason) that dead-lettered: with the tree's
#: 15 topics unsubscribed, ~9 MB at ~600 bytes per four-field record.
HISTORY_SIZE = 1024


@dataclass(frozen=True)
class Message:
    """One message published on the bus."""

    message_id: str
    topic: str
    body: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DeadLetterRecord:
    """One dead-letter event, with enough context to debug the failure.

    ``reason`` is one of ``"no_subscriber"``, ``"handler_error"`` or
    ``"all_handlers_failed"``; ``handler`` names the failing callable for
    the handler-scoped reasons and is ``None`` for ``no_subscriber``.
    """

    message: Message
    topic: str
    reason: str
    handler: Optional[str] = None
    error: Optional[str] = None


class _DeadLetterLog:
    """Recent records (numbered bus-wide, so rings merge back into publish
    order) and the exact event count of one (topic, reason)."""

    __slots__ = ("recent", "total", "series")

    def __init__(self) -> None:
        self.recent: Deque[Tuple[int, DeadLetterRecord]] = deque(maxlen=HISTORY_SIZE)
        self.total = 0
        self.series = None  # the attached registry's counter series, if any


class MessageBus:
    """A synchronous topic-based publish/subscribe bus."""

    def __init__(self) -> None:
        self._subscribers: DefaultDict[str, List[Handler]] = defaultdict(list)
        self._published: Deque[Message] = deque(maxlen=HISTORY_SIZE)
        self._dead_letter_logs: Dict[Tuple[str, str], _DeadLetterLog] = {}
        self._sequence = itertools.count()
        # The server publishes from the request's thread only, but the bus
        # stays safe for callers that publish from several threads: the
        # tally's read-modify-write and readers' walks over the rings hold
        # this lock.
        self._dead_letter_lock = threading.Lock()
        self._delivery_count = 0
        self._dead_letter_counter = None  # set by attach_metrics()

    def attach_metrics(self, registry: Any) -> None:
        """Surface dead letters as ``bus_dead_letters_total{topic,reason}``.

        ``registry`` is a :class:`~repro.obs.metrics.MetricsRegistry` (or
        the null variant — attaching a disabled registry is a no-op
        counter).  Events observed before attachment are added from the
        per-(topic, reason) tally, so the counter is exact regardless of
        wiring order and of how many records the rings still hold.
        """
        with self._dead_letter_lock:
            self._dead_letter_counter = registry.counter(
                "bus_dead_letters_total",
                help="Dead-lettered bus deliveries by topic and reason.",
                labels=("topic", "reason"),
            )
            for (topic, reason), log in self._dead_letter_logs.items():
                log.series = self._dead_letter_counter.labels(topic=topic, reason=reason)
                log.series.inc(log.total)

    def _record_dead_letter(
        self,
        message: Message,
        reason: str,
        *,
        handler: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        record = DeadLetterRecord(
            message=message, topic=message.topic, reason=reason, handler=handler, error=error
        )
        key = (message.topic, reason)
        with self._dead_letter_lock:
            log = self._dead_letter_logs.get(key)
            if log is None:
                log = self._dead_letter_logs[key] = _DeadLetterLog()
                if self._dead_letter_counter is not None:
                    log.series = self._dead_letter_counter.labels(
                        topic=message.topic, reason=reason
                    )
            log.recent.append((next(self._sequence), record))
            log.total += 1
            if log.series is not None:
                log.series.inc()

    def subscribe(self, topic: str, handler: Handler) -> None:
        """Register a handler for a topic."""
        if not topic:
            raise PipelineError("topic must be a non-empty string")
        self._subscribers[topic].append(handler)

    def publish(self, topic: str, body: Dict[str, Any]) -> Message:
        """Publish a message, delivering it synchronously to all subscribers."""
        if not topic:
            raise PipelineError("topic must be a non-empty string")
        message = Message(message_id=new_id("msg"), topic=topic, body=dict(body))
        self._published.append(message)
        handlers = self._subscribers.get(topic)
        if not handlers:
            self._record_dead_letter(message, "no_subscriber")
            return message
        delivered = False
        for handler in handlers:
            try:
                handler(message)
                delivered = True
                self._delivery_count += 1
            except Exception as exc:  # noqa: BLE001 - a failing consumer must not break producers
                self._record_dead_letter(
                    message,
                    "handler_error",
                    handler=getattr(handler, "__qualname__", repr(handler)),
                    error=repr(exc),
                )
                continue
        if not delivered:
            self._record_dead_letter(message, "all_handlers_failed")
        return message

    def published_messages(self, topic: str = None) -> List[Message]:
        """The last :data:`HISTORY_SIZE` published messages (optionally one topic's)."""
        recent = list(self._published)  # one atomic copy: another thread may be appending
        if topic is None:
            return recent
        return [message for message in recent if message.topic == topic]

    def dead_letters(self) -> List[Message]:
        """Recent messages that no subscriber handled, in publish order."""
        return [
            record.message
            for record in self.dead_letter_records()
            if record.reason != "handler_error"
        ]

    def dead_letter_records(self, topic: str = None) -> List[DeadLetterRecord]:
        """Recent per-event dead-letter records in publish order (optionally one topic's).

        Unlike :meth:`dead_letters` — which lists *messages* no subscriber
        handled — this also records per-handler failures on messages that
        another handler did deliver, each with the failing handler's name
        and the raised exception.  Each (topic, reason) keeps its last
        :data:`HISTORY_SIZE` records.
        """
        with self._dead_letter_lock:
            rings = [
                list(log.recent)
                for (log_topic, _reason), log in self._dead_letter_logs.items()
                if topic is None or log_topic == topic
            ]
        return [record for _sequence, record in heapq.merge(*rings)]

    def delivery_count(self) -> int:
        """Number of successful handler deliveries."""
        return self._delivery_count

    def topics(self) -> List[str]:
        """Topics that have at least one subscriber."""
        return sorted(self._subscribers.keys())
