"""In-process publish/subscribe message bus (RabbitMQ substitute).

The production system wires its components with RabbitMQ; the reproduction
uses a synchronous, deterministic bus with the same topology concepts:
named topics and multiple subscribers per topic.

Every publish counts in ``bus_published_total{topic}`` and is delivered to
the topic's subscribers, if it has any.  A topic nobody subscribes to is
fire-and-forget: the bus keeps no message history, so a consumer that
needs the messages subscribes a handler.  Only a failed delivery is a
dead letter, recorded per event (see :class:`DeadLetterRecord`) and
counted exactly in ``bus_dead_letters_total{topic,reason}``:

* ``handler_error`` — one handler raised (others may still have delivered);
* ``all_handlers_failed`` — every handler raised, so the message itself is
  dead-lettered.

The bus keeps the last :data:`HISTORY_SIZE` dead-letter records.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, DefaultDict, Deque, Dict, List, Optional

from repro.errors import PipelineError

Handler = Callable[["Message"], None]

#: Ring size of the bus's dead-letter records.
HISTORY_SIZE = 1024


@dataclass(frozen=True)
class Message:
    """One message published on the bus."""

    topic: str
    body: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DeadLetterRecord:
    """One dead-letter event, with enough context to debug the failure.

    ``reason`` is ``"handler_error"`` or ``"all_handlers_failed"``;
    ``handler`` and ``error`` name the failing callable and what it raised,
    and are ``None`` for ``all_handlers_failed``.
    """

    message: Message
    topic: str
    reason: str
    handler: Optional[str] = None
    error: Optional[str] = None


class MessageBus:
    """A synchronous topic-based publish/subscribe bus.

    ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` (or the
    null variant, whose counters are no-ops).
    """

    def __init__(self, metrics: Any) -> None:
        self._subscribers: DefaultDict[str, List[Handler]] = defaultdict(list)
        self._published = metrics.counter(
            "bus_published_total",
            help="Messages published on the bus by topic.",
            labels=("topic",),
        )
        # Resolved ``bus_published_total{topic}`` series, so a publish pays
        # one dict lookup, not a labels() validation.
        self._published_series: Dict[str, Any] = {}
        self._dead_letter_counter = metrics.counter(
            "bus_dead_letters_total",
            help="Dead-lettered bus deliveries by topic and reason.",
            labels=("topic", "reason"),
        )
        self._dead_letters: Deque[DeadLetterRecord] = deque(maxlen=HISTORY_SIZE)
        # The server publishes from the request's thread only, but the bus
        # stays safe for callers that publish from several threads: appends
        # to the records and readers' copies of them hold this lock.
        self._dead_letter_lock = threading.Lock()
        self._delivery_count = 0

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
        with self._dead_letter_lock:
            self._dead_letters.append(record)
        self._dead_letter_counter.labels(topic=message.topic, reason=reason).inc()

    def subscribe(self, topic: str, handler: Handler) -> None:
        """Register a handler for a topic."""
        if not topic:
            raise PipelineError("topic must be a non-empty string")
        self._subscribers[topic].append(handler)

    def publish(self, topic: str, body: Dict[str, Any]) -> Message:
        """Publish a message, delivering it synchronously to all subscribers."""
        if not topic:
            raise PipelineError("topic must be a non-empty string")
        series = self._published_series.get(topic)
        if series is None:
            series = self._published_series[topic] = self._published.labels(topic=topic)
        series.inc()
        message = Message(topic=topic, body=dict(body))
        handlers = self._subscribers.get(topic)
        if not handlers:
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
        if not delivered:
            self._record_dead_letter(message, "all_handlers_failed")
        return message

    def dead_letter_records(self, topic: str = None) -> List[DeadLetterRecord]:
        """The last :data:`HISTORY_SIZE` dead-letter records in publish order
        (optionally one topic's)."""
        with self._dead_letter_lock:
            records = list(self._dead_letters)
        if topic is None:
            return records
        return [record for record in records if record.topic == topic]

    def delivery_count(self) -> int:
        """Number of successful handler deliveries."""
        return self._delivery_count

    def topics(self) -> List[str]:
        """Topics that have at least one subscriber."""
        return sorted(self._subscribers.keys())
