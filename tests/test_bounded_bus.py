"""The message bus keeps bounded state and exact counts under sustained traffic.

``MessageBus`` counts every publish in ``bus_published_total{topic}`` and
keeps no message history; only a failed delivery is a dead letter, and it
retains the last ``HISTORY_SIZE`` dead-letter records while
``bus_dead_letters_total`` counts every one.  The soak test drives the
gateway's wire entry point long enough to fill any ring and checks that a
clean run leaves the bus with nothing to hold.
"""

from __future__ import annotations

import json
import sys
import threading

from repro.obs.metrics import MetricsRegistry
from repro.pipeline import Gateway, GatewayConfig, PphcrServer
from repro.pipeline.messaging import HISTORY_SIZE, MessageBus


def _counts(registry):
    """``bus_published_total`` by topic and ``bus_dead_letters_total`` by
    (topic, reason), as plain dicts."""
    counters = registry.snapshot()["counters"]
    published = {
        entry["labels"]["topic"]: entry["value"]
        for entry in counters["bus_published_total"]["series"]
    }
    dead = {
        (entry["labels"]["topic"], entry["labels"]["reason"]): entry["value"]
        for entry in counters["bus_dead_letters_total"]["series"]
    }
    return published, dead


def _crashing_consumer(message):
    raise RuntimeError("consumer down")


def test_history_is_bounded_and_the_counter_stays_exact():
    registry = MetricsRegistry()
    bus = MessageBus(registry)
    bus.subscribe("flaky.topic", _crashing_consumer)
    for index in range(3 * HISTORY_SIZE):
        bus.publish("flaky.topic", {"index": index})
    # Each publish dead-letters twice: its one handler raised, so no handler
    # delivered it.  The ring keeps the newest records, in publish order.
    recent = bus.dead_letter_records()
    assert len(recent) == HISTORY_SIZE
    assert [record.message.body["index"] for record in recent] == [
        index
        for index in range(3 * HISTORY_SIZE - HISTORY_SIZE // 2, 3 * HISTORY_SIZE)
        for _reason in range(2)
    ]
    assert [record.reason for record in recent[:2]] == ["handler_error", "all_handlers_failed"]
    assert _counts(registry) == (
        {"flaky.topic": 3 * HISTORY_SIZE},
        {
            ("flaky.topic", "handler_error"): 3 * HISTORY_SIZE,
            ("flaky.topic", "all_handlers_failed"): 3 * HISTORY_SIZE,
        },
    )


def test_handler_error_survives_a_full_ring_of_unsubscribed_traffic():
    registry = MetricsRegistry()
    bus = MessageBus(registry)
    bus.subscribe("flaky.topic", _crashing_consumer)
    bus.publish("flaky.topic", {"id": "rare"})
    for index in range(HISTORY_SIZE + 10):
        bus.publish("orphan.topic", {"index": index})

    # Unsubscribed traffic is counted, not recorded.
    records = bus.dead_letter_records()
    assert [(record.reason, record.handler) for record in records] == [
        ("handler_error", _crashing_consumer.__qualname__),
        ("all_handlers_failed", None),
    ]
    assert "consumer down" in records[0].error
    assert records[0].message.body == {"id": "rare"}
    assert bus.dead_letter_records("flaky.topic") == records
    assert bus.dead_letter_records("orphan.topic") == []
    assert _counts(registry) == (
        {"flaky.topic": 1, "orphan.topic": HISTORY_SIZE + 10},
        {("flaky.topic", "handler_error"): 1, ("flaky.topic", "all_handlers_failed"): 1},
    )


def test_concurrent_publishers_keep_counts_exact_and_readers_safe():
    # Callers publish from their own threads while a reader walks the
    # dead-letter records: no event may be lost from either counter, and no
    # read may fail.
    registry = MetricsRegistry()
    bus = MessageBus(registry)
    bus.subscribe("flaky.0", _crashing_consumer)
    writers, per_writer = 8, 4000
    read_errors = []
    done = threading.Event()

    def write(index):
        for _ in range(per_writer):
            bus.publish(f"flaky.{index % 2}", {})

    def read():
        while not done.is_set():
            try:
                bus.dead_letter_records()
                bus.dead_letter_records("flaky.0")
            except RuntimeError as exc:  # the ring mutated mid-walk
                read_errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=read)
        threads = [threading.Thread(target=write, args=(index,)) for index in range(writers)]
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        done.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads + [reader])
    assert read_errors == []
    half = writers // 2 * per_writer
    assert _counts(registry) == (
        {"flaky.0": half, "flaky.1": half},
        {("flaky.0", "handler_error"): half, ("flaky.0", "all_handlers_failed"): half},
    )
    assert len(bus.dead_letter_records()) == HISTORY_SIZE


def _soak_request(index):
    """One wire request of the soak mix: registrations, reads and misses."""
    kind = index % 4
    if kind == 0:
        body = {"user_id": f"listener-{index}", "display_name": f"Listener {index}"}
        return "POST", "/v1/users", json.dumps(body), None
    if kind == 1:
        return "GET", f"/v1/users/listener-{index - 1}", None, None
    if kind == 2:
        return "GET", f"/v1/users/ghost-{index}", None, None
    return "GET", "/v1/clips", None, {"limit": "5"}


def test_soak_bus_state_is_flat_and_requests_are_counted_once():
    clock = {"now": 0.0}
    server = PphcrServer()
    gateway = Gateway(server, GatewayConfig(clock=lambda: clock["now"]))

    def drive(start, stop):
        for index in range(start, stop):
            clock["now"] += 0.01
            method, path, body_json, query = _soak_request(index)
            status, _, _ = gateway.handle_wire(method, path, body_json, query=query)
            assert status == (404 if index % 4 == 2 else 201 if index % 4 == 0 else 200)

    drive(0, 10_000)
    assert server.bus.dead_letter_records() == []
    drive(10_000, 20_000)
    assert server.bus.dead_letter_records() == []

    counters = server.telemetry.metrics_snapshot()["counters"]
    requests = counters["api_requests_total"]["series"]
    assert sum(entry["value"] for entry in requests) == 20_000
    # Nothing is published per request: only the 5,000 registrations.
    assert _counts(server.telemetry.metrics) == ({"user.registered": 5_000}, {})
