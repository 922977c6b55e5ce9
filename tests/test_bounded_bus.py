"""The message bus keeps bounded history and exact counts under sustained traffic.

``MessageBus`` retains the last ``HISTORY_SIZE`` messages and the last
``HISTORY_SIZE`` dead-letter records per (topic, reason); the dead-letter
counter comes from an exact tally.  The soak test drives the gateway's wire
entry point long enough to fill every ring and checks that the bus holds
the same amount of state at the end as halfway through.
"""

from __future__ import annotations

import json
import sys
import threading

from repro.obs.metrics import MetricsRegistry
from repro.pipeline import Gateway, GatewayConfig, PphcrServer
from repro.pipeline.messaging import HISTORY_SIZE, MessageBus


def test_history_is_bounded_and_the_counter_stays_exact():
    bus = MessageBus()
    for index in range(3 * HISTORY_SIZE):
        bus.publish("orphan.topic", {"index": index})
    recent = bus.published_messages()
    assert len(recent) == HISTORY_SIZE
    assert [message.body["index"] for message in recent] == list(
        range(2 * HISTORY_SIZE, 3 * HISTORY_SIZE)
    )
    assert len(bus.dead_letter_records()) == HISTORY_SIZE
    assert bus.dead_letters() == recent
    # Attached after the rings overflowed, the counter still sees every event.
    registry = MetricsRegistry()
    bus.attach_metrics(registry)
    counter = registry.counter("bus_dead_letters_total", labels=("topic", "reason"))
    assert counter.labels(topic="orphan.topic", reason="no_subscriber").value == 3 * HISTORY_SIZE
    bus.publish("orphan.topic", {})
    assert counter.labels(topic="orphan.topic", reason="no_subscriber").value == 3 * HISTORY_SIZE + 1


def test_handler_error_survives_a_full_ring_of_unsubscribed_traffic():
    bus = MessageBus()

    def crashing_consumer(message):
        raise RuntimeError("consumer down")

    bus.subscribe("flaky.topic", crashing_consumer)
    bus.publish("flaky.topic", {"id": "rare"})
    for index in range(HISTORY_SIZE + 10):
        bus.publish("orphan.topic", {"index": index})

    flaky = bus.dead_letter_records("flaky.topic")
    assert [(record.reason, record.handler) for record in flaky] == [
        ("handler_error", crashing_consumer.__qualname__),
        ("all_handlers_failed", None),
    ]
    assert "consumer down" in flaky[0].error
    # Merged back into publish order: the rare failure comes first.
    records = bus.dead_letter_records()
    assert records[:2] == flaky
    assert len(records) == 2 + HISTORY_SIZE
    assert records[-1].message.body == {"index": HISTORY_SIZE + 9}
    assert bus.dead_letters()[0].body == {"id": "rare"}


def test_concurrent_publishers_keep_counts_exact_and_readers_safe():
    # Callers publish from their own threads while readers walk the
    # history: no event may be lost from the tally, and no read may fail.
    bus = MessageBus()
    writers, per_writer = 8, 4000
    read_errors = []
    done = threading.Event()

    def write(index):
        for _ in range(per_writer):
            bus.publish(f"orphan.{index % 2}", {})

    def read():
        while not done.is_set():
            try:
                bus.dead_letter_records()
                bus.published_messages("orphan.0")
            except RuntimeError as exc:  # a ring or dict mutated mid-walk
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
    registry = MetricsRegistry()
    bus.attach_metrics(registry)
    counter = registry.counter("bus_dead_letters_total", labels=("topic", "reason"))
    total = sum(
        counter.labels(topic=f"orphan.{parity}", reason="no_subscriber").value
        for parity in (0, 1)
    )
    assert total == writers * per_writer


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
    bus = server.bus

    def drive(start, stop):
        for index in range(start, stop):
            clock["now"] += 0.01
            method, path, body_json, query = _soak_request(index)
            status, _, _ = gateway.handle_wire(method, path, body_json, query=query)
            assert status == (404 if index % 4 == 2 else 201 if index % 4 == 0 else 200)

    drive(0, 10_000)
    halfway = (len(bus.published_messages()), len(bus.dead_letter_records()))
    drive(10_000, 20_000)
    end = (len(bus.published_messages()), len(bus.dead_letter_records()))

    assert halfway == end == (HISTORY_SIZE, HISTORY_SIZE)
    assert bus.published_messages("api.request") == []
    counters = server.telemetry.metrics_snapshot()["counters"]
    requests = counters["api_requests_total"]["series"]
    assert sum(entry["value"] for entry in requests) == 20_000
    dead = {
        (entry["labels"]["topic"], entry["labels"]["reason"]): entry["value"]
        for entry in counters["bus_dead_letters_total"]["series"]
    }
    assert dead == {("user.registered", "no_subscriber"): 5_000}
