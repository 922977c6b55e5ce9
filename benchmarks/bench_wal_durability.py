"""PERF — WAL durability: append overhead on the serving path, and
recovery time of snapshot + log tail vs. full client re-ingest.

Two claims, both over the concurrent-serving bench's mixed wire-level
workload (buffered drive uploads, feedback posts, cold and conditional
recommendation reads, merged listings):

* **append overhead** — serving with the write-ahead log on (every
  committed write framed, checksummed and appended) must cost less than
  ``OVERHEAD_CEILING_PCT`` over the identical durability-off drive.  The
  parity half of the claim is asserted first: the WAL observes writes, it
  never changes them, so both servers' end states are identical.
* **recovery time** — after a mid-drive snapshot and a crash at the end
  of the drive, restoring snapshot + WAL tail must be compared against
  the alternative the WAL replaces: rebuilding the server and re-ingesting
  the *entire* request stream from clients.  The survivor's end state is
  asserted identical to the primary's.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_wal_durability.py -q
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

from conftest import format_table, write_result

from bench_concurrent_serving import (
    WIRE_IO_S,
    assert_end_state_equal,
    build_server,
    build_workload,
    execute_op,
    run_serial,
)

from repro.pipeline import Gateway, PphcrServer
from repro.storage import DurabilityConfig

#: Hard budget on the WAL's cost over the identical no-WAL wire drive.
OVERHEAD_CEILING_PCT = 10.0
#: Best-of rounds per configuration (the wire sleep dominates; a couple
#: of rounds is enough to shake scheduler noise out of the comparison).
ROUNDS = 2


def _durability(directory) -> DurabilityConfig:
    return DurabilityConfig(enabled=True, directory=str(directory))


# Append overhead ----------------------------------------------------------


def run_overhead_phase(
    payloads, ops, wal_root
) -> Tuple[float, float, float, PphcrServer]:
    """Timed durability-off vs. durability-on serial drives.

    Returns ``(best_off, best_on, overhead_pct, durable_server)``; the
    durable server's WAL stats feed the smoke artifact.  End states are
    asserted identical before any timing is believed.
    """
    best_off = float("inf")
    server_off = gateway_off = None
    for _ in range(ROUNDS):
        server, gateway = build_server(1)
        elapsed, _latencies = run_serial(gateway, payloads, ops)
        if elapsed < best_off:
            best_off, server_off, gateway_off = elapsed, server, gateway

    best_on = float("inf")
    server_on = gateway_on = None
    for round_index in range(ROUNDS):
        server, gateway = build_server(
            1, durability=_durability(wal_root / f"overhead-{round_index}")
        )
        elapsed, _latencies = run_serial(gateway, payloads, ops)
        if elapsed < best_on:
            best_on, server_on, gateway_on = elapsed, server, gateway

    # The WAL observes the write path; it must not change it.
    assert_end_state_equal(server_off, gateway_off, server_on, gateway_on)
    overhead_pct = (best_on - best_off) / best_off * 100.0
    return best_off, best_on, overhead_pct, server_on


# Recovery time ------------------------------------------------------------


def run_recovery_phase(payloads, ops, wal_root) -> Dict[str, float]:
    """Snapshot + tail restore vs. full re-ingest, both timed (no sleeps).

    A durable primary serves the stream, snapshotting halfway — so the
    WAL tail carries the second half of the drive.  Recovery A restores
    the snapshot and replays the tail; recovery B rebuilds a server and
    re-dispatches every request from the clients.  A must equal the
    primary exactly.
    """
    directory = wal_root / "recovery"
    server, gateway = build_server(1, durability=_durability(directory))
    etags: Dict[str, str] = {}
    mid = len(ops) // 2
    for op in ops[:mid]:
        execute_op(gateway, payloads, op, etags)
    durable = json.loads(json.dumps(server.snapshot()))
    assert "wal_lsn" in durable
    for op in ops[mid:]:
        execute_op(gateway, payloads, op, etags)
    tail_frames = server.durability.last_lsn - durable["wal_lsn"]
    assert tail_frames > 0, "the drive past the snapshot must have logged frames"

    # Recovery A: a fresh process restores snapshot + WAL tail.
    start = time.perf_counter()
    survivor = PphcrServer(config=server.config)
    survivor.restore_snapshot(durable, replay_log=True)
    recovery_elapsed = time.perf_counter() - start
    assert_end_state_equal(server, gateway, survivor, Gateway(survivor))

    # Recovery B: what the WAL replaces — rebuild and re-ingest everything.
    start = time.perf_counter()
    _fresh_server, fresh_gateway = build_server(1)
    fresh_etags: Dict[str, str] = {}
    for op in ops:
        execute_op(fresh_gateway, payloads, op, fresh_etags)
    reingest_elapsed = time.perf_counter() - start

    return {
        "recovery_elapsed_s": recovery_elapsed,
        "reingest_elapsed_s": reingest_elapsed,
        "recovery_speedup": reingest_elapsed / recovery_elapsed,
        "tail_frames": tail_frames,
        "snapshot_lsn": durable["wal_lsn"],
    }


# The benchmark ------------------------------------------------------------


def test_perf_wal_durability(benchmark, tmp_path):
    payloads, ops = build_workload()

    best_off, best_on, overhead_pct, server_on = benchmark.pedantic(
        run_overhead_phase, args=(payloads, ops, tmp_path), rounds=1, iterations=1
    )
    assert overhead_pct < OVERHEAD_CEILING_PCT, (
        f"WAL append overhead {overhead_pct:.2f}% exceeds the "
        f"{OVERHEAD_CEILING_PCT:.0f}% budget "
        f"({best_on * 1000.0:.0f}ms vs {best_off * 1000.0:.0f}ms "
        f"for {len(ops)} mixed requests)"
    )

    recovery = run_recovery_phase(payloads, ops, tmp_path)
    wal_stats = server_on.durability.stats()
    frames = sum(log["frames"] for log in wal_stats["logs"].values())
    wal_bytes = sum(log["bytes"] for log in wal_stats["logs"].values())

    rows: List[Dict[str, object]] = [
        {
            "configuration": "durability off",
            "elapsed_ms": f"{best_off * 1000.0:.0f}",
            "throughput": f"{len(ops) / best_off:.0f} req/s",
        },
        {
            "configuration": "durability on (WAL)",
            "elapsed_ms": f"{best_on * 1000.0:.0f}",
            "throughput": f"{len(ops) / best_on:.0f} req/s",
        },
    ]
    lines = format_table(rows)
    lines.append("")
    lines.append(
        f"WAL append overhead: {overhead_pct:+.2f}% "
        f"(budget {OVERHEAD_CEILING_PCT:.0f}%, {frames} frames, "
        f"{wal_bytes} bytes, wire transfer {WIRE_IO_S * 1000.0:.1f}ms/request)"
    )
    lines.append(
        f"recovery: snapshot + {recovery['tail_frames']}-frame tail in "
        f"{recovery['recovery_elapsed_s'] * 1000.0:.0f}ms vs full re-ingest "
        f"{recovery['reingest_elapsed_s'] * 1000.0:.0f}ms "
        f"({recovery['recovery_speedup']:.1f}x)"
    )
    write_result("wal_durability", lines)
    benchmark.extra_info["overhead_pct"] = round(overhead_pct, 2)
    benchmark.extra_info["recovery_speedup"] = round(
        recovery["recovery_speedup"], 2
    )
    print("\n".join(lines))
