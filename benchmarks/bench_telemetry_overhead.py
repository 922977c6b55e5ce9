"""PERF — telemetry overhead: instrumented vs. no-op gateway drive.

The unified telemetry subsystem (``repro.obs``) keeps every call site in
place when disabled — the null registry/tracer turn each observation into
one attribute lookup plus a no-op call.  The enabled path is the one that
must stay cheap: per request it records one route-latency histogram
sample, one status-class counter increment, one trace with its spans, and
one ``(plan, elapsed, rows)`` observation per table query — a few
microseconds total (hot call sites cache their resolved label series, the
trace object is its own context manager, a histogram record is one bisect
plus integer adds).

This bench drives the *identical* mixed wire workload (the concurrent-
serving op stream: buffered drive uploads, feedback posts, cold and
conditional recommendation reads, merged listing walks) through two
otherwise-identical servers, serially:

* **instrumented** — the default ``TelemetryConfig()`` (registry, tracer,
  slow-query log all live);
* **no-op** — ``TelemetryConfig(enabled=False)`` (null objects behind the
  same call sites).

The asserted comparison is at the wire level: each request pays the same
client-link transfer wait the concurrent-serving bench models
(``WIRE_IO_S``, identical for both configurations) — what a served
request actually costs, and what the <5 % budget in
``docs/ARCHITECTURE.md`` is stated against.  Rounds alternate between the
two configurations and each side keeps its best time, so machine noise
hits both equally.  A second, sleep-free drive pair measures the pure-CPU
overhead; it is *reported* (``cpu_overhead_pct``) but not asserted — the
per-request cost is single-digit microseconds, far below this harness's
scheduler noise floor.

Correctness gates ride along: the instrumented server must have recorded
exactly one latency sample per request, and the no-op server's metrics
snapshot must be empty.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_telemetry_overhead.py -q
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from conftest import format_table, write_result

from bench_concurrent_serving import (
    SHARDS,
    WIRE_IO_S,
    build_server,
    build_workload,
    execute_op,
)
from repro.obs import TelemetryConfig
from repro.pipeline import PphcrServer

#: Best-of rounds per configuration (alternated, so noise is shared).
ROUNDS = 3
#: The documented telemetry budget: instrumented <= no-op * (1 + 5%).
OVERHEAD_CEILING_PCT = 5.0

INSTRUMENTED = TelemetryConfig()
NOOP = TelemetryConfig(enabled=False)


def run_drive(
    telemetry: TelemetryConfig,
    payloads: Dict[Tuple[str, int], str],
    ops,
    *,
    wire_io_s: float,
) -> Tuple[float, PphcrServer]:
    """Serve the whole op stream serially on a fresh server; time it."""
    server, gateway = build_server(SHARDS, telemetry=telemetry)
    etags: Dict[str, str] = {}
    start = time.perf_counter()
    for op in ops:
        execute_op(gateway, payloads, op, etags, wire_io_s=wire_io_s)
    return time.perf_counter() - start, server


def _best_of_alternated(
    payloads, ops, *, wire_io_s: float, rounds: int = ROUNDS
) -> Tuple[float, float, PphcrServer, PphcrServer]:
    """Alternate instrumented / no-op drives; best time per side."""
    instrumented_best = noop_best = float("inf")
    instrumented_server = noop_server = None
    for _ in range(rounds):
        elapsed, server = run_drive(
            INSTRUMENTED, payloads, ops, wire_io_s=wire_io_s
        )
        if elapsed < instrumented_best:
            instrumented_best, instrumented_server = elapsed, server
        elapsed, server = run_drive(NOOP, payloads, ops, wire_io_s=wire_io_s)
        if elapsed < noop_best:
            noop_best, noop_server = elapsed, server
    return noop_best, instrumented_best, instrumented_server, noop_server


def run_overhead_phase(payloads, ops):
    """The timed comparison plus its correctness gates.

    Returns ``(noop_s, instrumented_s, overhead_pct, cpu_overhead_pct,
    instrumented_server)`` where the first three are wire-level (asserted)
    and ``cpu_overhead_pct`` comes from sleep-free drive pairs
    (informational — microseconds per request, below the noise floor of a
    shared CI machine, hence reported rather than asserted).
    """
    noop_best, instrumented_best, server, noop_server = _best_of_alternated(
        payloads, ops, wire_io_s=WIRE_IO_S
    )

    # Correctness gates: the instrumented server recorded every request,
    # the no-op server recorded nothing at all.
    recorded = _request_count(server)
    assert recorded == len(ops), f"instrumented run recorded {recorded}/{len(ops)}"
    noop_snapshot = noop_server.telemetry.metrics_snapshot()
    assert noop_snapshot == {"counters": {}, "gauges": {}, "histograms": {}}, (
        "no-op registry not empty"
    )

    cpu_noop, cpu_instrumented, _server, _noop = _best_of_alternated(
        payloads, ops, wire_io_s=0.0
    )
    cpu_overhead_pct = (cpu_instrumented / cpu_noop - 1.0) * 100.0

    overhead_pct = (instrumented_best / noop_best - 1.0) * 100.0
    return noop_best, instrumented_best, overhead_pct, cpu_overhead_pct, server


def _request_count(server: PphcrServer) -> int:
    """Total ``api_request_seconds`` samples across every route."""
    histograms = server.telemetry.metrics_snapshot().get("histograms", {})
    series = histograms.get("api_request_seconds", {}).get("series", [])
    return sum(entry["count"] for entry in series)


def test_perf_telemetry_overhead(benchmark):
    payloads, ops = build_workload()
    (
        noop_best,
        instrumented_best,
        overhead_pct,
        cpu_overhead_pct,
        _server,
    ) = benchmark.pedantic(
        run_overhead_phase, args=(payloads, ops), rounds=1, iterations=1
    )

    assert overhead_pct < OVERHEAD_CEILING_PCT, (
        f"telemetry overhead {overhead_pct:.2f}% over the no-op path "
        f"(instrumented {instrumented_best * 1000.0:.0f}ms vs "
        f"no-op {noop_best * 1000.0:.0f}ms for {len(ops)} requests)"
    )

    rows: List[Dict[str, object]] = [
        {
            "configuration": "no-op (enabled=False)",
            "requests": len(ops),
            "elapsed_ms": f"{noop_best * 1000.0:.0f}",
            "throughput": f"{len(ops) / noop_best:.0f} req/s",
        },
        {
            "configuration": "instrumented (default)",
            "requests": len(ops),
            "elapsed_ms": f"{instrumented_best * 1000.0:.0f}",
            "throughput": f"{len(ops) / instrumented_best:.0f} req/s",
        },
    ]
    lines = format_table(rows)
    lines.append("")
    lines.append(
        f"telemetry overhead: {overhead_pct:+.2f}% at the wire level "
        f"(budget < {OVERHEAD_CEILING_PCT:.0f}%, wire transfer "
        f"{WIRE_IO_S * 1000.0:.1f}ms/request, best of {ROUNDS} alternated rounds); "
        f"pure-CPU drive: {cpu_overhead_pct:+.2f}% (informational)"
    )
    write_result("telemetry_overhead", lines)
    benchmark.extra_info["overhead_pct"] = round(overhead_pct, 2)
    benchmark.extra_info["cpu_overhead_pct"] = round(cpu_overhead_pct, 2)
    benchmark.extra_info["instrumented_req_per_s"] = round(len(ops) / instrumented_best, 1)
    benchmark.extra_info["noop_req_per_s"] = round(len(ops) / noop_best, 1)
    print("\n".join(lines))
