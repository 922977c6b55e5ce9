#!/usr/bin/env python3
"""Request-path benchmark of the PPHCR server: wire to WAL, no simulated sleep.

Usage, from the repository root::

    python3 perfbench/run.py --workload commute --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

One run builds the workload's seeded world (see ``workloads.py``),
generates its wire script, and replays the script through
``Gateway.handle_wire`` closed-loop from this one client thread for
``--seconds`` (or until the script ends).  The gateway's rate-limit clock
reads each request's scripted arrival time.  Outputs are checked; a
failed check makes the run exit 1.

``--trace 0`` prints the end-to-end metrics, with the replay's throughput
and latencies scaled to the reference speed of ``speed.py`` (raw values
are printed beside them).
``--trace 1`` instead wraps each layer's public calls (``spans.py``),
replays traced, prints every layer's self time with the unattributed
residual, then replays the same number of requests untraced on a second
world to report the tracing overhead.  ``--workload all`` runs each
workload in its own interpreter.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("commute", "ingest", "browse")

#: Setups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Recoveries per run; the traced run's ``recovery_s`` is the fastest.  A
#: recovery is one long operation that interference on a shared machine
#: only slows down, so its fastest run is the steadiest estimate of its
#: cost; still, its spread between runs here (0.1-0.4 of the median) is
#: too wide for an end-to-end bound, so it is a per-layer figure.
RECOVERIES = 5
#: Wall time between two reference-routine samples during a replay.
SAMPLE_EVERY_S = 0.1
#: Latency percentiles per request class: the median and a tail that every
#: workload has ten samples beyond in a 10 s run even with the machine at
#: 60% speed (commute has the fewest: ~350 ticks and ~900 batches).
PERCENTILES = {"req": (50, 90), "rec": (50, 90), "ingest": (50, 90)}


CURSOR_DECODER = json.JSONDecoder()


class ScriptClock:
    """The gateway's clock: the scripted arrival time of the current request."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def percentile(samples: List[float], pct: int) -> Optional[float]:
    """Nearest-rank percentile, or None without ten samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


class Replay:
    """Outcome of one replay of a script prefix."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = {name: [] for name in PERCENTILES}
        self.sent = 0
        self.failures: List[str] = []
        self.statuses: Dict[str, Dict[int, int]] = {}
        self.digest = hashlib.sha256()
        self.rec_bodies: List[str] = []
        self.conditional = 0
        self.not_modified = 0
        self.rate_limited = 0
        self.last_t_s = 0.0
        #: Wall time of the replay, not counting reference-routine samples.
        self.wall_s = 0.0
        self.sampled_s = 0.0
        self.phase = (0.0, 0.0)

    @property
    def failed(self) -> int:
        return len(self.failures)


def replay(world, gateway, script, clock, shape, *, seconds=None, limit=None, recorder=None,
           speed=None):
    """Send scripted requests in order until the deadline, limit or end.

    With a ``speed`` meter, a reference-routine sample is taken between
    requests every ``SAMPLE_EVERY_S``; sample time is left out of the
    replay's wall time and pushes the deadline back by as much.
    """
    from workloads import EXPECTED_STATUS, REC_KINDS

    server = world.server
    handle_wire = gateway.handle_wire
    clock_now = time.perf_counter
    out = Replay()
    etags: Dict[str, str] = {}
    cursors: Dict[str, str] = {}
    every = shape.maintenance_every_s
    next_tick = script[0].t_s + every if every and script else math.inf
    events = script if limit is None else script[:limit]
    start = clock_now()
    deadline = start + seconds if seconds is not None else math.inf
    next_sample = start if speed is not None else math.inf
    if recorder is not None:
        recorder.active = True
    for index, event in enumerate(events):
        now = clock_now()
        if now >= next_sample:
            spent = speed.sample()
            out.sampled_s += spent
            deadline += spent
            now = clock_now()
            next_sample = now + SAMPLE_EVERY_S
        if now >= deadline:
            break
        if event.t_s >= next_tick:
            while event.t_s >= next_tick:
                next_tick += every
            if recorder is not None:
                recorder.request_id = -1
            server.maintenance_tick()
        clock.now = event.t_s
        headers = None
        if event.etag_key is not None:
            tag = etags.get(event.etag_key)
            if tag is not None:
                headers = {"if-none-match": tag}
                out.conditional += 1
        query = event.query
        if event.cursor_key is not None:
            cursor = cursors.get(event.cursor_key)
            if cursor is not None:
                query = dict(query or {}, cursor=cursor)
        if recorder is not None:
            recorder.request_id = index
        t0 = clock_now()
        status, body, response_headers = handle_wire(
            event.method, event.path, event.body_json, query=query, headers=headers
        )
        latency = clock_now() - t0
        out.sent += 1
        out.last_t_s = event.t_s
        out.digest.update(f"{status} {body}\n".encode("utf-8"))
        out.latencies["req"].append(latency)
        kind = event.kind
        per_kind = out.statuses.setdefault(kind, {})
        per_kind[status] = per_kind.get(status, 0) + 1
        if status not in EXPECTED_STATUS[kind]:
            out.failures.append(f"#{index} {event.method} {event.path}: {status} {body[:160]}")
            if status == 429:
                out.rate_limited += 1
            continue
        if status == 304:
            out.not_modified += 1
        if kind == "ingest":
            out.latencies["ingest"].append(latency)
        elif kind in REC_KINDS and status == 200:
            out.latencies["rec"].append(latency)
            out.rec_bodies.append(body)
        if event.etag_key is not None and "etag" in response_headers:
            etags[event.etag_key] = response_headers["etag"]
        if event.cursor_key is not None:
            # next_cursor is the body's last key: decode just its value.
            at = body.rfind('"next_cursor":') + len('"next_cursor":')
            next_cursor = CURSOR_DECODER.raw_decode(body, at)[0]
            if next_cursor is None:
                cursors.pop(event.cursor_key, None)
            else:
                cursors[event.cursor_key] = next_cursor
    end = clock_now()
    if recorder is not None:
        recorder.active = False
    out.wall_s = end - start - out.sampled_s
    out.phase = (start, end)
    return out


def check_plans(name: str, rec_bodies: List[str]) -> List[str]:
    """Workload-specific checks on the recommendation bodies answered 200."""
    problems: List[str] = []
    producing = 0
    for raw in rec_bodies:
        body = json.loads(raw)
        items = body["items"]
        if body["proactive"] != bool(items):
            problems.append(f"proactive={body['proactive']} with {len(items)} items")
        if items:
            producing += 1
        for prev, item in zip(items, items[1:]):
            if item["start_s"] < prev["start_s"] + prev["duration_s"] - 1e-6:
                problems.append(f"plan items out of order or overlapping for {body['user_id']}")
        if name == "browse" and body["proactive"]:
            problems.append(f"listener {body['user_id']} at home got a proactive plan")
    if name == "commute" and rec_bodies and producing == 0:
        problems.append("no recommendation read produced a plan (catalogue aged out?)")
    if name == "commute" and not rec_bodies:
        problems.append("no recommendation read answered 200")
    return problems[:20]


def check_recovery(world, gateway, clock, script, start: int, shape):
    """Checkpoint, write a fixed WAL tail, then recover fresh servers from both.

    Forces a checkpoint, replays the ``recovery_tail`` scripted requests
    from ``start`` unmeasured, and drops the live server as after a crash
    (so its heap does not slow the collector during the restores).  Each
    fresh server restores the checkpoint plus the WAL tail.  Returns the
    recovery times, the parts of the last survivor's state fingerprint that
    differ from the live server's, and the tail's request failures.
    """
    from repro.loadgen.invariants import state_fingerprint
    from repro.pipeline.server import PphcrServer

    world.server.durability.maybe_compact(world.server, force=True)
    tail = replay(world, gateway, script[start:], clock, shape, limit=shape.recovery_tail)
    now_s = (tail.last_t_s if tail.sent else script[start - 1].t_s) + 1.0
    user_ids = sorted(world.server.users.user_ids())
    live = state_fingerprint(world.server, user_ids=user_ids, now_s=now_s)
    city, config = world.city, world.server.config
    tear_down(world)
    world = gateway = None
    times: List[float] = []
    survivor = None
    for _ in range(RECOVERIES):
        survivor = None
        gc.collect()
        t0 = time.perf_counter()
        survivor = PphcrServer(city=city, config=config)
        checkpoint = survivor.durability.load_checkpoint()
        survivor.restore_snapshot(checkpoint["snapshot"], replay_log=True)
        times.append(time.perf_counter() - t0)
    recovered = state_fingerprint(survivor, user_ids=user_ids, now_s=now_s)
    differing = sorted(part for part in live if recovered[part] != live[part])
    return times, differing, tail.failures[:20]


def tear_down(world) -> None:
    """Stop the world's shard workers (its WAL handles close with it)."""
    pool = world.server.workers
    if pool is not None:
        pool.shutdown()


def run_workload(args) -> int:
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import workloads
        from spans import Recorder
        from speed import Speedometer
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    name = args.workload
    shape = (workloads.SMALL_SHAPES if args.small else workloads.SHAPES)[name]
    work = ROOT / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, name, shape, work, workloads, Recorder, Speedometer())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _build(name, shape, seed, work, index, workloads):
    """Set up one world; returns it with its gateway, clock and setup time."""
    clock = ScriptClock()
    config = workloads.world_config(name, shape, seed, str(work / f"wal{index}"))
    t0 = time.perf_counter()
    world, gateway = workloads.set_up(config, clock)
    return world, gateway, clock, time.perf_counter() - t0


def _run(args, name, shape, work, workloads, Recorder, speed) -> int:
    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.install()
    world, gateway, clock, first_setup_s = _build(name, shape, args.seed, work, 0, workloads)
    t0 = time.perf_counter()
    script = workloads.SCRIPTS[name](world, shape, args.seed)
    script_s = time.perf_counter() - t0
    before = layer_counters(world.server) if recorder else None
    mark = len(speed.samples)
    result = replay(world, gateway, script, clock, shape, seconds=args.seconds,
                    recorder=recorder, speed=speed)
    slowdown = speed.slowdown(mark)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if recorder is not None:
        layers = recorder.breakdown(*result.phase, excluded_s=result.sampled_s)
        layers.update(layer_deltas(before, layer_counters(world.server)))
        layers["gateway.conditional"] = result.conditional
        layers["gateway.not_modified"] = result.not_modified
        layers["gateway.rate_limited"] = result.rate_limited
        recorder.uninstall()

    problems = list(result.failures[:20])
    problems += check_plans(name, result.rec_bodies)
    fsync, script_events = world.server.config.durability.fsync, len(script)
    tear_down(world)
    world = gateway = script = None
    gc.collect()

    if recorder is None:
        # Set up twice more for setup_s.  Recovery runs on the first extra
        # world: its checkpoint plus the script's first ``recovery_tail``
        # requests, a state that does not depend on how far the measured
        # replay got.
        setups = [first_setup_s]
        for index in range(1, SETUPS):
            extra, extra_gateway, extra_clock, seconds = _build(
                name, shape, args.seed, work, index, workloads
            )
            setups.append(seconds)
            if index == 1:
                extra_script = workloads.SCRIPTS[name](extra, shape, args.seed)
                recoveries, differing, tail_failures = check_recovery(
                    extra, extra_gateway, extra_clock, extra_script, 0, shape
                )
                extra_script = None
            else:
                tear_down(extra)
            extra = extra_gateway = None
            gc.collect()
    else:
        trace_dir = ROOT / ".perfbench_traces"
        trace_dir.mkdir(exist_ok=True)
        spans_written = recorder.write(trace_dir / f"{name}-seed{args.seed}.jsonl.gz")
        recorder.clear()
        # Throughput in work per reference time, so the two replays compare
        # even when the machine's speed changed between them.
        traced_rate = result.sent / result.wall_s * slowdown
        world, gateway, clock, _setup_s = _build(name, shape, args.seed, work, 1, workloads)
        script = workloads.SCRIPTS[name](world, shape, args.seed)
        plain_mark = len(speed.samples)
        plain = replay(world, gateway, script, clock, shape, limit=result.sent, speed=speed)
        untraced_rate = plain.sent / plain.wall_s * speed.slowdown(plain_mark)
        recoveries, differing, tail_failures = check_recovery(
            world, gateway, clock, script, plain.sent, shape
        )
        world = gateway = script = None
    problems += tail_failures
    # Recommendations read the mobility models, which a live server may
    # still serve from setup-time batch caches that snapshots leave out
    # while a recovered one serves the streaming models; every other part
    # is durable state and must match on every workload.
    durable = [part for part in differing if part != "recommendations"]
    if durable or (differing and name == "ingest"):
        problems.append(f"recovered server's state fingerprint differs in {differing}")

    print(f"workload {name}: seed {args.seed}, shape {shape}")
    print(f"closed loop, one client thread, no simulated sleep; WAL on, fsync={fsync}")
    print(f"requests: sent {result.sent}, succeeded {result.sent - result.failed}, "
          f"failed {result.failed}, script {script_events}, "
          f"{'script exhausted' if result.sent == script_events else 'deadline reached'}")
    print(f"statuses: {json.dumps({k: result.statuses[k] for k in sorted(result.statuses)})}")
    print(f"responses digest: {result.digest.hexdigest()}")
    print(f"phases: script {script_s:.2f} s, replay {result.wall_s:.2f} s, "
          f"recoveries {', '.join(f'{t:.2f}' for t in recoveries)} s")
    print(f"speed: reference routine {slowdown:.3f}x its nominal time during the replay "
          f"({result.sampled_s:.2f} s of samples)")
    print(f"recovered state fingerprint: "
          f"{'differs in ' + ', '.join(differing) if differing else 'equal to the live one'}")
    plans = sum(1 for body in result.rec_bodies if '"proactive":true' in body)
    print(f"recommendation reads answered 200: {len(result.rec_bodies)}, with a plan: {plans}")
    attempted, failed = result.sent, result.failed

    if recorder is not None:
        layers["trace_overhead_pct"] = (untraced_rate - traced_rate) / untraced_rate * 100.0
        layers["trace.missing_targets"] = len(recorder.missing)
        layers["recovery_s"] = min(recoveries)
        layers["wal.frames"] = layers["wal.append.calls"]
        accepted = layers["users.fixes_accepted"]
        layers["wal.bytes_per_fix"] = layers["wal.bytes"] / accepted if accepted else 0.0
        for target in recorder.missing:
            print(f"missing wrap target: {target}")
        print(f"spans written: {spans_written}")
        metrics = {key: layer_unit(key, value) for key, value in sorted(layers.items())}
    else:
        print(f"setups: {', '.join(f'{t:.2f}' for t in setups)} s")
        raw = end_to_end(result, 1.0, setups, peak_rss_mb)
        print("raw: " + ", ".join(f"{key} {entry['value']:.6g}" for key, entry in raw.items()))
        metrics = end_to_end(result, slowdown, setups, peak_rss_mb)

    for key, entry in metrics.items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def end_to_end(result: Replay, slowdown, setups, peak_rss_mb) -> Dict[str, dict]:
    """End-to-end metrics; the replay's throughput and latencies are scaled
    by its ``slowdown``, set-up and recovery times are as measured."""
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "throughput_rps": {"value": result.sent / result.wall_s * slowdown, "unit": "1/s"},
    }
    for cls, percentiles in PERCENTILES.items():
        for pct in percentiles:
            value = percentile(result.latencies[cls], pct)
            if value is not None:
                metrics[f"{cls}_p{pct}_ms"] = {"value": value * 1000.0 / slowdown, "unit": "ms"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return metrics


def layer_counters(server) -> dict:
    """Storage and worker-pool counters read through their public stats()."""
    databases = [
        server.content.database,
        server.users.profiles_database,
        server.users.feedback.database,
        server.users.tracking.database,
    ]
    index_hits = scans = writes = 0
    for database in databases:
        stats = database.stats()
        index_hits += stats["index_hits"]
        scans += stats["scans"]
        for table in stats["tables"].values():
            writes += table["inserts"] + table["updates"] + table["deletes"]
    pool = server.workers
    busy = [shard["busy_s"] for shard in pool.stats()["shards"]] if pool is not None else []
    return {"index_hits": index_hits, "scans": scans, "writes": writes, "busy": busy}


def layer_deltas(before: dict, after: dict) -> Dict[str, float]:
    busy = [b - a for a, b in zip(before["busy"], after["busy"])] or [0.0]
    mean_busy = sum(busy) / len(busy)
    return {
        "storage.index_hits": after["index_hits"] - before["index_hits"],
        "storage.scans": after["scans"] - before["scans"],
        "storage.writes": after["writes"] - before["writes"],
        "pool.busy_ms": sum(busy) * 1000.0,
        "pool.imbalance": max(busy) / mean_busy if mean_busy > 0 else 0.0,
    }


def layer_unit(key: str, value: float) -> dict:
    if key.endswith("_ms"):
        unit = "ms"
    elif key.endswith("_pct"):
        unit = "%"
    elif key == "recovery_s":
        unit = "s"
    elif key.startswith("wal.bytes"):
        unit = "bytes"
    elif key == "pool.imbalance":
        unit = "ratio"
    else:
        unit = "count"
    return {"value": value, "unit": unit}


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--small"] if args.small else [])
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 2
        result = json.loads(lines[-1])
        status = max(status, child.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny worlds, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
