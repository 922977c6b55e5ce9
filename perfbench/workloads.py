"""Seeded worlds and wire scripts for the request-path benchmark.

Each workload is a :class:`Shape` (world size, live days, request mix) plus
a script generator.  A script is the whole closed-loop client session,
generated from the world and the seed before any timing starts: every
request's method, path, query and canonical JSON body are fixed up front.
The only client state the replay keeps is what an HTTP client would keep:
the last ``ETag`` seen per resource (sent back as ``If-None-Match``) and
the ``next_cursor`` of each page walk.

The mixes are synthetic scale-ups of the ``repro.loadgen`` scenario shapes
(rush hour's windowed multi-user batches, flash crowd's item reads and
catalogue walks, handover's clip fetches); no production traces exist.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.datasets.broadcaster import BroadcasterConfig
from repro.datasets.mobility import CommuterConfig
from repro.datasets.world import SyntheticWorld, WorldConfig, build_world
from repro.pipeline.gateway.gateway import Gateway, GatewayConfig
from repro.pipeline.server import ServerConfig
from repro.storage.wal import DurabilityConfig
from repro.streaming.compactor import CompactionConfig
from repro.util.timeutils import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: Request kinds and the statuses each may answer with.  Anything else —
#: a 5xx, a 429, a 4xx — fails the run.
EXPECTED_STATUS: Dict[str, Tuple[int, ...]] = {
    "ingest": (202,),
    "rec": (200,),
    "rec_poll": (200, 304),
    "feedback": (201,),
    "feedback_batch": (201,),
    "clips_page": (200,),
    "clip": (200, 304),
    "profile": (200, 304),
    "history": (200,),
}

#: Kinds whose 200 responses are recommendation reads where a tick ran.
REC_KINDS = ("rec", "rec_poll")


@dataclass(frozen=True)
class Shape:
    """The size and mix of one workload (recorded in BENCHMARK.json)."""

    users: int
    clips: int
    history_days: int
    live_days: int
    #: Upload window: how long a device buffers fixes before one batch.
    window_s: float
    #: Upload windows between two recommendation reads of a driving commuter.
    rec_every_windows: int = 1
    #: Per-log WAL size that triggers a checkpoint from maintenance_tick.
    compact_min_bytes: int = 64 * 1024 * 1024
    #: Simulated period of the benchmark's maintenance_tick timer (0: none).
    maintenance_every_s: float = 0.0
    keep_window_s: float = 14 * SECONDS_PER_DAY
    evening_sessions: int = 0
    #: Requests replayed, unmeasured, after a checkpoint and before the
    #: recoveries: the WAL tail they restore.
    recovery_tail: int = 0


SHAPES: Dict[str, Shape] = {
    "commute": Shape(
        users=20,
        clips=5000,
        history_days=7,
        live_days=6,
        window_s=10.0,
        rec_every_windows=12,
        recovery_tail=100,
    ),
    "ingest": Shape(
        users=50,
        clips=240,
        history_days=2,
        live_days=14,
        window_s=30.0,
        compact_min_bytes=320 * 1024,
        maintenance_every_s=600.0,
        keep_window_s=SECONDS_PER_DAY,
        recovery_tail=4000,
    ),
    "browse": Shape(
        users=100,
        clips=1500,
        history_days=3,
        live_days=10,
        window_s=0.0,
        evening_sessions=6,
        recovery_tail=5000,
    ),
}

#: A smaller shape per workload, for the benchmark's own tests.
SMALL_SHAPES: Dict[str, Shape] = {
    "commute": Shape(
        users=6,
        clips=400,
        history_days=4,
        live_days=1,
        window_s=10.0,
        rec_every_windows=12,
        recovery_tail=20,
    ),
    "ingest": Shape(
        users=8,
        clips=120,
        history_days=3,
        live_days=1,
        window_s=30.0,
        compact_min_bytes=64 * 1024,
        maintenance_every_s=600.0,
        keep_window_s=2 * SECONDS_PER_DAY,
        recovery_tail=200,
    ),
    "browse": Shape(
        users=6,
        clips=200,
        history_days=2,
        live_days=1,
        window_s=0.0,
        evening_sessions=2,
        recovery_tail=200,
    ),
}


@dataclass(frozen=True)
class Event:
    """One scripted request.

    ``etag_key`` names the client-side cache slot whose last ``ETag`` is
    sent as ``If-None-Match``; ``cursor_key`` names the page walk whose
    last ``next_cursor`` is sent as ``cursor`` (a finished walk restarts).
    """

    t_s: float
    kind: str
    method: str
    path: str
    body_json: Optional[str] = None
    query: Optional[Dict[str, str]] = None
    etag_key: Optional[str] = None
    cursor_key: Optional[str] = None


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def world_config(name: str, shape: Shape, seed: int, wal_dir: str) -> WorldConfig:
    """The seeded world of one workload.

    The road network keeps its default seed: it is the deployment, and a
    fixed city keeps drive lengths comparable across seeds.  Listeners,
    catalogue and feedback history all derive from ``seed``.
    """
    rng = random.Random(f"{name}:{seed}")
    return WorldConfig(
        seed=rng.randrange(1 << 30),
        broadcaster=BroadcasterConfig(seed=rng.randrange(1 << 30), clips_per_day=shape.clips),
        commuters=CommuterConfig(
            seed=rng.randrange(1 << 30),
            commuters=shape.users,
            history_days=shape.history_days,
        ),
        server=ServerConfig(
            compaction=CompactionConfig(keep_window_s=shape.keep_window_s),
            durability=DurabilityConfig(
                enabled=True, directory=wal_dir, compact_min_bytes=shape.compact_min_bytes
            ),
        ),
    )


def set_up(config: WorldConfig, clock) -> Tuple[SyntheticWorld, Gateway]:
    """Build the world and its gateway, then checkpoint the bulk load.

    The checkpoint makes recovery "checkpoint plus the measured phase's
    WAL tail" on every workload rather than a replay of the whole build.
    """
    world = build_world(config)
    gateway = Gateway(world.server, GatewayConfig(clock=clock))
    world.server.durability.maybe_compact(world.server, force=True)
    return world, gateway


def _fix_item(fix, *, with_user: bool) -> dict:
    item = {
        "lat": fix.position.lat,
        "lon": fix.position.lon,
        "timestamp_s": fix.timestamp_s,
        "speed_mps": fix.speed_mps,
        "accuracy_m": fix.accuracy_m,
    }
    if with_user:
        item["user_id"] = fix.user_id
    return item


def _drives(world: SyntheticWorld, shape: Shape):
    """(day, evening, commuter, fixes) for every live morning and evening drive."""
    generator = world.commuter_generator
    for day in range(world.today, world.today + shape.live_days):
        for reverse in (False, True):
            for commuter in world.commuters:
                drive = generator.live_drive(commuter, day=day, reverse=reverse)
                fixes = drive.fixes()
                if len(fixes) >= 2:
                    yield day, reverse, commuter, fixes


def _by_arrival(events: List[Event]) -> List[Event]:
    """Arrival order; the stable sort keeps generation order within a tie."""
    return sorted(events, key=lambda event: event.t_s)


def commute_script(world: SyntheticWorld, shape: Shape, seed: int) -> List[Event]:
    """Rush hour at full candidate load, over several live days.

    Every ``window_s`` one multi-user tracking batch carries every driving
    listener's buffered fixes; every ``rec_every_windows`` windows each of
    those listeners reads its recommendations; each arrival posts one
    feedback event.
    """
    rng = random.Random(f"commute-script:{seed}")
    clip_ids = sorted(world.clips_by_id)
    by_leg: Dict[Tuple[int, bool], Dict[str, list]] = {}
    for day, evening, commuter, fixes in _drives(world, shape):
        by_leg.setdefault((day, evening), {})[commuter.user_id] = fixes
    events: List[Event] = []
    for _leg, fixes_by_user in sorted(by_leg.items()):
        start = min(fixes[0].timestamp_s for fixes in fixes_by_user.values())
        end = max(fixes[-1].timestamp_s for fixes in fixes_by_user.values())
        w_start, window = start, 0
        while w_start <= end:
            w_end = w_start + shape.window_s
            window += 1
            in_window = {
                user_id: [f for f in fixes if w_start <= f.timestamp_s < w_end]
                for user_id, fixes in fixes_by_user.items()
            }
            driving = sorted(user_id for user_id, chunk in in_window.items() if chunk)
            if driving:
                items = [_fix_item(f, with_user=True) for u in driving for f in in_window[u]]
                events.append(Event(
                    w_end, "ingest", "POST", "/v1/tracking/batch", _canonical({"fixes": items})
                ))
                if window % shape.rec_every_windows == 0:
                    for user_id in driving:
                        events.append(Event(
                            w_end, "rec", "GET", f"/v1/recommendations/{user_id}",
                            query={"now_s": repr(w_end)},
                        ))
            w_start = w_end
        for user_id in sorted(fixes_by_user):
            arrival = fixes_by_user[user_id][-1].timestamp_s
            body = {
                "user_id": user_id,
                "content_id": rng.choice(clip_ids),
                "kind": "completed" if rng.random() < 0.7 else "like",
                "timestamp_s": arrival,
                "listened_s": round(rng.uniform(60.0, 240.0), 3),
            }
            events.append(Event(
                arrival, "feedback", "POST", "/v1/feedback", _canonical(body)
            ))
    return _by_arrival(events)


def ingest_script(world: SyntheticWorld, shape: Shape, seed: int) -> List[Event]:
    """The durable write path: per-device uploads and batched feedback.

    Each device uploads its own buffered fixes every ``window_s``; on
    arrival it posts a feedback batch and reads its recommendations, which
    refuse cheaply for a parked car, so the tick stays a minor share.
    """
    rng = random.Random(f"ingest-script:{seed}")
    clip_ids = sorted(world.clips_by_id)
    events: List[Event] = []
    for _day, _evening, commuter, fixes in _drives(world, shape):
        user_id = commuter.user_id
        t0 = fixes[0].timestamp_s
        chunks: Dict[int, list] = {}
        for fix in fixes:
            chunks.setdefault(int((fix.timestamp_s - t0) // shape.window_s), []).append(fix)
        upload_t = t0
        for index in sorted(chunks):
            upload_t = t0 + (index + 1) * shape.window_s
            body = {
                "user_id": user_id,
                "fixes": [_fix_item(f, with_user=False) for f in chunks[index]],
            }
            events.append(Event(
                upload_t, "ingest", "POST", "/v1/tracking/batch", _canonical(body)
            ))
        arrival = upload_t + 5.0
        feedback = [
            {
                "user_id": user_id,
                "content_id": rng.choice(clip_ids),
                "kind": rng.choice(("completed", "like", "skip")),
                "timestamp_s": arrival - 60.0 * slot,
                "listened_s": round(rng.uniform(20.0, 240.0), 3),
            }
            for slot in (2, 1)
        ]
        events.append(Event(
            arrival, "feedback_batch", "POST", "/v1/feedback/batch", _canonical({"events": feedback})
        ))
        events.append(Event(
            arrival + 1.0, "rec", "GET", f"/v1/recommendations/{user_id}",
            query={"now_s": repr(arrival + 1.0)},
        ))
    return _by_arrival(events)


def browse_script(world: SyntheticWorld, shape: Shape, seed: int) -> List[Event]:
    """The listener app at home in the evening, not driving.

    Each session uploads the phone's parked fixes, polls recommendations
    (revalidating), walks the catalogue by cursor, revalidates a few clip
    and profile reads, posts one feedback event and pages the feedback
    history.  Clip picks are skewed toward a popular head so revalidation
    hits repeat.
    """
    rng = random.Random(f"browse-script:{seed}")
    clip_ids = sorted(world.clips_by_id)
    weights = [1.0 / (rank + 1) for rank in range(len(clip_ids))]
    order = clip_ids[:]
    rng.shuffle(order)
    events: List[Event] = []

    def add(t: float, kind: str, method: str, path: str, **kwargs) -> None:
        events.append(Event(t, kind, method, path, **kwargs))

    for day in range(world.today, world.today + shape.live_days):
        evening = day * SECONDS_PER_DAY + 18 * SECONDS_PER_HOUR
        for commuter in world.commuters:
            user_id = commuter.user_id
            starts = sorted(
                evening + rng.uniform(0.0, 5 * SECONDS_PER_HOUR)
                for _ in range(shape.evening_sessions)
            )
            for start in starts:
                t = start
                parked = [
                    {
                        "lat": commuter.home.lat + rng.uniform(-4e-5, 4e-5),
                        "lon": commuter.home.lon + rng.uniform(-4e-5, 4e-5),
                        "timestamp_s": t - 30.0 * back,
                        "speed_mps": 0.0,
                        "accuracy_m": 12.0,
                    }
                    for back in (2, 1, 0)
                ]
                add(t, "ingest", "POST", "/v1/tracking/batch",
                    body_json=_canonical({"user_id": user_id, "fixes": parked}))
                rec_query = {"now_s": repr(t + 1.0)}
                add(t + 1.0, "rec_poll", "GET", f"/v1/recommendations/{user_id}",
                    query=rec_query, etag_key=f"rec:{user_id}")
                add(t + 2.0, "profile", "GET", f"/v1/users/{user_id}",
                    etag_key=f"profile:{user_id}")
                t += 3.0
                for _page in range(4):
                    add(t, "clips_page", "GET", "/v1/clips", query={"limit": "20"},
                        cursor_key=f"clips:{user_id}")
                    t += 4.0
                picks = rng.choices(order, weights=weights, k=6)
                for clip_id in picks:
                    add(t, "clip", "GET", f"/v1/clips/{clip_id}", etag_key=f"clip:{user_id}:{clip_id}")
                    t += 3.0
                add(t, "rec_poll", "GET", f"/v1/recommendations/{user_id}",
                    query={"now_s": repr(t)}, etag_key=f"rec:{user_id}")
                body = {
                    "user_id": user_id,
                    "content_id": picks[0],
                    "kind": rng.choice(("completed", "like", "skip")),
                    "timestamp_s": t + 1.0,
                    "listened_s": round(rng.uniform(20.0, 300.0), 3),
                }
                add(t + 1.0, "feedback", "POST", "/v1/feedback", body_json=_canonical(body))
                add(t + 2.0, "profile", "GET", f"/v1/users/{user_id}",
                    etag_key=f"profile:{user_id}")
                for _page in range(2):
                    t += 3.0
                    add(t, "history", "GET", f"/v1/users/{user_id}/feedback",
                        query={"limit": "10"}, cursor_key=f"history:{user_id}")
    return _by_arrival(events)


SCRIPTS = {"commute": commute_script, "ingest": ingest_script, "browse": browse_script}
