"""The machine's current interpreter speed, from a fixed reference routine.

The benchmark runs on shared sandboxes whose interpreter speed drifts by
up to ~1.8x over minutes (other tenants on the same cores).  A replay
therefore times a fixed slice of interpreter work like the server's own
— small objects, dicts, float math, a sort and a JSON round trip —
between requests, and reports its throughput and latencies at
:data:`REFERENCE_S`: a latency measured while the routine took twice its
reference time is reported at half.  Set-up and recovery run outside the
replay, where no samples are taken, and are reported as measured.  Raw
values are printed next to scaled ones.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import List

#: Reference time of one :func:`reference_work` call: its median in the
#: fast periods of a 2-core Xeon sandbox, so scaled figures read as on
#: that machine at its best.  Only a unit: it rescales every figure alike.
REFERENCE_S = 0.85e-3


class _Item:
    __slots__ = ("clip_id", "score", "start_s")

    def __init__(self, clip_id: str, score: float, start_s: float) -> None:
        self.clip_id = clip_id
        self.score = score
        self.start_s = start_s


def reference_work() -> float:
    """Run the reference routine once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    items = [_Item(f"clip-{i:06d}", (i * 37 % 101) / 101.0, 1000.0 + 60.0 * i) for i in range(150)]
    buckets: dict = {}
    for item in items:
        buckets.setdefault(item.clip_id[-1], []).append(item)
    total = 0.0
    for _ in range(8):
        for item in items:
            total += math.exp(-item.score) * math.hypot(item.start_s, item.score)
        ranked = sorted(items, key=lambda item: (item.score, item.clip_id), reverse=True)
        body = json.dumps(
            {"items": [{"clip_id": i.clip_id, "score": round(i.score, 4)} for i in ranked[:20]]},
            separators=(",", ":"),
        )
        total += len(json.loads(body)["items"]) + len(buckets[ranked[0].clip_id[-1]])
    return time.perf_counter() - t0


class Speedometer:
    """Reference-routine samples taken during measured work."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """Take one sample; returns the wall time it took."""
        taken = reference_work()
        self.samples.append(taken)
        return taken

    def slowdown(self, since: int = 0) -> float:
        """Median sample (from index ``since``) over the reference time."""
        return statistics.median(self.samples[since:]) / REFERENCE_S
