"""Streaming mobility mining: incremental trip sessionization, stay-point
and cluster maintenance, and sharded compaction.

The batch miner (:mod:`repro.trajectory`: ``split_into_trips`` +
``stay_points_from_trips`` + ``cluster_trips``) re-mines a user's entire
GPS history.  This package maintains the same mobility models *online* and
is the server's only miner (the batch functions remain its test oracle):
fixes stream through the :class:`TripSessionizer` (gap/dwell closing rules
identical to ``split_into_trips``), completed trips fold into the
:class:`IncrementalMobilityModel` (grid-indexed stay-point assignment and
spawning, route-cluster maintenance through an (origin, destination)
cluster index with signature-cached coherence, dirty/epoch drift repair),
and the :class:`ShardedCompactor` visits only dirty users under a per-pass
budget — turning compaction from O(users × history²) into O(new fixes).
See ``docs/ARCHITECTURE.md`` for the full ingest data flow and the
invariants each class maintains.
"""

from repro.streaming.compactor import CompactionConfig, CompactionReport, ShardedCompactor
from repro.streaming.engine import StreamingConfig, StreamingMobilityEngine
from repro.streaming.sharded import ShardedStreamingEngine
from repro.streaming.incremental import (
    IncrementalConfig,
    IncrementalMobilityModel,
    MobilitySnapshot,
)
from repro.streaming.sessionizer import SessionizerConfig, TripSessionizer

__all__ = [
    "CompactionConfig",
    "CompactionReport",
    "IncrementalConfig",
    "IncrementalMobilityModel",
    "MobilitySnapshot",
    "SessionizerConfig",
    "ShardedCompactor",
    "ShardedStreamingEngine",
    "StreamingConfig",
    "StreamingMobilityEngine",
    "TripSessionizer",
]
