"""The content repository: clips, services, programmes and schedules.

This is the "Metadata DB" + "Content Repository" pair of the paper's server
architecture (Figure 3), backed by the in-memory relational substrate so the
recommender and the clip data management component query it the same way the
production system would query its databases.

Every secondary access path is a declarative
:class:`~repro.storage.spec.IndexSpec` on the metadata tables — the
publish-time ordering, the geo-tag grid and the kind/category buckets that
used to be hand-rolled sidecar structures (a sorted list, a parallel
``GridIndex``, a seq dict) are all maintained by the storage engine now,
and the paginated listings are thin delegations to the engine's keyset
cursors (:class:`~repro.storage.cursor.Page`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.content.model import AudioClip, ContentKind, LiveProgramme, RadioService
from repro.content.schedule import LinearSchedule
from repro.errors import DuplicateError, NotFoundError, ValidationError
from repro.geo import BoundingBox, GeoPoint, GridIndex
from repro.storage import Column, Database, IndexSpec, Schema
from repro.util.timeutils import TimeWindow

#: Version stamp of :meth:`ContentRepository.snapshot` payloads.
SNAPSHOT_VERSION = 1


class ContentRepository:
    """Registry of services, programmes, clips and per-service schedules."""

    def __init__(self) -> None:
        self._db = Database("content")
        self._clips_table = self._db.create_table(
            Schema(
                name="clips",
                primary_key="clip_id",
                columns=[
                    Column("clip_id", str),
                    Column("kind", str),
                    Column("primary_category", str, nullable=True),
                    Column("published_s", float, has_default=True, default=0.0),
                    Column("seq", int),
                    Column("lat", float, nullable=True),
                    Column("lon", float, nullable=True),
                ],
                indexes=[
                    IndexSpec("kind"),
                    IndexSpec("primary_category"),
                    # Publish-time ordering over (published_s, -seq): a
                    # descending walk (the newest-first listing) keeps clips
                    # published at the same instant in insertion order — the
                    # ordering a stable descending sort produces — and the
                    # stable ``seq`` column (not the storage row sequence)
                    # keeps that position across ``replace_clip``.
                    IndexSpec(
                        "published",
                        kind="sorted",
                        columns=("published_s", "seq"),
                        key=lambda row: (row["published_s"], -row["seq"]),
                    ),
                    # Geo-tag centres for route-pruned scoring; untagged
                    # clips (null lat/lon) are simply not indexed.
                    IndexSpec("geo", kind="spatial", columns=("lat", "lon"), cell_size_m=2000.0),
                ],
            )
        )
        self._services_table = self._db.create_table(
            Schema(
                name="services",
                primary_key="service_id",
                columns=[Column("service_id", str)],
                indexes=[IndexSpec("by_id", kind="sorted", columns=("service_id",))],
            )
        )
        self._clips: Dict[str, AudioClip] = {}
        #: Monotonic publish-tie sequence stored in the ``seq`` column — the
        #: publish-time index orders equal publish times by it.
        self._next_seq = 0
        self._services: Dict[str, RadioService] = {}
        self._programmes: Dict[str, LiveProgramme] = {}
        self._schedules: Dict[str, LinearSchedule] = {}
        #: Durability hook: the WAL records catalogue mutations as domain
        #: operations with *full* payloads (the metadata tables are lossy
        #: projections — no title/scores/transcript), so replay rebuilds
        #: the dict caches and tables identically via the public methods.
        self._op_listener = None

    @property
    def database(self) -> Database:
        """The metadata DB (exposed for dashboards and stats)."""
        return self._db

    @property
    def clips_version(self) -> int:
        """Change counter of the clip metadata table (ETag validator)."""
        return self._clips_table.version

    @property
    def services_version(self) -> int:
        """Change counter of the services table (ETag validator)."""
        return self._services_table.version

    # Durability hooks ------------------------------------------------------

    def set_op_listener(self, listener) -> None:
        """Install the WAL's domain-operation listener (``None`` clears).

        ``listener(op, data)`` fires after each successful catalogue
        mutation with a payload sufficient to replay it exactly through
        :meth:`apply_logged_op`.
        """
        self._op_listener = listener

    def _log_op(self, op: str, data: Dict[str, Any]) -> None:
        if self._op_listener is not None:
            self._op_listener(op, data)

    @staticmethod
    def _service_payload(service: RadioService) -> Dict[str, Any]:
        return {
            "service_id": service.service_id,
            "name": service.name,
            "bitrate_kbps": service.bitrate_kbps,
            "genre": service.genre,
        }

    @staticmethod
    def _programme_payload(programme: LiveProgramme) -> Dict[str, Any]:
        return {
            "programme_id": programme.programme_id,
            "service_id": programme.service_id,
            "title": programme.title,
            "categories": list(programme.categories),
            "description": programme.description,
        }

    def apply_logged_op(self, op: str, data: Dict[str, Any]) -> None:
        """Replay one logged catalogue operation (the WAL's replay entry)."""
        if op == "add_clip":
            self.add_clip(self._clip_from_payload(data))
        elif op == "replace_clip":
            self.replace_clip(self._clip_from_payload(data))
        elif op == "add_service":
            self.add_service(
                RadioService(
                    service_id=data["service_id"],
                    name=data["name"],
                    bitrate_kbps=data.get("bitrate_kbps", 96),
                    genre=data.get("genre", "general"),
                )
            )
        elif op == "add_programme":
            self.add_programme(
                LiveProgramme(
                    programme_id=data["programme_id"],
                    service_id=data["service_id"],
                    title=data["title"],
                    categories=list(data.get("categories", [])),
                    description=data.get("description", ""),
                )
            )
        elif op == "schedule_programme":
            self.schedule_programme(
                data["programme_id"], TimeWindow(data["start_s"], data["end_s"])
            )
        else:
            raise ValidationError(f"unknown logged content op {op!r}")

    # Services and programmes ---------------------------------------------

    def add_service(self, service: RadioService) -> None:
        """Register a live radio service."""
        if service.service_id in self._services:
            raise DuplicateError(f"service {service.service_id!r} already registered")
        self._services[service.service_id] = service
        self._services_table.insert({"service_id": service.service_id})
        self._schedules[service.service_id] = LinearSchedule(service.service_id)
        self._log_op("add_service", self._service_payload(service))

    def service(self, service_id: str) -> RadioService:
        """Look up a service."""
        service = self._services.get(service_id)
        if service is None:
            raise NotFoundError(f"unknown service {service_id!r}")
        return service

    def services(self) -> List[RadioService]:
        """All registered services, ordered by id."""
        return [
            self._services[row["service_id"]]
            for row in self._services_table.rows_in_index_order("by_id")
        ]

    def services_page(
        self, *, cursor: Optional[str] = None, limit: int = 50
    ) -> Tuple[List[RadioService], Optional[str]]:
        """One page of services ordered by id, plus the next cursor.

        A thin delegation to the storage engine's keyset cursor over the
        ``by_id`` index: the token resumes strictly after the last service
        served, so pagination stays stable under concurrent registration
        (new ids simply appear in their sorted position on a later page,
        never duplicating one).  A ``None`` next cursor means the listing
        is exhausted.
        """
        if limit < 1:
            raise ValidationError(f"limit must be >= 1, got {limit}")
        page = self._services_table.page_by_index("by_id", limit=limit, after_token=cursor)
        return [self._services[row["service_id"]] for row in page.items], page.next_token

    def add_programme(self, programme: LiveProgramme) -> None:
        """Register a programme (its service must exist)."""
        if programme.programme_id in self._programmes:
            raise DuplicateError(f"programme {programme.programme_id!r} already registered")
        self.service(programme.service_id)
        self._programmes[programme.programme_id] = programme
        self._log_op("add_programme", self._programme_payload(programme))

    def programme(self, programme_id: str) -> LiveProgramme:
        """Look up a programme."""
        programme = self._programmes.get(programme_id)
        if programme is None:
            raise NotFoundError(f"unknown programme {programme_id!r}")
        return programme

    def schedule_programme(self, programme_id: str, window: TimeWindow) -> None:
        """Place a registered programme on its service's schedule."""
        programme = self.programme(programme_id)
        self._schedules[programme.service_id].add(programme, window)
        self._log_op(
            "schedule_programme",
            {"programme_id": programme_id, "start_s": window.start_s, "end_s": window.end_s},
        )

    def schedule(self, service_id: str) -> LinearSchedule:
        """The schedule of a service."""
        self.service(service_id)
        return self._schedules[service_id]

    # Clips ------------------------------------------------------------------

    def _clip_row(self, clip: AudioClip, seq: int) -> Dict[str, Any]:
        location = clip.geo_location
        return {
            "clip_id": clip.clip_id,
            "kind": clip.kind.value,
            "primary_category": clip.primary_category,
            "published_s": clip.published_s,
            "seq": seq,
            "lat": location.lat if location is not None else None,
            "lon": location.lon if location is not None else None,
        }

    def add_clip(self, clip: AudioClip) -> None:
        """Register an audio clip."""
        if clip.clip_id in self._clips:
            raise DuplicateError(f"clip {clip.clip_id!r} already registered")
        self._clips[clip.clip_id] = clip
        seq = self._next_seq
        self._next_seq += 1
        self._clips_table.insert(self._clip_row(clip, seq))
        self._log_op("add_clip", self._clip_payload(clip))

    def add_clips(self, clips: Iterable[AudioClip]) -> int:
        """Register many clips; returns how many were added."""
        count = 0
        for clip in clips:
            self.add_clip(clip)
            count += 1
        return count

    def replace_clip(self, clip: AudioClip) -> None:
        """Replace an existing clip (e.g. after classification adds scores).

        The storage engine re-indexes the row, so a changed publish time or
        geo tag moves the clip in the publish-time and spatial indexes
        automatically; its ``seq`` (publish-tie position) is preserved.
        """
        if clip.clip_id not in self._clips:
            raise NotFoundError(f"unknown clip {clip.clip_id!r}")
        self._clips[clip.clip_id] = clip
        seq = self._clips_table.get(clip.clip_id)["seq"]
        self._clips_table.update(clip.clip_id, self._clip_row(clip, seq))
        self._log_op("replace_clip", self._clip_payload(clip))

    def clip(self, clip_id: str) -> AudioClip:
        """Look up a clip."""
        clip = self._clips.get(clip_id)
        if clip is None:
            raise NotFoundError(f"unknown clip {clip_id!r}")
        return clip

    def clips(self) -> List[AudioClip]:
        """All clips in insertion order."""
        return list(self._clips.values())

    def clip_count(self) -> int:
        """Number of registered clips."""
        return len(self._clips)

    def clips_by_kind(self, kind: ContentKind) -> List[AudioClip]:
        """All clips of one kind."""
        rows = self._clips_table.find_by_index("kind", kind.value)
        return [self._clips[row["clip_id"]] for row in rows]

    def clips_by_category(self, category: str) -> List[AudioClip]:
        """All clips whose primary category matches."""
        rows = self._clips_table.find_by_index("primary_category", category)
        return [self._clips[row["clip_id"]] for row in rows]

    def iter_newest_first(self, cutoff_s: Optional[float] = None) -> Iterator[AudioClip]:
        """Lazily walk clips newest first, down to ``cutoff_s`` (inclusive).

        A descending walk of the declarative publish-time index that maps
        primary keys straight to the registered clips, copying no rows, so
        a caller that stops after ``k`` clips pays O(log n + k).  Without
        a cutoff the walk covers every clip.
        """
        clips = self._clips
        for clip_id in self._clips_table.iter_range_keys(
            "published", low=cutoff_s, descending=True
        ):
            yield clips[clip_id]

    def clips_published_after(self, cutoff_s: float) -> List[AudioClip]:
        """Clips published at or after ``cutoff_s``, newest first."""
        return list(self.iter_newest_first(cutoff_s))

    def clips_newest_first(self) -> List[AudioClip]:
        """All clips ordered by publish time, newest first."""
        return list(self.iter_newest_first())

    def clips_page(
        self, *, cursor: Optional[str] = None, limit: int = 50
    ) -> Tuple[List[AudioClip], Optional[str]]:
        """One newest-first page of clips, plus the next cursor.

        A thin delegation to the storage engine's descending keyset cursor
        over the publish-time index.  The token encodes the (publish time,
        row sequence) of the last clip served, so the next page resumes at
        strictly older clips even while new clips are being published — a
        freshly ingested clip lands *before* the cursor position and never
        shifts or duplicates the remaining pages.
        """
        if limit < 1:
            raise ValidationError(f"limit must be >= 1, got {limit}")
        page = self._clips_table.page_by_index(
            "published", limit=limit, after_token=cursor, descending=True
        )
        return [self._clips[row["clip_id"]] for row in page.items], page.next_token

    def geo_tagged_clips(self) -> List[AudioClip]:
        """All clips carrying a geographic footprint."""
        return [clip for clip in self._clips.values() if clip.is_geo_tagged]

    @property
    def geo_index(self) -> GridIndex[str]:
        """The grid index over geo-tag centres (clip ids as items).

        This is the declarative spatial index's grid — shared with the
        context scorer for route-pruned candidate scoring.
        """
        return self._clips_table.spatial_index("geo").grid

    def geo_clips_in_bbox(self, box: BoundingBox) -> List[AudioClip]:
        """Geo-tagged clips whose tag centre falls inside ``box``."""
        return [
            self._clips[row["clip_id"]] for row in self._clips_table.find_in_bbox("geo", box)
        ]

    def geo_clips_near(self, center: GeoPoint, radius_m: float) -> List[AudioClip]:
        """Geo-tagged clips whose tag centre is within ``radius_m`` of ``center``."""
        return [
            self._clips[row["clip_id"]]
            for row, _distance in self._clips_table.find_within("geo", center, radius_m)
        ]

    # Snapshot / restore ---------------------------------------------------

    @staticmethod
    def _clip_payload(clip: AudioClip) -> Dict[str, Any]:
        location = clip.geo_location
        return {
            "clip_id": clip.clip_id,
            "title": clip.title,
            "kind": clip.kind.value,
            "duration_s": clip.duration_s,
            "category_scores": dict(clip.category_scores),
            "source_programme_id": clip.source_programme_id,
            "transcript": clip.transcript,
            "geo_location": [location.lat, location.lon] if location is not None else None,
            "geo_radius_m": clip.geo_radius_m,
            "geo_decay_m": clip.geo_decay_m,
            "published_s": clip.published_s,
            "size_bytes": clip.size_bytes,
        }

    @staticmethod
    def _clip_from_payload(payload: Dict[str, Any]) -> AudioClip:
        location = payload.get("geo_location")
        return AudioClip(
            clip_id=payload["clip_id"],
            title=payload["title"],
            kind=ContentKind(payload["kind"]),
            duration_s=payload["duration_s"],
            category_scores=dict(payload.get("category_scores", {})),
            source_programme_id=payload.get("source_programme_id"),
            transcript=payload.get("transcript"),
            geo_location=GeoPoint(location[0], location[1]) if location else None,
            geo_radius_m=payload.get("geo_radius_m"),
            geo_decay_m=payload.get("geo_decay_m"),
            published_s=payload.get("published_s", 0.0),
            size_bytes=payload.get("size_bytes", 0),
        )

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable payload of the whole content catalogue."""
        return {
            "version": SNAPSHOT_VERSION,
            # Change counters ride along so post-restore ETags can never
            # collide with ones minted before the snapshot was taken.
            "clips_version": self._clips_table.version,
            "services_version": self._services_table.version,
            "clips": [self._clip_payload(clip) for clip in self._clips.values()],
            "services": [
                {
                    "service_id": service.service_id,
                    "name": service.name,
                    "bitrate_kbps": service.bitrate_kbps,
                    "genre": service.genre,
                }
                for service in self._services.values()
            ],
            "programmes": [
                {
                    "programme_id": programme.programme_id,
                    "service_id": programme.service_id,
                    "title": programme.title,
                    "categories": list(programme.categories),
                    "description": programme.description,
                }
                for programme in self._programmes.values()
            ],
            "schedules": {
                service_id: [
                    [entry.programme_id, entry.window.start_s, entry.window.end_s]
                    for entry in schedule.entries()
                ]
                for service_id, schedule in self._schedules.items()
            },
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        """Reload a :meth:`snapshot` payload, replacing the catalogue."""
        if not isinstance(payload, dict) or payload.get("version") != SNAPSHOT_VERSION:
            raise ValidationError(
                f"unsupported content snapshot payload (want version {SNAPSHOT_VERSION})"
            )
        self._clips = {}
        self._services = {}
        self._programmes = {}
        self._schedules = {}
        self._clips_table.restore([])
        self._services_table.restore([])
        for raw in payload.get("services", []):
            self.add_service(
                RadioService(
                    service_id=raw["service_id"],
                    name=raw["name"],
                    bitrate_kbps=raw.get("bitrate_kbps", 96),
                    genre=raw.get("genre", "general"),
                )
            )
        for raw in payload.get("programmes", []):
            self.add_programme(
                LiveProgramme(
                    programme_id=raw["programme_id"],
                    service_id=raw["service_id"],
                    title=raw["title"],
                    categories=list(raw.get("categories", [])),
                    description=raw.get("description", ""),
                )
            )
        for service_id, entries in payload.get("schedules", {}).items():
            for programme_id, start_s, end_s in entries:
                self.schedule_programme(programme_id, TimeWindow(start_s, end_s))
        for raw in payload.get("clips", []):
            self.add_clip(self._clip_from_payload(raw))
        self._clips_table.bump_version_to(payload.get("clips_version", 0))
        self._services_table.bump_version_to(payload.get("services_version", 0))
