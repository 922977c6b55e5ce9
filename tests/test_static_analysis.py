"""Tests for :mod:`repro.analysis` — the architectural-invariant linter.

Every rule gets a firing *and* a non-firing fixture tree, suppressions
are exercised through the engine and the CLI, and a self-check asserts
the real ``src/repro`` tree is clean — the same gate CI runs.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, run_analysis
from repro.analysis.cli import main
from repro.analysis.engine import SUPPRESSION_RULE
from repro.analysis.facts import extract_module
from repro.analysis.report import render

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"

#: A wal.py declaring one logged and one suppressed topic — fixture trees
#: for the channel audit build on this.
WAL_FIXTURE = """
    WAL_LOGGED_TOPICS = frozenset({"clip.ingested"})
    WAL_SUPPRESSED_TOPICS = frozenset({"api.request"})
    """


def write_tree(tmp_path: Path, files) -> Path:
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def analyze(tmp_path: Path, files):
    write_tree(tmp_path, files)
    return run_analysis([tmp_path], root=tmp_path, rules=ALL_RULES)


def keys(result, rule: str):
    """Stable keys of the *new* findings one rule produced."""
    return sorted(f.key for f in result.new if f.rule == rule)


# ---------------------------------------------------------------------------
# Fact extraction
# ---------------------------------------------------------------------------


class TestFactExtraction:
    def test_classes_attrs_calls_and_consts(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "mod.py": """
                import time
                from collections import OrderedDict

                TOPICS = frozenset({"a.b", "c.d"})
                LIMIT = 5

                class Store:
                    def __init__(self):
                        self._rows = {}
                        self._order = OrderedDict()
                        self._name = "store"

                    def tick(self):
                        return time.time()
                """,
            },
        )
        module = extract_module(root / "mod.py", root)
        assert module.parse_error is None
        assert module.consts["TOPICS"] == ("a.b", "c.d")
        assert module.consts["LIMIT"] == 5
        store = module.classes["Store"]
        assert store.init_attrs["_rows"].mutable
        assert store.init_attrs["_order"].mutable
        assert not store.init_attrs["_name"].mutable
        tick_calls = [c for c in module.calls if c.scope == "Store.tick"]
        assert tick_calls[0].qualified == "time.time"

    def test_from_import_is_qualified(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "mod.py": """
                from time import time

                def now():
                    return time()
                """,
            },
        )
        module = extract_module(root / "mod.py", root)
        assert [c.qualified for c in module.calls] == ["time.time"]

    def test_syntax_error_is_captured_not_raised(self, tmp_path):
        root = write_tree(tmp_path, {"bad.py": "def broken(:\n"})
        module = extract_module(root / "bad.py", root)
        assert module.parse_error is not None

    def test_docstring_mentioning_marker_is_not_a_suppression(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "mod.py": '''
                """Docs describing the '# repro: allow[some-rule] why' syntax."""
                VALUE = 1
                ''',
            },
        )
        module = extract_module(root / "mod.py", root)
        assert module.suppressions == []
        assert module.malformed_suppressions == []


# ---------------------------------------------------------------------------
# snapshot-completeness
# ---------------------------------------------------------------------------


class TestSnapshotCompleteness:
    def test_uncovered_mutable_attr_fires(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "store.py": """
                class Store:
                    def __init__(self):
                        self._rows = {}
                        self._cache = {}

                    def snapshot(self):
                        return {"rows": dict(self._rows)}

                    def restore(self, payload):
                        self._rows = dict(payload["rows"])
                """,
            },
        )
        assert keys(result, "snapshot-completeness") == ["Store._cache"]

    def test_coverage_through_helper_closure(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "store.py": """
                class Store:
                    def __init__(self):
                        self._rows = {}
                        self._cache = {}

                    def snapshot(self):
                        return {"rows": dict(self._rows)}

                    def restore(self, payload):
                        self._rows = dict(payload["rows"])
                        self._reset()

                    def _reset(self):
                        self._cache = {}
                """,
            },
        )
        assert keys(result, "snapshot-completeness") == []

    def test_exemption_silences_and_stale_exemption_fires(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "store.py": """
                class Store:
                    SNAPSHOT_EXEMPT = ("_cache", "_ghost")

                    def __init__(self):
                        self._rows = {}
                        self._cache = {}

                    def snapshot(self):
                        return {"rows": dict(self._rows)}

                    def restore(self, payload):
                        self._rows = dict(payload["rows"])
                """,
            },
        )
        assert keys(result, "snapshot-completeness") == ["Store.stale._ghost"]

    def test_non_store_and_immutable_attrs_are_ignored(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "other.py": """
                class Snapshotter:
                    def __init__(self):
                        self._pending = []

                    def snapshot(self):
                        return list(self._pending)

                class Plain:
                    def __init__(self):
                        self._count = 0
                """,
            },
        )
        assert keys(result, "snapshot-completeness") == []


# ---------------------------------------------------------------------------
# wal-channel-audit
# ---------------------------------------------------------------------------


class TestWalChannelAudit:
    def test_declared_and_published_is_clean(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "storage/wal.py": WAL_FIXTURE,
                "pipeline/feed.py": """
                def announce(bus, clip_id):
                    bus.publish("clip.ingested", {"clip_id": clip_id})
                    bus.publish("api.request", {"route": "r"})
                """,
            },
        )
        assert keys(result, "wal-channel-audit") == []

    def test_undeclared_topic_fires(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "storage/wal.py": WAL_FIXTURE,
                "pipeline/feed.py": """
                def announce(bus):
                    bus.publish("clip.ingested", {})
                    bus.publish("api.request", {})
                    bus.publish("mystery.event", {})
                """,
            },
        )
        assert keys(result, "wal-channel-audit") == ["undeclared:mystery.event"]

    def test_missing_declarations_fire(self, tmp_path):
        result = analyze(
            tmp_path,
            {"storage/wal.py": "GLOBAL_LOG = 'global'\n"},
        )
        assert keys(result, "wal-channel-audit") == [
            "missing:WAL_LOGGED_TOPICS",
            "missing:WAL_SUPPRESSED_TOPICS",
        ]

    def test_topic_in_both_sets_fires(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "storage/wal.py": """
                WAL_LOGGED_TOPICS = frozenset({"x.y"})
                WAL_SUPPRESSED_TOPICS = frozenset({"x.y"})
                """,
                "pipeline/feed.py": """
                def announce(bus):
                    bus.publish("x.y", {})
                """,
            },
        )
        assert keys(result, "wal-channel-audit") == ["both:x.y"]

    def test_stale_declaration_fires_unless_referenced(self, tmp_path):
        files = {
            "storage/wal.py": WAL_FIXTURE,
            "pipeline/feed.py": """
            def announce(bus):
                bus.publish("clip.ingested", {})
            """,
        }
        stale = analyze(tmp_path / "stale", files)
        assert keys(stale, "wal-channel-audit") == ["stale:api.request"]
        # A string reference elsewhere (a constructor default, a subscribe
        # site) keeps the declaration alive — the real gateway's injected
        # topic relies on this.
        files["pipeline/middleware.py"] = 'DEFAULT_TOPIC = "api.request"\n'
        referenced = analyze(tmp_path / "referenced", files)
        assert keys(referenced, "wal-channel-audit") == []

    def test_dynamic_topic_fires_and_suppression_clears_it(self, tmp_path):
        files = {
            "storage/wal.py": WAL_FIXTURE,
            "pipeline/feed.py": """
            def announce(bus):
                bus.publish("clip.ingested", {})

            class Api:
                def __init__(self, bus, topic="api.request"):
                    self._bus = bus
                    self._topic = topic

                def emit(self):
                    self._bus.publish(self._topic, {"n": 1})
            """,
        }
        fired = analyze(tmp_path / "fired", files)
        assert keys(fired, "wal-channel-audit") == ["dynamic:Api.emit"]
        files["pipeline/feed.py"] = """
            def announce(bus):
                bus.publish("clip.ingested", {})

            class Api:
                def __init__(self, bus, topic="api.request"):
                    self._bus = bus
                    self._topic = topic

                def emit(self):
                    # repro: allow[wal-channel-audit] default "api.request" is declared
                    self._bus.publish(self._topic, {"n": 1})
            """
        silenced = analyze(tmp_path / "silenced", files)
        assert keys(silenced, "wal-channel-audit") == []
        assert [f.key for f in silenced.suppressed] == ["dynamic:Api.emit"]

    def test_tree_without_wal_module_is_ignored(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "feed.py": """
                def announce(bus):
                    bus.publish("anything.goes", {})
                """,
            },
        )
        assert keys(result, "wal-channel-audit") == []


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_and_ambient_randomness_fire_in_scope(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "loadgen/script.py": """
                import random
                import time

                def jitter():
                    return random.random() + time.time()

                def unseeded():
                    return random.Random()
                """,
            },
        )
        assert keys(result, "determinism") == [
            "random.Random@unseeded",
            "random.random@jitter",
            "time.time@jitter",
        ]

    def test_seeded_rng_and_perf_counter_are_allowed(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "loadgen/script.py": """
                import random
                import time

                def generator(seed):
                    return random.Random(seed)

                def measure():
                    return time.perf_counter()
                """,
            },
        )
        assert keys(result, "determinism") == []

    def test_out_of_scope_and_exempt_paths_are_ignored(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "recommender/scoring.py": """
                import time

                def now():
                    return time.time()
                """,
                "util/rng.py": """
                import random

                def make():
                    return random.Random()
                """,
            },
        )
        assert keys(result, "determinism") == []


# ---------------------------------------------------------------------------
# shard-safety
# ---------------------------------------------------------------------------


class TestShardSafety:
    def test_unrouted_access_fires(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "users/store.py": """
                class Store:
                    def __init__(self, dbs):
                        self._dbs = dbs

                    def peek(self, i):
                        return self._dbs[i]

                    def grab(self, db, i):
                        return db.shard(i)
                """,
            },
        )
        assert keys(result, "shard-safety") == [
            "raw-dbs:Store.peek",
            "shard-call:Store.grab",
        ]

    def test_routed_and_layout_scopes_are_allowed(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "users/store.py": """
                from repro.storage.sharding import shard_of

                class Store:
                    def __init__(self, dbs):
                        self._dbs = dbs
                        self._caches = [dict() for _ in dbs]

                    def table_for(self, user_id):
                        return self._dbs[shard_of(user_id, len(self._dbs))]

                    def cache_for(self, shard):
                        return self._caches[shard]

                    def restore_shard(self, i, payload):
                        self._dbs[i].load(payload)

                    def snapshot(self):
                        return [db.dump() for db in self._dbs]

                    def restore(self, payload):
                        for db, item in zip(self._dbs, payload):
                            db.load(item)
                """,
            },
        )
        assert keys(result, "shard-safety") == []

    def test_outside_per_user_packages_is_ignored(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "client/tools.py": """
                def peek(dbs, i):
                    return dbs.databases[i]
                """,
            },
        )
        assert keys(result, "shard-safety") == []


# ---------------------------------------------------------------------------
# error-mapping-coverage
# ---------------------------------------------------------------------------

ERRORS_FIXTURE = """
    class ReproError(Exception):
        pass

    class AlphaError(ReproError):
        pass

    class BetaError(AlphaError):
        pass

    class GammaError(ReproError):
        pass
    """


class TestErrorMappingCoverage:
    def test_unmapped_subclass_fires_transitively(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "errors.py": ERRORS_FIXTURE,
                "pipeline/gateway/middleware.py": """
                def map_error(exc):
                    if isinstance(exc, AlphaError):
                        return 400
                    if isinstance(exc, GammaError):
                        return 422
                    return 500
                """,
            },
        )
        # BetaError is a subclass *of a subclass* and still must be named.
        assert keys(result, "error-mapping-coverage") == ["BetaError"]

    def test_fully_mapped_taxonomy_is_clean(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "errors.py": ERRORS_FIXTURE,
                "pipeline/gateway/middleware.py": """
                def map_error(exc):
                    for error_type, status in (
                        (AlphaError, 400),
                        (BetaError, 422),
                        (GammaError, 409),
                    ):
                        if isinstance(exc, error_type):
                            return status
                    return 500
                """,
            },
        )
        assert keys(result, "error-mapping-coverage") == []

    def test_missing_mapper_function_fires(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "errors.py": ERRORS_FIXTURE,
                "pipeline/gateway/middleware.py": "CHAIN = ('auth',)\n",
            },
        )
        assert keys(result, "error-mapping-coverage") == ["missing:map_error"]

    def test_tree_without_gateway_is_ignored(self, tmp_path):
        result = analyze(tmp_path, {"errors.py": ERRORS_FIXTURE})
        assert keys(result, "error-mapping-coverage") == []


# ---------------------------------------------------------------------------
# metric-naming
# ---------------------------------------------------------------------------


class TestMetricNaming:
    def test_bad_names_fire(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "obs/wiring.py": """
                def wire(registry):
                    registry.counter("walBytes", "bad case")
                    registry.counter("wal_appends", "missing _total")
                    registry.histogram("append_latency", "missing unit")
                """,
            },
        )
        assert keys(result, "metric-naming") == [
            "case:walBytes",
            "suffix:append_latency",
            "suffix:wal_appends",
        ]

    def test_conforming_names_and_passthroughs_are_clean(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "obs/wiring.py": """
                def wire(registry, name):
                    registry.counter("wal_appends_total", "good")
                    registry.histogram("append_seconds", "good")
                    registry.histogram("frame_bytes", "good")
                    registry.gauge("queue_depth", "gauges take any suffix")
                    registry.counter(name, "non-literal is out of scope")
                """,
            },
        )
        assert keys(result, "metric-naming") == []


# ---------------------------------------------------------------------------
# serial-dispatch
# ---------------------------------------------------------------------------


class TestSerialDispatch:
    def test_threads_pools_and_processes_fire(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "storage/workers.py": """
                import multiprocessing as mp
                import threading
                from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
                from multiprocessing.pool import ThreadPool

                class Pool:
                    def start(self, fn):
                        threading.Thread(target=fn).start()
                        return ThreadPoolExecutor(max_workers=1)

                def fan_out(fn):
                    with ProcessPoolExecutor() as pool:
                        pool.submit(fn)
                    mp.Process(target=fn).start()
                    return mp.Pool(2), ThreadPool(2)
                """,
            },
        )
        assert keys(result, "serial-dispatch") == [
            "concurrent.futures.ProcessPoolExecutor@fan_out",
            "concurrent.futures.ThreadPoolExecutor@Pool.start",
            "multiprocessing.Pool@fan_out",
            "multiprocessing.Process@fan_out",
            "multiprocessing.pool.ThreadPool@fan_out",
            "threading.Thread@Pool.start",
        ]

    def test_allow_marker_silences(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "bench/load_client.py": """
                import threading

                def drive(fn):
                    # repro: allow[serial-dispatch] overlaps simulated wire waits
                    worker = threading.Thread(target=fn)
                    worker.start()
                """,
            },
        )
        assert keys(result, "serial-dispatch") == []
        assert [f.key for f in result.suppressed] == ["threading.Thread@drive"]
        assert keys(result, SUPPRESSION_RULE) == []

    def test_locks_and_thread_locals_stay_quiet(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "obs/tracing.py": """
                import threading

                class Tracer:
                    def __init__(self):
                        self._local = threading.local()
                        self._lock = threading.Lock()

                    def owner(self):
                        return threading.get_ident()
                """,
            },
        )
        assert keys(result, "serial-dispatch") == []


# ---------------------------------------------------------------------------
# Suppressions and hygiene
# ---------------------------------------------------------------------------

STORE_WITH_GAP = """
    class Store:
        def __init__(self):
            self._rows = {{}}
            self._cache = {{}}{marker}

        def snapshot(self):
            return {{"rows": dict(self._rows)}}

        def restore(self, payload):
            self._rows = dict(payload["rows"])
    """


class TestSuppressions:
    def test_same_line_allow_silences(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "store.py": STORE_WITH_GAP.format(
                    marker="  # repro: allow[snapshot-completeness] rebuilt lazily"
                ),
            },
        )
        assert result.new == []
        assert [f.key for f in result.suppressed] == ["Store._cache"]

    def test_line_above_and_wildcard_allow_silence(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "store.py": """
                class Store:
                    def __init__(self):
                        self._rows = {}
                        # repro: allow[*] demo wildcard
                        self._cache = {}

                    def snapshot(self):
                        return {"rows": dict(self._rows)}

                    def restore(self, payload):
                        self._rows = dict(payload["rows"])
                """,
            },
        )
        assert result.new == []
        assert [f.key for f in result.suppressed] == ["Store._cache"]

    def test_reasonless_allow_is_flagged(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "store.py": STORE_WITH_GAP.format(
                    marker="  # repro: allow[snapshot-completeness]"
                ),
            },
        )
        assert keys(result, SUPPRESSION_RULE) == [
            "no-reason:snapshot-completeness"
        ]

    def test_unused_allow_is_flagged(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "mod.py": """
                # repro: allow[determinism] nothing here needs this
                VALUE = 1
                """,
            },
        )
        assert keys(result, SUPPRESSION_RULE) == ["unused:determinism"]

    def test_malformed_marker_is_flagged(self, tmp_path):
        result = analyze(
            tmp_path,
            {
                "mod.py": """
                VALUE = 1  # repro: allowed[snapshot-completeness] typo
                """,
            },
        )
        assert keys(result, SUPPRESSION_RULE) == ["malformed:2"]


# ---------------------------------------------------------------------------
# Reports and CLI
# ---------------------------------------------------------------------------


class TestReportsAndCli:
    def _dirty_tree(self, tmp_path):
        return write_tree(
            tmp_path, {"store.py": STORE_WITH_GAP.format(marker="")}
        )

    def test_text_github_and_json_formats(self, tmp_path):
        root = self._dirty_tree(tmp_path)
        result = run_analysis([root], root=root, rules=ALL_RULES)
        text = render(result, "text")
        assert "store.py:5" in text and "FAIL" in text
        github = render(result, "github")
        assert "::error file=store.py,line=5" in github
        payload = json.loads(render(result, "json"))
        assert payload["ok"] is False
        assert payload["new"][0]["key"] == "Store._cache"
        with pytest.raises(ValueError):
            render(result, "yaml")

    def test_cli_exit_codes_and_report_artifact(self, tmp_path):
        root = self._dirty_tree(tmp_path)
        out = io.StringIO()
        report = tmp_path / "report.json"
        code = main(
            [str(root), "--root", str(root), "--report", str(report)],
            stdout=out,
        )
        assert code == 1
        assert json.loads(report.read_text())["ok"] is False
        clean = write_tree(
            tmp_path / "clean", {"ok.py": "VALUE = 1\n"}
        )
        assert main([str(clean), "--root", str(clean)], stdout=io.StringIO()) == 0

    def test_cli_list_rules(self):
        out = io.StringIO()
        assert main(["--list-rules"], stdout=out) == 0
        listing = out.getvalue()
        for rule in ALL_RULES:
            assert rule.name in listing


# ---------------------------------------------------------------------------
# The real tree
# ---------------------------------------------------------------------------


class TestRealTree:
    def test_rule_catalogue_is_complete_and_unique(self):
        names = [rule.name for rule in ALL_RULES]
        assert len(names) == len(set(names))
        assert set(names) >= {
            "snapshot-completeness",
            "wal-channel-audit",
            "determinism",
            "shard-safety",
            "error-mapping-coverage",
            "metric-naming",
            "serial-dispatch",
        }

    def test_src_repro_is_clean_modulo_baseline(self):
        # Clean outright: an inline allow is the only way to accept a finding.
        result = run_analysis([SRC_REPRO], root=REPO_ROOT, rules=ALL_RULES)
        assert result.ok, "\n".join(
            f"{f.path}:{f.line} [{f.rule}] {f.message}" for f in result.new
        )
