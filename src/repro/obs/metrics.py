"""Labeled metrics: counters, gauges and fixed-bucket streaming histograms.

The registry is the one sink every instrumented layer reports through
(gateway middleware, storage planner, WAL, streaming engines,
compactor).  Three design rules keep it cheap enough to leave on in
production:

* **O(1) record** — a histogram observation is one bisect into a fixed
  bucket table plus a few integer adds; no sample list is retained unless
  the registry was built with ``keep_samples=True`` (a debug/test mode).
* **Quantiles with bounded error** — p50/p95/p99 are estimated from the
  bucket counts: the estimate is the upper edge of the bucket holding the
  nearest-rank sample, clamped into ``[min, max]`` of the observed values.
  The estimate therefore always lands in the *same bucket* as the exact
  nearest-rank reference, so the error is at most one bucket width (the
  guarantee ``tests/test_telemetry.py`` asserts against a sorted-list
  reference).
* **Pull-time collection** — gauges derived from live state
  (``Database.stats()`` row, index-hit and scan counters) are folded in by
  registered collector callbacks when a snapshot or exposition is taken,
  so the hot path never pays for them.

A disabled deployment uses :class:`NullRegistry`: every family/series
method is a shared no-op object, so instrumented call sites cost one
attribute lookup and one no-op call (the <5 % overhead budget gated by
``BENCH_telemetry_overhead.json``).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError

#: Log-spaced latency buckets (seconds): 0.5 ms doubling up to ~8.2 s, plus
#: an implicit overflow bucket.  Doubling keeps the relative quantile error
#: bounded (an estimate is off by at most one bucket width ≈ the value
#: itself), which is the right trade for request/query latencies spanning
#: microseconds to seconds.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(0.0005 * (2 ** i) for i in range(15))


def _label_values(declared: Tuple[str, ...], kwargs: Dict[str, Any]) -> Tuple[str, ...]:
    if set(kwargs) != set(declared):
        raise ValidationError(
            f"labels {sorted(kwargs)} do not match declared {sorted(declared)}"
        )
    return tuple(str(kwargs[name]) for name in declared)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class CounterSeries:
    """One labeled counter: a monotonically increasing float."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValidationError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class GaugeSeries:
    """One labeled gauge: a value that can move in either direction."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self.inc(-amount)


class HistogramSeries:
    """One labeled histogram: fixed buckets, O(1) record, bounded-error quantiles."""

    __slots__ = (
        "_lock",
        "bounds",
        "counts",
        "count",
        "total",
        "min",
        "max",
        "samples",
    )

    def __init__(
        self,
        bounds: Tuple[float, ...],
        lock: threading.Lock,
        *,
        keep_samples: bool = False,
    ) -> None:
        self._lock = lock
        self.bounds = bounds
        # counts[i] holds values <= bounds[i] (and > bounds[i-1]); the last
        # slot is the overflow bucket for values above every bound.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: Optional[List[float]] = [] if keep_samples else None

    def record(self, value: float) -> None:
        """Record one observation (one bisect + integer adds)."""
        value = float(value)
        bucket = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[bucket] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if self.samples is not None:
                self.samples.append(value)

    observe = record

    def bucket_range(self, value: float) -> Tuple[float, float]:
        """``(low, high]`` edges of the bucket holding ``value``.

        The overflow bucket's high edge is reported as ``inf``.  Used by
        the quantile-accuracy tests: the estimate and the exact reference
        must share a bucket.
        """
        bucket = bisect_left(self.bounds, value)
        low = self.bounds[bucket - 1] if bucket > 0 else float("-inf")
        high = self.bounds[bucket] if bucket < len(self.bounds) else float("inf")
        return low, high

    def quantile(self, q: float) -> Optional[float]:
        """Bounded-error quantile estimate from the bucket counts.

        Matches the nearest-rank definition (``rank = ceil(q * n)``, 1-based
        over the sorted samples): the estimate is the upper edge of the
        bucket containing the rank-th sample, clamped into
        ``[min, max]`` of everything observed — which keeps it inside the
        reference sample's own bucket, so ``|estimate - exact| <= bucket
        width`` always holds.
        """
        if not 0.0 < q <= 1.0:
            raise ValidationError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return None
            rank = max(1, math.ceil(q * self.count))
            cumulative = 0
            bucket = len(self.counts) - 1
            for index, bucket_count in enumerate(self.counts):
                cumulative += bucket_count
                if cumulative >= rank:
                    bucket = index
                    break
            if bucket >= len(self.bounds):
                estimate = self.max
            else:
                estimate = self.bounds[bucket]
            return min(max(estimate, self.min), self.max)

    def snapshot(self) -> Dict[str, Any]:
        """Counts, sum, min/max, per-bucket breakdown and p50/p95/p99."""
        with self._lock:
            counts = list(self.counts)
            count = self.count
            total = self.total
            low, high = self.min, self.max
        summary: Dict[str, Any] = {
            "count": count,
            "sum": round(total, 9),
            "min": low,
            "max": high,
            "buckets": [
                {"le": bound, "count": counts[index]}
                for index, bound in enumerate(self.bounds)
                if counts[index]
            ],
            "overflow": counts[-1],
        }
        if count:
            for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                summary[name] = self.quantile(q)
        return summary


class _Family:
    """Shared machinery of one named metric family with declared labels."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._lock = lock
        self._series: Dict[Tuple[str, ...], Any] = {}

    def _new_series(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **kwargs: Any) -> Any:
        """The series for one label-value combination (created on first use)."""
        values = _label_values(self.label_names, kwargs)
        series = self._series.get(values)
        if series is None:
            with self._lock:
                series = self._series.get(values)
                if series is None:
                    series = self._new_series()
                    self._series[values] = series
        return series

    def series(self) -> List[Tuple[Dict[str, str], Any]]:
        """``(labels, series)`` pairs in creation order."""
        return [
            (dict(zip(self.label_names, values)), series)
            for values, series in list(self._series.items())
        ]


class CounterFamily(_Family):
    kind = "counter"

    def _new_series(self) -> CounterSeries:
        return CounterSeries(self._lock)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Shorthand: ``family.labels(**labels).inc(amount)``."""
        self.labels(**labels).inc(amount)


class GaugeFamily(_Family):
    kind = "gauge"

    def _new_series(self) -> GaugeSeries:
        return GaugeSeries(self._lock)

    def set(self, value: float, **labels: Any) -> None:
        """Shorthand: ``family.labels(**labels).set(value)``."""
        self.labels(**labels).set(value)


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        lock: threading.Lock,
        *,
        buckets: Tuple[float, ...],
        keep_samples: bool = False,
    ) -> None:
        super().__init__(name, help_text, label_names, lock)
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValidationError("histogram buckets must be distinct and ascending")
        self.buckets = tuple(float(bound) for bound in buckets)
        self._keep_samples = keep_samples

    def _new_series(self) -> HistogramSeries:
        return HistogramSeries(self.buckets, self._lock, keep_samples=self._keep_samples)

    def record(self, value: float, **labels: Any) -> None:
        """Shorthand: ``family.labels(**labels).record(value)``."""
        self.labels(**labels).record(value)


class MetricsRegistry:
    """The process-wide registry of metric families.

    Family declarations are idempotent: asking for an existing name with
    the same kind and labels returns the existing family (so call sites
    can declare where they record without threading family objects
    around); a conflicting redeclaration raises.

    ``collectors`` registered with :meth:`register_collector` run at
    snapshot/exposition time to fold pull-style state (storage counters,
    queue depths) into gauges — the hot path never updates them.
    """

    enabled = True

    def __init__(self, *, keep_samples: bool = False) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._keep_samples = keep_samples

    def _declare(self, name: str, factory: Callable[[], _Family], kind: str, labels: Tuple[str, ...]) -> _Family:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = factory()
                    self._families[name] = family
                    return family
        if family.kind != kind or family.label_names != labels:
            raise ValidationError(
                f"metric {name!r} already declared as {family.kind} with labels "
                f"{family.label_names}, not {kind} with {labels}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> CounterFamily:
        """Declare (or fetch) a counter family."""
        names = tuple(labels)
        return self._declare(
            name, lambda: CounterFamily(name, help, names, self._lock), "counter", names
        )

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> GaugeFamily:
        """Declare (or fetch) a gauge family."""
        names = tuple(labels)
        return self._declare(
            name, lambda: GaugeFamily(name, help, names, self._lock), "gauge", names
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> HistogramFamily:
        """Declare (or fetch) a histogram family with fixed buckets."""
        names = tuple(labels)
        return self._declare(
            name,
            lambda: HistogramFamily(
                name,
                help,
                names,
                self._lock,
                buckets=tuple(buckets),
                keep_samples=self._keep_samples,
            ),
            "histogram",
            names,
        )

    def register_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Run ``collector(self)`` before every snapshot/exposition."""
        self._collectors.append(collector)

    def collect(self) -> None:
        """Run all registered collectors (folding pull-style state in)."""
        for collector in list(self._collectors):
            collector(self)

    def families(self) -> List[_Family]:
        """All declared families, sorted by name."""
        return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Any]:
        """All families and series as one JSON-serializable payload.

        Histogram entries carry precomputed ``p50``/``p95``/``p99`` so wire
        clients of ``GET /v1/ops/metrics`` read percentiles directly.
        """
        self.collect()
        payload: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for family in self.families():
            entry: Dict[str, Any] = {
                "help": family.help,
                "labels": list(family.label_names),
                "series": [],
            }
            for label_map, series in family.series():
                if family.kind == "histogram":
                    record: Dict[str, Any] = {"labels": label_map}
                    record.update(series.snapshot())
                else:
                    record = {"labels": label_map, "value": series.value}
                entry["series"].append(record)
            payload[family.kind + "s"][family.name] = entry
        return payload

    def prometheus_text(self) -> str:
        """Prometheus text exposition (``# HELP``/``# TYPE`` + samples)."""
        self.collect()
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for label_map, series in family.series():
                label_text = ",".join(
                    f'{key}="{_escape_label(value)}"' for key, value in label_map.items()
                )
                if family.kind == "histogram":
                    cumulative = 0
                    for index, bound in enumerate(series.bounds):
                        cumulative += series.counts[index]
                        bucket_labels = label_text + ("," if label_text else "")
                        lines.append(
                            f'{family.name}_bucket{{{bucket_labels}le="{bound:g}"}} {cumulative}'
                        )
                    cumulative += series.counts[-1]
                    bucket_labels = label_text + ("," if label_text else "")
                    lines.append(
                        f'{family.name}_bucket{{{bucket_labels}le="+Inf"}} {cumulative}'
                    )
                    suffix = f"{{{label_text}}}" if label_text else ""
                    lines.append(f"{family.name}_sum{suffix} {series.total:g}")
                    lines.append(f"{family.name}_count{suffix} {series.count}")
                else:
                    suffix = f"{{{label_text}}}" if label_text else ""
                    lines.append(f"{family.name}{suffix} {series.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


class _NullSeries:
    """Shared no-op series: every mutation is a constant-time no-op."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def record(self, value: float) -> None:
        pass

    observe = record


class _NullFamily:
    """Shared no-op family returned by every NullRegistry declaration."""

    __slots__ = ()
    _series = _NullSeries()

    def labels(self, **kwargs: Any) -> _NullSeries:
        return self._series

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def record(self, value: float, **labels: Any) -> None:
        pass


class NullRegistry:
    """The disabled-telemetry registry: declarations and records are no-ops.

    Instrumented call sites keep a single code path — the family objects
    they hold are shared no-ops, so the per-record cost is one attribute
    lookup plus an empty call (benchmarked under the 5 % budget by
    ``benchmarks/bench_telemetry_overhead.py``).
    """

    enabled = False
    _family = _NullFamily()

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> _NullFamily:
        return self._family

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> _NullFamily:
        return self._family

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> _NullFamily:
        return self._family

    def register_collector(self, collector: Callable[[Any], None]) -> None:
        pass

    def collect(self) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def prometheus_text(self) -> str:
        return ""
