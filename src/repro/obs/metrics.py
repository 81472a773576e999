"""The metrics sink: a process-wide registry, and its exporters.

Where the recorder (:mod:`repro.obs.recorder`) answers *what happened
during this run* (an ordered event log, installed per thread, exported
as a trace), the registry answers *what is the process doing right now*:
monotonic counters, last-value gauges and fixed-exponential-bucket
histograms, aggregated in place and scraped on demand.  It is installed
**process-wide** by :func:`~repro.obs.front.collecting_metrics`, so
worker-pool callbacks, transport bookkeeping and store evictions on any
thread land in one place a Prometheus scrape can see.  The front door
(:mod:`repro.obs.front`) feeds it: every ``count``/``gauge``/
``gauge_add``/``point`` call, and one ``phase.<name>.seconds``
observation per closed phase.

Export a registry with :func:`prometheus_text` (the text exposition
format) or :func:`metrics_jsonl` / :func:`metrics_from_jsonl` (lossless
round-trip).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Any

from .clock import Clock, SystemClock
from .names import metric_help

DEFAULT_BUCKET_START = 0.001
"""First histogram bucket bound: one millisecond."""

DEFAULT_BUCKET_GROWTH = 2.0
"""Exponential growth factor between consecutive bucket bounds."""

DEFAULT_BUCKET_COUNT = 16
"""Finite bucket bounds per histogram (an overflow bucket follows)."""


def exponential_buckets(
    start: float = DEFAULT_BUCKET_START,
    growth: float = DEFAULT_BUCKET_GROWTH,
    count: int = DEFAULT_BUCKET_COUNT,
) -> tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``.

    Pure: computes a fresh tuple from its arguments.
    """
    if start <= 0:
        raise ValueError(f"start must be positive, got {start}")
    if growth <= 1.0:
        raise ValueError(f"growth must exceed 1, got {growth}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return tuple(start * growth**i for i in range(count))


class Histogram:
    """Fixed-bucket histogram: counts per bound, plus sum and count.

    ``bounds`` are inclusive upper bounds; ``counts`` has one extra
    trailing slot for observations above the last bound (the ``+Inf``
    bucket in Prometheus terms).  Buckets are fixed at construction, so
    observation is one bisect and two adds — cheap enough for per-batch
    latencies on the validation path.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bounds must be distinct and ascending: {bounds!r}")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation.

        Mutates: self
        """
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def bucket_index(self, value: float) -> int:
        """The index of the bucket ``value`` falls in (len(bounds) = +Inf).

        Pure: a bisect over the fixed bounds.
        """
        return bisect_left(self.bounds, value)


class MetricsRegistry:
    """Counters, gauges and histograms aggregated in place.

    Thread-safe by a single lock: the registry is process-global and the
    worker pool's completion callbacks may land on any thread.  The lock
    is held only for dictionary/bucket updates, never across user code.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        buckets: dict[str, tuple[float, ...]] | None = None,
    ) -> None:
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self._buckets = dict(buckets or {})
        self._lock = threading.Lock()

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` onto the named counter.

        Mutates: self
        """
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def gauge_set(self, name: str, value: float) -> None:
        """Overwrite the named gauge with ``value``.

        Mutates: self
        """
        with self._lock:
            self.gauges[name] = float(value)

    def gauge_add(self, name: str, delta: float) -> None:
        """Shift the named gauge by ``delta`` (from 0 when unset).

        Mutates: self
        """
        with self._lock:
            self.gauges[name] = self.gauges.get(name, 0.0) + delta

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the named gauge to ``value`` if that is higher.

        Mutates: self
        """
        with self._lock:
            current = self.gauges.get(name)
            if current is None or value > current:
                self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram.

        Histograms are created on first observation, with the bucket
        bounds configured for the name at construction (or the default
        exponential ladder).

        Mutates: self
        """
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                bounds = self._buckets.get(name) or exponential_buckets()
                histogram = Histogram(bounds)
                self.histograms[name] = histogram
            histogram.observe(value)

    def snapshot(self) -> dict[str, Any]:
        """A plain-data copy of every metric, sorted by name.

        Pure: never mutates the registry (takes the lock to read).
        """
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "gauges": dict(sorted(self.gauges.items())),
                "histograms": {
                    name: {
                        "bounds": list(h.bounds),
                        "counts": list(h.counts),
                        "sum": h.total,
                        "count": h.count,
                    }
                    for name, h in sorted(self.histograms.items())
                },
            }


# -- exporters -----------------------------------------------------------------


def prometheus_name(name: str) -> str:
    """The Prometheus-safe spelling of a dotted metric name.

    Dots and dashes become underscores under a ``repro_`` namespace
    prefix, per the exposition-format character rules.

    Pure: string rewriting only.
    """
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{safe}"


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (ints bare)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format.

    Counters and gauges become single samples; histograms expand to the
    conventional cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.  ``# HELP`` lines come from the catalog when the name is
    catalogued.  Ends with a trailing newline as scrapers require.

    Pure: reads a snapshot, builds a string.
    """
    snapshot = registry.snapshot()
    lines: list[str] = []
    for name, value in snapshot["counters"].items():
        _emit_header(lines, name, "counter")
        lines.append(f"{prometheus_name(name)} {_format_value(value)}")
    for name, value in snapshot["gauges"].items():
        _emit_header(lines, name, "gauge")
        lines.append(f"{prometheus_name(name)} {_format_value(value)}")
    for name, data in snapshot["histograms"].items():
        _emit_header(lines, name, "histogram")
        base = prometheus_name(name)
        cumulative = 0
        for bound, bucket_count in zip(data["bounds"], data["counts"]):
            cumulative += bucket_count
            lines.append(f'{base}_bucket{{le="{repr(float(bound))}"}} {cumulative}')
        cumulative += data["counts"][-1]
        lines.append(f'{base}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{base}_sum {_format_value(data['sum'])}")
        lines.append(f"{base}_count {data['count']}")
    return "\n".join(lines) + "\n"


def _emit_header(lines: list[str], name: str, kind: str) -> None:
    """Append the ``# HELP`` / ``# TYPE`` preamble for one metric."""
    help_text = metric_help(name)
    if help_text:
        lines.append(f"# HELP {prometheus_name(name)} {help_text}")
    lines.append(f"# TYPE {prometheus_name(name)} {kind}")


def metrics_jsonl(registry: MetricsRegistry) -> str:
    """The registry as JSONL: one self-describing object per line.

    Counters and gauges carry ``name``/``value``; histograms carry their
    bounds, per-bucket (non-cumulative) counts, sum and count.  The
    format round-trips through :func:`metrics_from_jsonl`.

    Pure: reads a snapshot, builds a string.
    """
    snapshot = registry.snapshot()
    lines = [
        json.dumps(
            {"kind": "counter", "name": name, "value": value}, sort_keys=True
        )
        for name, value in snapshot["counters"].items()
    ]
    lines += [
        json.dumps({"kind": "gauge", "name": name, "value": value}, sort_keys=True)
        for name, value in snapshot["gauges"].items()
    ]
    lines += [
        json.dumps({"kind": "histogram", "name": name, **data}, sort_keys=True)
        for name, data in snapshot["histograms"].items()
    ]
    return "\n".join(lines) + "\n"


def metrics_from_jsonl(text: str) -> MetricsRegistry:
    """Rebuild a registry from :func:`metrics_jsonl` output.

    The result snapshots identically to the source registry, which is
    what the round-trip tests assert.

    Pure: parses into a fresh registry.
    """
    registry = MetricsRegistry()
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record["kind"]
        if kind == "counter":
            registry.counters[record["name"]] = float(record["value"])
        elif kind == "gauge":
            registry.gauges[record["name"]] = float(record["value"])
        elif kind == "histogram":
            histogram = Histogram(tuple(record["bounds"]))
            histogram.counts = [int(c) for c in record["counts"]]
            histogram.total = float(record["sum"])
            histogram.count = int(record["count"])
            registry.histograms[record["name"]] = histogram
        else:
            raise ValueError(f"unknown metrics record kind: {kind!r}")
    return registry
