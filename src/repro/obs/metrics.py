"""The process-wide metrics registry (DESIGN.md §10).

Where :mod:`repro.obs.recorder` answers *what happened during this run*
(an ordered event log, installed per thread, exported as a trace), this
module answers *what is the process doing right now*: monotonic
counters, last-value gauges and fixed-exponential-bucket histograms,
aggregated in place and scraped on demand.  The two share the same
contract — permanently instrumented call sites, zero overhead while
disabled — but differ in scope: the registry is **process-global** so
worker-pool callbacks, transport bookkeeping and store evictions on any thread
land in one place a Prometheus scrape can see.

The front door mirrors the recorder's: module-level helpers
(:func:`metric_inc`, :func:`metric_gauge_set`, :func:`metric_gauge_add`,
:func:`metric_gauge_max`, :func:`metric_observe`, :func:`metric_time`)
reduce to one module-global read and a ``None`` check when no registry
is installed; :func:`metric_time` returns the shared :data:`NULL_TIMER`
handle, the registry analogue of ``NULL_SPAN``.  Install a registry for
a block with :func:`collecting_metrics`, then export it with
:func:`prometheus_text` (the text exposition format) or
:func:`metrics_jsonl` / :func:`metrics_from_jsonl` (lossless
round-trip).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from contextlib import contextmanager
from collections.abc import Iterator
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


class _Timer:
    """Context manager observing its block's duration into a histogram."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> _Timer:
        self._start = self._registry.clock.now()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._registry.observe(
            self._name, self._registry.clock.now() - self._start
        )
        return False


class _NullTimer:
    """The shared do-nothing timer handle returned while metrics are off."""

    __slots__ = ()

    def __enter__(self) -> _NullTimer:
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_TIMER = _NullTimer()
"""Singleton no-op timer; identity-comparable in overhead tests."""


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

    def time_block(self, name: str) -> _Timer:
        """A context manager observing its block's wall time into ``name``.

        Owns: return
        """
        return _Timer(self, name)

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


# -- the process-global front door --------------------------------------------

_ACTIVE_REGISTRY: MetricsRegistry | None = None
_INSTALL_LOCK = threading.Lock()


def current_metrics() -> MetricsRegistry | None:
    """The installed registry, or None while collection is off.

    Pure: one module-global read.
    """
    return _ACTIVE_REGISTRY


def metrics_enabled() -> bool:
    """True when a registry is installed process-wide.

    Pure: one module-global read.
    """
    return _ACTIVE_REGISTRY is not None


def install_metrics(registry: MetricsRegistry) -> None:
    """Make ``registry`` the process-wide active registry."""
    global _ACTIVE_REGISTRY
    with _INSTALL_LOCK:
        _ACTIVE_REGISTRY = registry


def uninstall_metrics() -> None:
    """Disable metrics collection process-wide."""
    global _ACTIVE_REGISTRY
    with _INSTALL_LOCK:
        _ACTIVE_REGISTRY = None


@contextmanager
def collecting_metrics(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Install a registry for the duration of the block.

    Creates a fresh :class:`MetricsRegistry` when none is given; the
    previously installed registry (usually None) is restored on exit so
    collections nest without leaking into later code.
    """
    active = registry if registry is not None else MetricsRegistry()
    global _ACTIVE_REGISTRY
    with _INSTALL_LOCK:
        previous = _ACTIVE_REGISTRY
        _ACTIVE_REGISTRY = active
    try:
        yield active
    finally:
        with _INSTALL_LOCK:
            _ACTIVE_REGISTRY = previous


def metric_inc(name: str, amount: float = 1.0) -> None:
    """Bump a counter on the active registry; no-op while metrics are off.

    Pure: never mutates its arguments.
    """
    registry = _ACTIVE_REGISTRY
    if registry is not None:
        registry.inc(name, amount)


def metric_gauge_set(name: str, value: float) -> None:
    """Set a gauge on the active registry; no-op while metrics are off.

    Pure: never mutates its arguments.
    """
    registry = _ACTIVE_REGISTRY
    if registry is not None:
        registry.gauge_set(name, value)


def metric_gauge_add(name: str, delta: float) -> None:
    """Shift a gauge on the active registry; no-op while metrics are off.

    Pure: never mutates its arguments.
    """
    registry = _ACTIVE_REGISTRY
    if registry is not None:
        registry.gauge_add(name, delta)


def metric_gauge_max(name: str, value: float) -> None:
    """Raise a gauge on the active registry; no-op while metrics are off.

    Pure: never mutates its arguments.
    """
    registry = _ACTIVE_REGISTRY
    if registry is not None:
        registry.gauge_max(name, value)


def metric_observe(name: str, value: float) -> None:
    """Observe into a histogram on the active registry; no-op when off.

    Pure: never mutates its arguments.
    """
    registry = _ACTIVE_REGISTRY
    if registry is not None:
        registry.observe(name, value)


def metric_time(name: str) -> _Timer | _NullTimer:
    """Time a block into the named histogram; no-op while metrics are off.

    Pure: never mutates its arguments (the fast-path promise; the write
        goes to the process-global registry, if any).
    Owns: return
    """
    registry = _ACTIVE_REGISTRY
    if registry is None:
        return NULL_TIMER
    return registry.time_block(name)


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
