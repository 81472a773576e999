"""``repro.obs`` — one instrumentation front door over three sinks.

The instrumentation substrate for the whole package (DESIGN.md §7).  It
sits *below* every other layer — ``fd``, ``relation``, ``core``, the
engine — so any module may record into it, and it imports nothing from
the rest of the package.

Instrumented code calls the front door and nothing else: :func:`phase`
(a ``with`` block around one step of a run) and :func:`count`,
:func:`gauge`, :func:`gauge_add`, :func:`point` (one observation each),
with names from :mod:`repro.obs.names`.  Behind it sit three sinks, each
installed for a block: :func:`recording` captures a trace,
:func:`collecting_metrics` a Prometheus-style registry (a phase becomes
the histogram ``phase.<name>.seconds``), and :func:`memory_profiling`
per-phase tracemalloc peaks (``mem.phase.<name>.peak_bytes``).  With no
sink installed every front-door call is one module-global read, so the
permanently instrumented hot paths stay free in production::

    from repro import obs

    with obs.recording() as recorder, obs.collecting_metrics() as registry:
        result = create("eulerfd").discover(relation)
    print(obs.summary_tree(recorder))
    print(obs.prometheus_text(registry))
    print(result.telemetry.series["gr_ncover"])
"""

from . import names
from .clock import Clock, FakeClock, SystemClock, monotonic, system_clock
from .exporters import (
    chrome_trace,
    event_dicts,
    events_from_jsonl,
    summary_tree,
    to_jsonl,
    validate_chrome_trace,
    write_trace,
)
from .front import (
    NULL_PHASE,
    collecting_metrics,
    count,
    current_recorder,
    gauge,
    gauge_add,
    memory_profiling,
    phase,
    point,
    recording,
)
from .metrics import (
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    metrics_from_jsonl,
    metrics_jsonl,
    prometheus_name,
    prometheus_text,
)
from .prof import MemoryProfiler
from .recorder import Event, Recorder, SpanHandle
from .telemetry import PhaseStat, RunTelemetry

__all__ = [
    "Clock",
    "Event",
    "FakeClock",
    "Histogram",
    "MemoryProfiler",
    "MetricsRegistry",
    "NULL_PHASE",
    "PhaseStat",
    "Recorder",
    "RunTelemetry",
    "SpanHandle",
    "SystemClock",
    "chrome_trace",
    "collecting_metrics",
    "count",
    "current_recorder",
    "event_dicts",
    "events_from_jsonl",
    "exponential_buckets",
    "gauge",
    "gauge_add",
    "memory_profiling",
    "metrics_from_jsonl",
    "metrics_jsonl",
    "monotonic",
    "names",
    "phase",
    "point",
    "prometheus_name",
    "prometheus_text",
    "recording",
    "summary_tree",
    "system_clock",
    "to_jsonl",
    "validate_chrome_trace",
    "write_trace",
]
