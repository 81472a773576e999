"""The instrumentation front door: one call per event, every sink behind it.

Instrumented code calls five functions and nothing else:

* :func:`phase` — a ``with`` block around one step of a run (preprocess,
  one sampling pass, one inversion).  It opens a span on the thread's
  recorder, observes its wall time into the registry histogram
  ``phase.<name>.seconds`` and opens the memory phase
  ``mem.phase.<name>.peak_bytes`` on the profiler, each only when that
  sink is installed;
* :func:`count`, :func:`gauge`, :func:`gauge_add` and :func:`point` —
  one observation each, fed to the registry and, while tracing, to the
  trace.  A series point lands on the registry as a gauge holding the
  latest y.

Three sinks sit behind the door, each installed for a block:
:func:`recording` (a :class:`~repro.obs.recorder.Recorder`, per thread),
:func:`collecting_metrics` (a :class:`~repro.obs.metrics.MetricsRegistry`,
process-wide) and :func:`memory_profiling` (a
:class:`~repro.obs.prof.MemoryProfiler`, process-wide).  With none
installed — the production default — every call is one module-global
read: :func:`phase` returns the shared :data:`NULL_PHASE` and the others
return at once, so permanently instrumented hot loops allocate nothing
and read no clock.
"""

from __future__ import annotations

import threading
import tracemalloc
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

from .metrics import MetricsRegistry
from .names import phase_peak_bytes, phase_seconds
from .prof import MemoryProfiler
from .recorder import Recorder

_installed = 0
"""Sinks installed anywhere in the process; zero selects the disabled path."""

_install_lock = threading.Lock()


class _ThreadSinks(threading.local):
    recorder: Recorder | None = None
    """A class-level default, so a thread that never installed a recorder
    reads None without raising and swallowing an ``AttributeError``."""


_thread = _ThreadSinks()
_registry: MetricsRegistry | None = None
_profiler: MemoryProfiler | None = None


def _count_install(delta: int) -> None:
    global _installed
    with _install_lock:
        _installed += delta


# -- phases --------------------------------------------------------------------


class _NullPhase:
    """The shared do-nothing handle :func:`phase` returns while no sink is on."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_PHASE = _NullPhase()
"""Singleton no-op phase; identity-comparable in overhead tests."""


class _Phase:
    """One phase on whichever sinks are installed when it is entered."""

    __slots__ = ("_name", "_attrs", "_span", "_profiler", "_registry", "_start")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> None:
        recorder = _thread.recorder
        self._span = (
            None if recorder is None else recorder.span(self._name, **self._attrs)
        )
        self._profiler = _profiler
        if self._profiler is not None:
            self._profiler.enter(phase_peak_bytes(self._name))
        self._registry = _registry
        if self._registry is not None:
            self._start = self._registry.clock.now()

    def __exit__(self, *exc: object) -> bool:
        registry = self._registry
        if registry is not None:
            registry.observe(
                phase_seconds(self._name), registry.clock.now() - self._start
            )
        if self._profiler is not None:
            peak = self._profiler.exit()
            if registry is not None:
                registry.gauge_max(phase_peak_bytes(self._name), float(peak))
        if self._span is not None:
            self._span.__exit__(*exc)
        return False


def phase(name: str, **attrs: Any) -> _Phase | _NullPhase:
    """A ``with`` block recording one phase on every installed sink.

    ``name`` is a phase constant from :mod:`repro.obs.names`; ``attrs``
    go on the trace span only.

    Pure: never mutates its arguments (the fast-path promise hot loops
        rely on; the writes go to the installed sinks, if any).
    """
    if not _installed:
        return NULL_PHASE
    return _Phase(name, attrs)


# -- observations --------------------------------------------------------------


def count(name: str, amount: float = 1) -> None:
    """Add ``amount`` to a counter on every installed sink.

    Pure: never mutates its arguments.
    """
    if _installed:
        registry = _registry
        if registry is not None:
            registry.inc(name, amount)
        recorder = _thread.recorder
        if recorder is not None:
            recorder.counter(name, amount)


def gauge(name: str, value: float, **attrs: Any) -> None:
    """Set a gauge on every installed sink; ``attrs`` go on the trace only.

    Pure: never mutates its arguments.
    """
    if _installed:
        registry = _registry
        if registry is not None:
            registry.gauge_set(name, value)
        recorder = _thread.recorder
        if recorder is not None:
            recorder.gauge(name, value, **attrs)


def gauge_add(name: str, delta: float) -> None:
    """Shift a gauge by ``delta`` on every installed sink.

    Pure: never mutates its arguments.
    """
    if _installed:
        registry = _registry
        if registry is not None:
            registry.gauge_add(name, delta)
        recorder = _thread.recorder
        if recorder is not None:
            recorder.gauge_add(name, delta)


def point(name: str, x: float, y: float, **attrs: Any) -> None:
    """Append (x, y) to a series; the registry keeps the latest y.

    Pure: never mutates its arguments.
    """
    if _installed:
        registry = _registry
        if registry is not None:
            registry.gauge_set(name, y)
        recorder = _thread.recorder
        if recorder is not None:
            recorder.point(name, x, y, **attrs)


# -- installing the sinks ------------------------------------------------------


def current_recorder() -> Recorder | None:
    """The recorder installed on this thread, or None when tracing is off.

    Pure: one thread-local read.
    """
    return _thread.recorder


@contextmanager
def recording(recorder: Recorder | None = None) -> Iterator[Recorder]:
    """Install a recorder on this thread for the duration of the block.

    Creates a fresh :class:`Recorder` when none is given; the previously
    installed recorder (usually None) is restored on exit, so recordings
    nest without leaking into later code.
    """
    active = recorder if recorder is not None else Recorder()
    previous = _thread.recorder
    _thread.recorder = active
    _count_install(1)
    try:
        yield active
    finally:
        _thread.recorder = previous
        _count_install(-1)


@contextmanager
def collecting_metrics(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Install a registry process-wide for the duration of the block.

    Creates a fresh :class:`MetricsRegistry` when none is given; the
    previously installed registry (usually None) is restored on exit so
    collections nest without leaking into later code.
    """
    global _registry
    active = registry if registry is not None else MetricsRegistry()
    previous = _registry
    _registry = active
    _count_install(1)
    try:
        yield active
    finally:
        _registry = previous
        _count_install(-1)


@contextmanager
def memory_profiling(
    profiler: MemoryProfiler | None = None,
) -> Iterator[MemoryProfiler]:
    """Install a memory profiler (and tracemalloc) for the block.

    Starts tracemalloc if it is not already tracing and stops it on exit
    only if this block started it, so profiled regions nest and coexist
    with externally managed tracing.  The previously installed profiler
    (usually None) is restored on exit.
    """
    global _profiler
    active = profiler if profiler is not None else MemoryProfiler()
    owns_tracing = not tracemalloc.is_tracing()
    if owns_tracing:
        tracemalloc.start()
    previous = _profiler
    _profiler = active
    _count_install(1)
    try:
        yield active
    finally:
        _profiler = previous
        _count_install(-1)
        if owns_tracing:
            tracemalloc.stop()
