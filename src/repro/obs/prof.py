"""The memory sink: per-phase peak attribution via tracemalloc.

Telemetry already answers "where did the time go" (per-phase self time
from the span tree); this module answers "where did the memory go".  A
:class:`MemoryProfiler` keeps a stack of open *memory phases*; entering
one snapshots the current traced size and resets tracemalloc's peak
watermark, exiting returns the phase's **peak delta** — the high-water
mark reached inside the phase, minus the bytes already live when it
began.  Nested phases propagate their observed peak outward, so a spike
inside ``sampling`` also counts toward the enclosing ``cycle``.

The front door (:mod:`repro.obs.front`) drives it: while a profiler is
installed by :func:`~repro.obs.front.memory_profiling`, every
``phase(name)`` is also the memory phase ``mem.phase.<name>.peak_bytes``,
whose peak lands on the metrics registry as a max-gauge.  tracemalloc
is a real, roughly 2× interpreter slowdown, so it runs only inside
``memory_profiling`` and its phase timings are not wall-time figures.
"""

from __future__ import annotations

import tracemalloc


class _PhaseFrame:
    """One open phase: its baseline and the highest peak seen so far."""

    __slots__ = ("name", "baseline", "observed_peak")

    def __init__(self, name: str, baseline: int) -> None:
        self.name = name
        self.baseline = baseline
        self.observed_peak = baseline


class MemoryProfiler:
    """A stack of memory phases over one tracemalloc session.

    tracemalloc exposes a single global peak watermark; the profiler
    resets it at every phase boundary and folds the segment peaks into
    the enclosing frames, so each phase's recorded value is the true
    high-water mark over its whole extent, nested phases included.

    :attr:`peaks` keeps each phase name's worst case, so repeated
    phases — every sampling pass of every cycle — report their maximum.
    """

    def __init__(self) -> None:
        self._stack: list[_PhaseFrame] = []
        self.peaks: dict[str, int] = {}

    def enter(self, name: str) -> None:
        """Open the memory phase ``name``; close it with :meth:`exit`.

        Mutates: self
        """
        current, running_peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self._stack[-1]
            if running_peak > parent.observed_peak:
                parent.observed_peak = running_peak
        tracemalloc.reset_peak()
        self._stack.append(_PhaseFrame(name, current))

    def exit(self) -> int:
        """Close the innermost open phase; its peak delta in bytes.

        Mutates: self
        """
        _, running_peak = tracemalloc.get_traced_memory()
        frame = self._stack.pop()
        absolute_peak = max(running_peak, frame.observed_peak)
        delta = max(absolute_peak - frame.baseline, 0)
        if delta > self.peaks.get(frame.name, -1):
            self.peaks[frame.name] = delta
        if self._stack:
            parent = self._stack[-1]
            if absolute_peak > parent.observed_peak:
                parent.observed_peak = absolute_peak
        tracemalloc.reset_peak()
        return delta
