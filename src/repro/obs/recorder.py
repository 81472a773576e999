"""The trace sink: a per-thread, append-only event log.

Instrumented code never talks to a :class:`Recorder` directly; it calls
the front door (:mod:`repro.obs.front`), which appends to the recorder
installed on the calling thread by :func:`~repro.obs.front.recording`.
Four primitives cover the paper's dynamics:

* **spans** — nested named intervals (preprocess, one sampling pass, one
  inversion) with attributes, exported as a Chrome trace or summary tree;
* **counters** — monotonically accumulated totals (pairs compared,
  non-FDs admitted, MLFQ promotions);
* **gauges** — point-in-time readings (queue occupancy after a pass);
* **series points** — explicit (x, y) trajectories, used for the
  ``GR_Ncover``/``GR_Pcover`` growth rates behind Algorithms 2-3's
  stopping criteria.

The recorder itself is deliberately a flat, append-only event log: every
primitive appends one :class:`Event`, so chronological ordering, marks
(:meth:`Recorder.mark`) and per-run telemetry slices are all plain list
indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .clock import Clock, SystemClock

SPAN = "span"
COUNTER = "counter"
GAUGE = "gauge"
POINT = "point"


@dataclass
class Event:
    """One recorded observation.

    ``kind`` is one of :data:`SPAN`, :data:`COUNTER`, :data:`GAUGE`,
    :data:`POINT`.  Spans are appended at *start* time (so the event list
    is ordered by start) and get ``end`` filled in on exit; the other
    kinds are complete on append.  ``seq`` is the event's index in the
    recorder's log and doubles as the span id ``parent`` refers to.
    """

    kind: str
    name: str
    time: float
    seq: int
    value: float | None = None
    """Counter delta, gauge reading, or series y-value."""
    x: float | None = None
    """Series x-coordinate (round number, cycle number, ...)."""
    end: float | None = None
    """Span end time; None while open (or for non-span events)."""
    parent: int | None = None
    """Enclosing span's ``seq``, None at top level."""
    depth: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)


class SpanHandle:
    """Context manager closing one open span on exit."""

    __slots__ = ("_recorder", "_event")

    def __init__(self, recorder: Recorder, event: Event) -> None:
        self._recorder = recorder
        self._event = event

    def __enter__(self) -> SpanHandle:
        return self

    def __exit__(self, *exc: object) -> bool:
        self._recorder._close_span(self._event)
        return False

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span after it opened.

        Mutates: self
        """
        self._event.attrs.update(attrs)


class Recorder:
    """An append-only event log with an injectable clock.

    Not thread-safe by design: one recorder belongs to the thread it is
    installed on (installation itself is thread-local), matching the
    single-threaded discovery algorithms it instruments.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.events: list[Event] = []
        self.counter_totals: dict[str, float] = {}
        self.gauge_values: dict[str, float] = {}
        self._stack: list[Event] = []
        self.start_time = self.clock.now()

    # -- the four primitives ------------------------------------------------

    def span(self, name: str, **attrs: Any) -> SpanHandle:
        """Open a nested span; close it by exiting the returned handle.

        Mutates: self
        """
        parent = self._stack[-1] if self._stack else None
        event = Event(
            kind=SPAN,
            name=name,
            time=self.clock.now(),
            seq=len(self.events),
            parent=None if parent is None else parent.seq,
            depth=len(self._stack),
            attrs=attrs,
        )
        self.events.append(event)
        self._stack.append(event)
        return SpanHandle(self, event)

    def counter(self, name: str, amount: float = 1) -> None:
        """Accumulate ``amount`` onto the named counter.

        Mutates: self
        """
        total = self.counter_totals.get(name, 0) + amount
        self.counter_totals[name] = total
        self.events.append(
            Event(
                kind=COUNTER,
                name=name,
                time=self.clock.now(),
                seq=len(self.events),
                value=amount,
                parent=self._stack[-1].seq if self._stack else None,
                depth=len(self._stack),
            )
        )

    def gauge(self, name: str, value: float, **attrs: Any) -> None:
        """Record one point-in-time reading.

        Mutates: self
        """
        self.gauge_values[name] = value
        self.events.append(
            Event(
                kind=GAUGE,
                name=name,
                time=self.clock.now(),
                seq=len(self.events),
                value=value,
                parent=self._stack[-1].seq if self._stack else None,
                depth=len(self._stack),
                attrs=attrs,
            )
        )

    def gauge_add(self, name: str, delta: float) -> None:
        """Shift the gauge by ``delta`` from its last reading (0 when unset).

        Mutates: self
        """
        self.gauge(name, self.gauge_values.get(name, 0) + delta)

    def point(self, name: str, x: float, y: float, **attrs: Any) -> None:
        """Append one (x, y) point to the named series.

        Mutates: self
        """
        self.events.append(
            Event(
                kind=POINT,
                name=name,
                time=self.clock.now(),
                seq=len(self.events),
                value=y,
                x=x,
                parent=self._stack[-1].seq if self._stack else None,
                depth=len(self._stack),
                attrs=attrs,
            )
        )

    # -- slicing -------------------------------------------------------------

    def mark(self) -> int:
        """A position in the event log; pass to :meth:`events_since`.

        Pure: reads the log length only.
        """
        return len(self.events)

    def events_since(self, mark: int = 0) -> list[Event]:
        """The events appended at or after ``mark``.

        Pure: snapshots the log without touching it.
        """
        return self.events[mark:]

    def series(self, name: str) -> list[tuple[float, float]]:
        """The (x, y) points of one named series, in record order.

        Pure: a read-only scan of the log.
        """
        return [
            (event.x, event.value)
            for event in self.events
            if event.kind == POINT and event.name == name
        ]

    def span_events(self) -> list[Event]:
        """Every span event, ordered by start.

        Pure: a read-only scan of the log.
        """
        return [event for event in self.events if event.kind == SPAN]

    def _close_span(self, event: Event) -> None:
        """Stamp a span's end time and unwind the open-span stack.

        Out-of-order exits (possible only through misuse of the handle
        outside ``with``) close every span opened after ``event`` too, so
        the stack can never corrupt later parentage.

        Mutates: self, event
        """
        now = self.clock.now()
        while self._stack:
            open_event = self._stack.pop()
            open_event.end = now
            if open_event is event:
                break

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Recorder(events={len(self.events)}, open={len(self._stack)})"
