"""Tests for repro.obs: recorder, clocks, telemetry, exporters, wiring.

The fake clock makes every trace byte-stable, so span nesting, event
ordering and exporter output are asserted exactly; the end-to-end tests
then run real algorithms under a recorder and check the paper-level
telemetry (phase tree, ``GR_Ncover`` trajectory) comes out right.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms import create
from repro.bench.runner import default_algorithms, run_algorithm
from repro.cli import main as cli_main
from repro.cli import trace_main
from repro.core import EulerFD, EulerFDConfig
from repro.datasets import patients, registry
from repro.obs import (
    NULL_PHASE,
    Clock,
    Event,
    FakeClock,
    PhaseStat,
    Recorder,
    RunTelemetry,
    SpanHandle,
    SystemClock,
    chrome_trace,
    count,
    current_recorder,
    event_dicts,
    events_from_jsonl,
    gauge,
    gauge_add,
    monotonic,
    phase,
    point,
    recording,
    summary_tree,
    system_clock,
    to_jsonl,
    validate_chrome_trace,
    write_trace,
)


class TestClocks:
    def test_system_clock_is_monotonic_and_shared(self):
        clock = system_clock()
        assert clock is system_clock()  # singleton
        assert isinstance(clock, SystemClock)
        assert isinstance(clock, Clock)  # satisfies the protocol
        first = clock.now()
        second = clock.now()
        assert second >= first

    def test_monotonic_reads_the_system_clock(self):
        first = monotonic()
        second = monotonic()
        assert second >= first

    def test_fake_clock_advances_manually(self):
        clock = FakeClock(start=10.0)
        assert clock.now() == 10.0
        clock.advance(2.5)
        assert clock.now() == 12.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_fake_clock_auto_tick(self):
        clock = FakeClock(tick=1.0)
        assert [clock.now(), clock.now(), clock.now()] == [0.0, 1.0, 2.0]
        assert isinstance(clock, Clock)


class TestRecorder:
    def test_span_nesting_and_ordering_with_fake_clock(self):
        recorder = Recorder(clock=FakeClock(tick=1.0))
        with recorder.span("outer", label="a"):
            recorder.counter("hits")
            with recorder.span("inner"):
                recorder.point("curve", 1.0, 0.5)
        outer, inner = recorder.span_events()
        assert (outer.name, inner.name) == ("outer", "inner")
        assert outer.parent is None and inner.parent == outer.seq
        assert (outer.depth, inner.depth) == (0, 1)
        assert outer.attrs == {"label": "a"}
        # FakeClock(tick=1): start_time=0, outer opens at 1, counter at 2,
        # inner opens at 3, point at 4, inner closes at 5, outer at 6.
        assert (outer.time, outer.end) == (1.0, 6.0)
        assert (inner.time, inner.end) == (3.0, 5.0)
        assert [event.seq for event in recorder.events] == [0, 1, 2, 3]

    def test_events_are_ordered_by_start(self):
        recorder = Recorder(clock=FakeClock(tick=1.0))
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        with recorder.span("c"):
            pass
        assert [event.name for event in recorder.span_events()] == ["a", "b", "c"]
        times = [event.time for event in recorder.events]
        assert times == sorted(times)

    def test_counter_accumulates_totals(self):
        recorder = Recorder(clock=FakeClock())
        recorder.counter("pairs", 3)
        recorder.counter("pairs", 4)
        recorder.counter("rounds")
        assert recorder.counter_totals == {"pairs": 7, "rounds": 1}

    def test_series_collects_points_in_order(self):
        recorder = Recorder(clock=FakeClock())
        recorder.point("gr", 1.0, 0.9)
        recorder.point("gr", 2.0, 0.4)
        recorder.point("other", 1.0, 7.0)
        assert recorder.series("gr") == [(1.0, 0.9), (2.0, 0.4)]

    def test_mark_and_events_since_slice_the_log(self):
        recorder = Recorder(clock=FakeClock())
        recorder.counter("before")
        mark = recorder.mark()
        recorder.counter("after")
        names = [event.name for event in recorder.events_since(mark)]
        assert names == ["after"]
        assert len(recorder) == 2

    def test_out_of_order_close_unwinds_cleanly(self):
        recorder = Recorder(clock=FakeClock(tick=1.0))
        outer = recorder.span("outer")
        recorder.span("inner")  # handle dropped without closing
        outer.__exit__(None, None, None)
        assert all(event.end is not None for event in recorder.span_events())
        # the stack is empty again: a new span is top-level
        with recorder.span("next"):
            pass
        assert recorder.span_events()[-1].parent is None

    def test_span_handle_set_attaches_attrs(self):
        recorder = Recorder(clock=FakeClock())
        with recorder.span("phase") as handle:
            assert isinstance(handle, SpanHandle)
            handle.set(rounds=3)
        assert recorder.span_events()[0].attrs == {"rounds": 3}


class TestFrontDoor:
    def test_disabled_helpers_are_noops(self):
        assert current_recorder() is None
        handle = phase("anything", key="value")
        assert handle is NULL_PHASE  # the shared singleton, no allocation
        with handle:
            count("ignored")
            gauge("ignored", 1.0)
            gauge_add("ignored", 1.0)
            point("ignored", 1.0, 2.0)
        assert current_recorder() is None

    def test_install_and_uninstall(self):
        recorder = Recorder(clock=FakeClock())
        with recording(recorder):
            assert current_recorder() is recorder
            count("seen")
        assert current_recorder() is None
        count("unseen")
        assert phase("unseen") is NULL_PHASE
        assert recorder.counter_totals == {"seen": 1}

    def test_recording_restores_previous_recorder(self):
        outer_recorder = Recorder(clock=FakeClock())
        with recording(outer_recorder):
            with recording() as inner_recorder:
                assert current_recorder() is inner_recorder
                count("inner")
            assert current_recorder() is outer_recorder
            count("outer")
        assert current_recorder() is None
        assert outer_recorder.counter_totals == {"outer": 1}
        assert inner_recorder.counter_totals == {"inner": 1}

    def test_module_helpers_route_to_active_recorder(self):
        with recording(Recorder(clock=FakeClock(tick=1.0))) as recorder:
            with phase("phase", cycle=1):
                count("pairs", 5)
                gauge("occupancy", 3.0)
                gauge_add("occupancy", -1.0)
                point("gr", 1.0, 0.25)
        kinds = [event.kind for event in recorder.events]
        assert kinds == ["span", "counter", "gauge", "gauge", "point"]
        assert recorder.events[0].attrs == {"cycle": 1}
        assert recorder.events[3].value == 2.0  # gauge_add: last reading - 1
        assert all(event.parent == 0 for event in recorder.events[1:])


class TestTelemetry:
    def _recorded(self) -> Recorder:
        recorder = Recorder(clock=FakeClock(tick=1.0))
        with recorder.span("cycle"):
            with recorder.span("sampling"):
                recorder.counter("pairs", 10)
            with recorder.span("inversion"):
                recorder.point("gr", 1.0, 0.5)
        return recorder

    def test_phase_tree_paths_counts_and_self_time(self):
        telemetry = RunTelemetry.from_recorder(self._recorded())
        paths = [stat.path for stat in telemetry.phases]
        assert paths == ["cycle", "cycle/sampling", "cycle/inversion"]
        cycle = telemetry.phase("cycle")
        assert isinstance(cycle, PhaseStat)
        assert cycle.count == 1
        sampling = telemetry.phase("cycle/sampling")
        inversion = telemetry.phase("cycle/inversion")
        # self time of the parent excludes both children
        expected_self = cycle.total_seconds - (
            sampling.total_seconds + inversion.total_seconds
        )
        assert cycle.self_seconds == pytest.approx(expected_self)
        assert telemetry.phase("absent") is None

    def test_counters_series_and_dict_view(self):
        telemetry = RunTelemetry.from_recorder(self._recorded())
        assert telemetry.counters == {"pairs": 10}
        assert telemetry.series["gr"] == ((1.0, 0.5),)
        assert telemetry.series_values("gr") == [0.5]
        assert telemetry.series_values("absent") == []
        payload = telemetry.to_dict()
        assert payload["counters"] == {"pairs": 10}
        assert payload["series"] == {"gr": [[1.0, 0.5]]}
        assert [phase["path"] for phase in payload["phases"]] == [
            "cycle",
            "cycle/sampling",
            "cycle/inversion",
        ]
        json.dumps(payload)  # JSON-serializable all the way down

    def test_open_spans_are_excluded_from_phases(self):
        recorder = Recorder(clock=FakeClock(tick=1.0))
        recorder.span("left-open")
        telemetry = RunTelemetry.from_recorder(recorder)
        assert telemetry.phases == ()

    def test_mark_scopes_telemetry_to_one_run(self):
        recorder = Recorder(clock=FakeClock(tick=1.0))
        recorder.counter("first-run")
        mark = recorder.mark()
        recorder.counter("second-run")
        telemetry = RunTelemetry.from_recorder(recorder, mark)
        assert telemetry.counters == {"second-run": 1}


class TestExporters:
    def _recorded(self) -> Recorder:
        recorder = Recorder(clock=FakeClock(tick=1.0))
        with recorder.span("outer", cycle=1):
            recorder.counter("pairs", 2)
            recorder.counter("pairs", 3)
            recorder.gauge("occupancy", 4.0)
            recorder.point("gr", 1.0, 0.5)
        return recorder

    def test_jsonl_round_trip(self):
        recorder = self._recorded()
        rows = events_from_jsonl(to_jsonl(recorder))
        assert rows == event_dicts(recorder)
        assert [row["kind"] for row in rows] == [
            "span",
            "counter",
            "counter",
            "gauge",
            "point",
        ]
        assert rows[0]["end"] is not None
        assert rows[0]["attrs"] == {"cycle": 1}
        assert rows[4]["x"] == 1.0 and rows[4]["value"] == 0.5

    def test_chrome_trace_is_schema_valid(self):
        payload = chrome_trace(self._recorded())
        assert validate_chrome_trace(payload) == []
        # survives JSON round-trip (what a viewer actually loads)
        assert validate_chrome_trace(json.loads(json.dumps(payload))) == []

    def test_chrome_trace_shapes(self):
        payload = chrome_trace(self._recorded(), process_name="test")
        events = payload["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[0]["args"] == {"name": "test"}
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == 1
        assert complete[0]["name"] == "outer"
        assert complete[0]["dur"] > 0
        counters = [event for event in events if event["ph"] == "C"]
        # two counter bumps (running totals), one gauge, one point
        assert [event["args"] for event in counters] == [
            {"pairs": 2.0},
            {"pairs": 5.0},
            {"occupancy": 4.0},
            {"gr": 0.5},
        ]

    def test_chrome_trace_open_span_becomes_begin_event(self):
        recorder = Recorder(clock=FakeClock(tick=1.0))
        recorder.span("unfinished")
        payload = chrome_trace(recorder)
        assert validate_chrome_trace(payload) == []
        phases = [event["ph"] for event in payload["traceEvents"]]
        assert "B" in phases and "X" not in phases

    def test_validate_chrome_trace_rejects_garbage(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        bad = {"traceEvents": [{"ph": "Z", "name": "", "ts": -1}]}
        problems = validate_chrome_trace(bad)
        assert len(problems) >= 3

    def test_summary_tree_renders_phases_counters_series(self):
        text = summary_tree(self._recorded())
        assert "outer" in text
        assert "pairs" in text and "5" in text
        assert "gr" in text and "1 points" in text

    def test_write_trace_formats(self, tmp_path):
        recorder = self._recorded()
        jsonl_path = tmp_path / "trace.jsonl"
        write_trace(recorder, jsonl_path, format="jsonl")
        assert events_from_jsonl(jsonl_path.read_text()) == event_dicts(recorder)
        chrome_path = tmp_path / "trace.json"
        write_trace(recorder, chrome_path, format="chrome")
        assert validate_chrome_trace(json.loads(chrome_path.read_text())) == []
        summary_path = tmp_path / "trace.txt"
        write_trace(recorder, summary_path, format="summary")
        assert "outer" in summary_path.read_text()
        with pytest.raises(ValueError):
            write_trace(recorder, tmp_path / "x", format="yaml")


class TestEndToEnd:
    def test_eulerfd_trace_has_nested_double_cycle_spans(self, patient_relation):
        with recording() as recorder:
            EulerFD().discover(patient_relation)
        by_name: dict[str, Event] = {}
        for event in recorder.span_events():
            by_name.setdefault(event.name, event)
        for name in ("discover", "preprocess", "cycle", "sampling", "inversion"):
            assert name in by_name, f"missing span {name!r}"
            assert by_name[name].end is not None
        discover_span = by_name["discover"]
        assert discover_span.parent is None
        assert by_name["preprocess"].parent == discover_span.seq
        assert by_name["cycle"].parent == discover_span.seq
        assert by_name["sampling"].parent == by_name["cycle"].seq
        assert by_name["inversion"].parent == by_name["cycle"].seq
        payload = chrome_trace(recorder)
        assert validate_chrome_trace(payload) == []

    def test_eulerfd_gr_ncover_series_descends_to_threshold(self):
        relation = registry.make("echocardiogram", rows=200, seed=3)
        with recording():
            result = EulerFD().discover(relation)
        telemetry = result.telemetry
        assert telemetry is not None
        values = telemetry.series_values("gr_ncover")
        assert len(values) >= 2
        assert all(a >= b for a, b in zip(values, values[1:])), values
        assert values[-1] <= EulerFDConfig().th_ncover
        # the second-cycle trajectory exists too
        assert telemetry.series_values("gr_pcover")

    def test_telemetry_counters_match_legacy_stats(self, patient_relation):
        with recording():
            result = EulerFD().discover(patient_relation)
        counters = result.telemetry.counters
        assert counters["sampler.pairs_compared"] == result.stats["pairs_compared"]
        assert counters["sampler.new_non_fds"] == result.stats["new_non_fds"]
        assert counters["inverter.non_fds_inverted"] > 0

    def test_discover_span_wraps_every_registered_algorithm(self, tiny_relation):
        for key in ("eulerfd", "tane", "fdep", "hyfd", "aidfd"):
            with recording() as recorder:
                create(key).discover(tiny_relation)
            roots = [
                event for event in recorder.span_events() if event.parent is None
            ]
            assert [event.name for event in roots] == ["discover"], key
            assert roots[0].attrs["relation"] == tiny_relation.name

    def test_untraced_run_records_nothing_and_matches_traced_fds(
        self, patient_relation
    ):
        plain = EulerFD().discover(patient_relation)
        assert plain.telemetry is None
        with recording() as recorder:
            traced = EulerFD().discover(patient_relation)
        assert recorder.events  # the same code path emitted events when on
        assert traced.fds == plain.fds
        assert traced.stats.keys() == plain.stats.keys()
        assert "telemetry" not in plain.to_dict()
        assert "telemetry" in traced.to_dict()

    def test_bench_runner_trace_flag(self, patient_relation):
        factory = default_algorithms()["EulerFD"]
        untraced = run_algorithm(factory, patient_relation)
        assert untraced.telemetry is None
        traced = run_algorithm(factory, patient_relation, trace=True)
        assert traced.telemetry is not None
        # Preprocessing happens when the runner builds the execution
        # context, before the run's telemetry slice starts; the run
        # itself still carries the discover phases and the engine's
        # cache counters.
        assert traced.telemetry.phase("discover/cycle") is not None
        from repro.engine import get_backend

        assert traced.backend == get_backend().name
        assert traced.partition_cache["hits"] > 0
        assert traced.fds == untraced.fds


class TestTraceCli:
    def test_trace_subcommand_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        status = cli_main(
            [
                "trace",
                "--dataset",
                "iris",
                "--rows",
                "60",
                "--seed",
                "1",
                "--trace-out",
                str(out),
                "--format",
                "chrome",
            ]
        )
        assert status == 0
        assert "wrote chrome trace" in capsys.readouterr().out
        assert validate_chrome_trace(json.loads(out.read_text())) == []

    def test_trace_main_prints_summary(self, capsys):
        status = trace_main(["--dataset", "iris", "--rows", "60", "--seed", "1"])
        assert status == 0
        out = capsys.readouterr().out
        assert "phases:" in out and "discover" in out

    def test_trace_main_jsonl_to_stdout(self, capsys):
        status = trace_main(
            ["--dataset", "iris", "--rows", "60", "--seed", "1", "--format", "jsonl"]
        )
        assert status == 0
        rows = events_from_jsonl(capsys.readouterr().out)
        assert any(row["kind"] == "span" for row in rows)
