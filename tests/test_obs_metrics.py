"""Tests for the obs front door's metrics and memory sinks, and their wiring.

Three layers are covered: the registry itself (deterministic bucketing
under a FakeClock, exporter round-trips), the front door (phase
histograms, the zero-overhead-when-disabled path, the name catalog), the
instrumented subsystems (partition-store byte accounting, mmap transport
gauges, worker-pool queue gauges, per-phase memory attribution, the
append phase), and the end-to-end ``repro-fd metrics`` /
``repro-metrics`` CLI.  The overhead test is the committed form of the
fast-path promise: the disabled front-door calls of one discover must
cost at most 2% of that discover's wall time.
"""

from __future__ import annotations

import ast
import json
import sys
import threading
import time
import tracemalloc
import urllib.request
from collections import Counter
from pathlib import Path

import pytest

import repro
import repro.engine.parallel as parallel_module
import repro.obs.front as front
from repro import obs
from repro.algorithms import create
from repro.cli import main as cli_main
from repro.cli import metrics_main, serve_scrape
from repro.core import IncrementalEulerFD
from repro.datasets import registry
from repro.engine import (
    ExecutionContext,
    WorkerPool,
    close_all_pools,
    use_context,
)
from repro.engine.shm import InlineMatrix, publish_matrix
from repro.engine.store import (
    CLUSTER_OVERHEAD_BYTES,
    ENTRY_OVERHEAD_BYTES,
    ROW_REF_BYTES,
    PartitionStore,
    partition_cost_bytes,
)
from repro.fd import attrset
from repro.obs import (
    NULL_PHASE,
    FakeClock,
    Histogram,
    MemoryProfiler,
    MetricsRegistry,
    collecting_metrics,
    count,
    current_recorder,
    exponential_buckets,
    gauge,
    gauge_add,
    memory_profiling,
    metrics_from_jsonl,
    metrics_jsonl,
    names,
    phase,
    point,
    prometheus_name,
    prometheus_text,
    recording,
)
from repro.relation import Relation
from repro.relation.preprocess import preprocess

_FRONT_DOOR = ("phase", "count", "gauge", "gauge_add", "point")


# -- histograms and buckets ----------------------------------------------------


class TestExponentialBuckets:
    def test_default_ladder(self):
        bounds = exponential_buckets()
        assert len(bounds) == 16
        assert bounds[0] == pytest.approx(0.001)
        assert bounds[1] == pytest.approx(0.002)
        assert bounds[-1] == pytest.approx(0.001 * 2**15)

    def test_custom_ladder(self):
        assert exponential_buckets(1.0, 10.0, 3) == (1.0, 10.0, 100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start": 0.0},
            {"start": -1.0},
            {"growth": 1.0},
            {"growth": 0.5},
            {"count": 0},
        ],
    )
    def test_rejects_degenerate_ladders(self, kwargs):
        with pytest.raises(ValueError):
            exponential_buckets(**kwargs)


class TestHistogram:
    def test_bucketing_is_inclusive_upper_bound(self):
        histogram = Histogram((1.0, 2.0, 4.0))
        for value, index in [(0.5, 0), (1.0, 0), (1.5, 1), (2.0, 1), (3.0, 2)]:
            assert histogram.bucket_index(value) == index
        assert histogram.bucket_index(5.0) == 3  # the +Inf slot

    def test_observe_accumulates(self):
        histogram = Histogram((1.0, 2.0))
        for value in (0.5, 1.5, 1.6, 99.0):
            histogram.observe(value)
        assert histogram.counts == [1, 2, 1]
        assert histogram.total == pytest.approx(0.5 + 1.5 + 1.6 + 99.0)
        assert histogram.count == 4

    @pytest.mark.parametrize("bounds", [(), (2.0, 1.0), (1.0, 1.0)])
    def test_rejects_bad_bounds(self, bounds):
        with pytest.raises(ValueError):
            Histogram(bounds)


# -- the registry --------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_gauges_and_histograms(self):
        registry_ = MetricsRegistry()
        registry_.inc("c")
        registry_.inc("c", 2.5)
        registry_.gauge_set("g", 7.0)
        registry_.gauge_add("g", -2.0)
        registry_.gauge_max("m", 3.0)
        registry_.gauge_max("m", 1.0)  # lower: ignored
        registry_.observe("h", 0.01)
        snapshot = registry_.snapshot()
        assert snapshot["counters"] == {"c": 3.5}
        assert snapshot["gauges"] == {"g": 5.0, "m": 3.0}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_time_block_buckets_deterministically(self):
        # FakeClock(tick=1): enter reads 0, exit reads 1 -> duration 1.0,
        # which lands in the 1.024s bucket of the default ladder.
        registry_ = MetricsRegistry(clock=FakeClock(tick=1.0))
        with collecting_metrics(registry_):
            with phase("h"):
                pass
        histogram = registry_.histograms[names.phase_seconds("h")]
        assert histogram.count == 1
        assert histogram.total == pytest.approx(1.0)
        assert histogram.counts[histogram.bucket_index(1.0)] == 1
        assert histogram.bounds[histogram.bucket_index(1.0)] == pytest.approx(
            1.024
        )

    def test_configured_buckets_apply_per_name(self):
        registry_ = MetricsRegistry(buckets={"h": (1.0, 2.0)})
        registry_.observe("h", 1.5)
        registry_.observe("other", 1.5)
        assert registry_.histograms["h"].bounds == (1.0, 2.0)
        assert len(registry_.histograms["other"].bounds) == 16


class TestFrontDoor:
    def test_disabled_is_the_default(self):
        assert phase("p") is NULL_PHASE
        assert current_recorder() is None
        assert not tracemalloc.is_tracing()

    def test_disabled_helpers_are_noops_returning_null_handles(self):
        count("c")
        gauge("g", 1.0)
        gauge_add("g", 1.0)
        point("s", 1.0, 2.0)
        assert phase("h") is NULL_PHASE
        with phase("h"):
            pass
        assert not tracemalloc.is_tracing()

    def test_install_uninstall(self):
        registry_ = MetricsRegistry()
        with collecting_metrics(registry_) as installed:
            assert installed is registry_
            count("c")
        count("c")
        assert phase("p") is NULL_PHASE
        assert registry_.counters["c"] == 1.0

    def test_collecting_metrics_nests_and_restores(self):
        with collecting_metrics() as outer:
            inner_registry = MetricsRegistry()
            with collecting_metrics(inner_registry) as inner:
                assert inner is inner_registry
                count("c")
            count("c")
        count("c")
        assert inner_registry.counters["c"] == 1.0
        assert outer.counters["c"] == 1.0

    def test_observations_reach_the_registry_once(self):
        with collecting_metrics() as registry_:
            count("c", 2)
            gauge("g", 7.0)
            gauge_add("g", -2.0)
            point("s", 1.0, 0.25)
            point("s", 2.0, 0.5)
        snapshot = registry_.snapshot()
        assert snapshot["counters"] == {"c": 2.0}
        # a series keeps its latest y as a gauge
        assert snapshot["gauges"] == {"g": 5.0, "s": 0.5}

    def test_metric_time_records_on_the_active_registry(self):
        # a timed phase lands on the installed registry, read off its clock
        registry_ = MetricsRegistry(clock=FakeClock(tick=0.5))
        with collecting_metrics(registry_):
            with phase("h", ignored="attrs go to the trace only"):
                pass
        assert list(registry_.histograms) == ["phase.h.seconds"]
        assert registry_.histograms[names.phase_seconds("h")].total == (
            pytest.approx(0.5)
        )

    def test_phase_feeds_every_installed_sink(self):
        registry_ = MetricsRegistry(clock=FakeClock(tick=1.0))
        with recording() as recorder, collecting_metrics(registry_):
            with memory_profiling() as profiler:
                with phase("outer", cycle=1):
                    count("pairs", 3)
        (span,) = recorder.span_events()
        assert (span.name, span.attrs, span.end is not None) == (
            "outer",
            {"cycle": 1},
            True,
        )
        assert recorder.counter_totals == {"pairs": 3}
        assert registry_.counters == {"pairs": 3.0}
        assert registry_.histograms[names.phase_seconds("outer")].count == 1
        peak_name = names.phase_peak_bytes("outer")
        assert registry_.gauges[peak_name] == float(profiler.peaks[peak_name])

    def test_derived_names_borrow_the_phase_help(self):
        help_text = names.CATALOG[names.SAMPLING]
        assert names.metric_help("phase.sampling.seconds").endswith(help_text)
        assert names.metric_help("mem.phase.sampling.peak_bytes").endswith(
            help_text
        )
        assert names.metric_help("phase.uncatalogued.seconds") == ""
        registry_ = MetricsRegistry()
        registry_.observe(names.phase_seconds(names.SAMPLING), 0.5)
        text = prometheus_text(registry_)
        assert "# HELP repro_phase_sampling_seconds Wall seconds" in text


class TestDisabledFastPath:
    def test_fresh_thread_costs_what_a_primed_thread_costs(self):
        """A thread that never installed a recorder takes the same
        disabled path as one that did: no failed thread-local lookup, and
        nothing reaches another thread's recorder."""
        seen: dict[str, object] = {}

        def fresh() -> None:
            try:
                seen["recorder"] = front._thread.recorder
            except AttributeError as exc:  # pragma: no cover - the defect
                seen["recorder"] = exc
            count(names.SAMPLER_PASSES)
            with phase(names.SAMPLING):
                count(names.SAMPLER_PASSES)

        with recording() as recorder:
            assert front._installed > 0
            worker = threading.Thread(target=fresh)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert "recorder" in seen and seen["recorder"] is None
        assert recorder.events == []


def _disabled_cost_ns(loops: int, repeats: int) -> dict[str, float]:
    """Min-of-k nanoseconds per disabled front-door call, loop included."""
    name = names.SAMPLER_PASSES

    def counts() -> None:
        for _ in range(loops):
            count(name)

    def gauges() -> None:
        for _ in range(loops):
            gauge(name, 1.0)

    def gauge_adds() -> None:
        for _ in range(loops):
            gauge_add(name, 1.0)

    def points() -> None:
        for _ in range(loops):
            point(name, 1.0, 2.0, cycle=1)

    def phases() -> None:
        for _ in range(loops):
            with phase(name, cycle=1):
                pass

    def best(body) -> float:
        fastest = float("inf")
        for _ in range(repeats):
            start = time.perf_counter_ns()
            body()
            fastest = min(fastest, time.perf_counter_ns() - start)
        return fastest / loops

    return {
        "count": best(counts),
        "gauge": best(gauges),
        "gauge_add": best(gauge_adds),
        "point": best(points),
        "phase": best(phases),
    }


class TestCatalog:
    def test_catalog_is_exactly_the_front_door_names(self):
        """Every catalogued name is recorded by some front-door call in
        src/repro, and every constant a call passes is catalogued."""
        package = Path(repro.__file__).parent
        referenced: set[str] = set()
        for path in package.rglob("*.py"):
            if path.relative_to(package).parts[0] == "obs":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                called = func.id if isinstance(func, ast.Name) else None
                if called not in _FRONT_DOOR:
                    continue
                argument = node.args[0]
                assert isinstance(argument, ast.Name), (path, node.lineno)
                referenced.add(getattr(names, argument.id))
        assert set(names.CATALOG) - referenced == set()
        assert referenced - set(names.CATALOG) == set()


# -- exporters -----------------------------------------------------------------


class TestExporters:
    def _populated(self):
        registry_ = MetricsRegistry(buckets={"h.seconds": (0.1, 1.0)})
        registry_.inc(names.PARTITION_CACHE_HIT, 3)
        registry_.gauge_set(names.MMAP_FILES, 2.0)
        registry_.gauge_set("uncatalogued.gauge", 1.5)
        registry_.observe("h.seconds", 0.05)
        registry_.observe("h.seconds", 0.5)
        registry_.observe("h.seconds", 5.0)
        return registry_

    def test_prometheus_name_rewriting(self):
        assert (
            prometheus_name("engine.partition_cache.hit")
            == "repro_engine_partition_cache_hit"
        )
        assert prometheus_name("a-b c") == "repro_a_b_c"

    def test_prometheus_text_layout(self):
        text = prometheus_text(self._populated())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "repro_engine_partition_cache_hit 3" in lines
        assert "repro_engine_mmap_files 2" in lines
        assert "repro_uncatalogued_gauge 1.5" in lines
        assert (
            "# HELP repro_engine_partition_cache_hit "
            "Partition-store lookups served from cache" in lines
        )
        assert "# TYPE repro_engine_partition_cache_hit counter" in lines
        assert "# TYPE repro_engine_mmap_files gauge" in lines
        assert "# TYPE repro_h_seconds histogram" in lines
        # Uncatalogued names get TYPE but no HELP.
        assert not any("# HELP repro_uncatalogued_gauge" in l for l in lines)
        # Cumulative buckets: 1 at le=0.1, 2 at le=1.0, 3 at +Inf.
        assert 'repro_h_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_h_seconds_bucket{le="1.0"} 2' in lines
        assert 'repro_h_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_h_seconds_count 3" in lines

    def test_jsonl_round_trip_is_lossless(self):
        registry_ = self._populated()
        text = metrics_jsonl(registry_)
        for line in text.strip().splitlines():
            record = json.loads(line)
            assert record["kind"] in ("counter", "gauge", "histogram")
        rebuilt = metrics_from_jsonl(text)
        assert rebuilt.snapshot() == registry_.snapshot()

    def test_jsonl_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="unknown metrics record kind"):
            metrics_from_jsonl('{"kind": "mystery", "name": "x", "value": 1}\n')


# -- memory attribution --------------------------------------------------------


class TestMemoryProfiler:
    def test_disabled_is_the_default(self):
        assert not tracemalloc.is_tracing()
        assert phase("test.alloc") is NULL_PHASE

    def test_phase_peaks_are_recorded(self):
        with memory_profiling() as profiler:
            assert tracemalloc.is_tracing()
            with phase("test.alloc"):
                block = [0] * 200_000
            del block
        assert not tracemalloc.is_tracing()
        assert profiler.peaks["mem.phase.test.alloc.peak_bytes"] > 100_000

    def test_nested_phase_peak_propagates_to_parent(self):
        profiler = MemoryProfiler()
        with memory_profiling(profiler):
            with phase("outer"):
                with phase("inner"):
                    block = [0] * 200_000
                del block
        inner = profiler.peaks[names.phase_peak_bytes("inner")]
        assert inner > 100_000
        # The spike inside "inner" counts toward "outer" too.
        assert profiler.peaks[names.phase_peak_bytes("outer")] >= inner

    def test_peaks_land_on_the_registry_as_max_gauges(self):
        with collecting_metrics() as registry_:
            with memory_profiling() as profiler:
                with phase("test.alloc"):
                    block = [0] * 200_000
                del block
        peak_name = names.phase_peak_bytes("test.alloc")
        assert registry_.gauges[peak_name] == float(profiler.peaks[peak_name])


# -- partition-store byte accounting -------------------------------------------


def _wide_relation(rows: int = 60, width: int = 6):
    from repro.relation import Relation

    return Relation.from_rows(
        [tuple((r + c) % (rows // 3) for c in range(width)) for r in range(rows)],
        [f"c{i}" for i in range(width)],
        name="wide",
    )


class TestStoreByteAccounting:
    def test_cost_model_matches_the_formula(self):
        data = preprocess(_wide_relation())
        partition = data.stripped(0)
        cost = partition_cost_bytes(partition)
        assert cost == (
            ENTRY_OVERHEAD_BYTES
            + CLUSTER_OVERHEAD_BYTES * len(partition.clusters)
            + ROW_REF_BYTES * partition.num_grouped_rows
        )

    def test_resident_bytes_counts_pinned_entries(self):
        """Pinned entries count once built: a fresh store holds nothing
        (π(∅) and the singletons are still members), and the first get
        of a singleton adds exactly its cost, gauge included."""
        with collecting_metrics() as registry_:
            store = PartitionStore(preprocess(_wide_relation()))
            assert attrset.EMPTY in store and attrset.singleton(1) in store
            assert store.resident_bytes == 0
            partition = store.get(attrset.singleton(1))
        cost = partition_cost_bytes(partition)
        assert store.resident_bytes == cost
        assert registry_.gauges[names.PARTITION_CACHE_RESIDENT_BYTES] == cost
        assert store.stats()["evicted_bytes"] == 0

    def test_registry_sees_resident_bytes_and_eviction_bytes(self):
        data = preprocess(_wide_relation())
        with collecting_metrics() as registry_:
            store = PartitionStore(data, cache_size=4)
            store.get(attrset.singleton(0))  # pinned: a guaranteed hit
            width = data.num_columns
            for a in range(width):
                for b in range(a + 1, width):
                    store.get(attrset.from_indices([a, b]))
        assert registry_.gauges[names.PARTITION_CACHE_RESIDENT_BYTES] == float(
            store.resident_bytes
        )
        stats = store.stats()
        assert stats["evictions"] == width * (width - 1) // 2 - 4
        assert stats["evicted_bytes"] == store.evicted_bytes > 0
        assert store.hits > 0
        assert registry_.counters[names.PARTITION_CACHE_HIT] == store.hits
        assert registry_.counters[names.PARTITION_CACHE_EVICTED_BYTES] == float(
            store.evicted_bytes
        )


# -- transport and pool gauges----------------------------------------------------


np = pytest.importorskip("numpy")


@pytest.fixture(autouse=True)
def fresh_pools():
    close_all_pools()
    yield
    close_all_pools()


class TestShmGauges:
    def test_publish_and_cleanup_balance_the_gauges(self):
        matrix = np.zeros((64, 8), dtype=np.uint8)
        with collecting_metrics() as registry_:
            handle, cleanup = publish_matrix(matrix)
            assert registry_.gauges[names.MMAP_FILES] == 1.0
            assert registry_.gauges[names.MMAP_BYTES] == matrix.nbytes
            cleanup()
            assert registry_.gauges[names.MMAP_FILES] == 0.0
            assert registry_.gauges[names.MMAP_BYTES] == 0.0
            cleanup()  # idempotent: a second call must not go negative
            assert registry_.gauges[names.MMAP_FILES] == 0.0

    def test_inline_fallback_publishes_no_gauges(self, unwritable_temp_dir):
        matrix = np.zeros((8, 2), dtype=np.uint8)
        with collecting_metrics() as registry_:
            handle, cleanup = publish_matrix(matrix)
            cleanup()
        assert isinstance(handle, InlineMatrix)
        assert names.MMAP_FILES not in registry_.gauges

    def test_process_pool_publish_and_close(self):
        matrix = np.zeros((64, 8), dtype=np.uint8)
        pool = WorkerPool("process:2")
        with collecting_metrics() as registry_:
            pool.matrix_handle(matrix)
            pool.matrix_handle(matrix)  # cached: still one file
            assert registry_.gauges[names.MMAP_FILES] == 1.0
            assert registry_.gauges[names.MMAP_BYTES] == matrix.nbytes
            pool.close()
            assert registry_.gauges[names.MMAP_FILES] == 0.0
            assert registry_.gauges[names.MMAP_BYTES] == 0.0


def _echo_task(value):
    return value * 2, 0.0


class TestPoolGauges:
    def test_map_chunks_tracks_queue_and_dispatch(self):
        pool = WorkerPool("process:2")
        tasks = [(1,), (2,), (3,)]
        with collecting_metrics() as registry_:
            results = pool.map_chunks(_echo_task, tasks)
        pool.close()
        assert results == [2, 4, 6]
        assert registry_.gauges[names.POOL_WORKERS] == 2.0
        assert registry_.gauges[names.POOL_QUEUE_DEPTH] == 0.0
        assert registry_.counters[names.POOL_TASKS] == 1.0
        assert registry_.counters[names.POOL_CHUNKS] == 3.0

    def test_serial_fast_path_records_nothing(self):
        pool = WorkerPool()
        with collecting_metrics() as registry_:
            results = pool.map_chunks(_echo_task, [(1,), (2,)])
        assert results == [2, 4]
        assert registry_.snapshot()["gauges"] == {}
        assert registry_.snapshot()["counters"] == {}


# -- end-to-end: instrumented discover -----------------------------------------


class TestEndToEndDiscover:
    def test_metrics_enabled_discover_exports_everything(self, tmp_path):
        relation = registry.make("fd-reduced-30", rows=150, seed=5)
        with collecting_metrics() as registry_:
            with memory_profiling():
                context = ExecutionContext(relation)
                with use_context(context):
                    fds = create("eulerfd").discover(relation)
                    # EulerFD validates through its own double cycle;
                    # one explicit batch exercises the timed front door.
                    context.validate_many(list(fds)[:4])
                context.pool.close()
        snapshot = registry_.snapshot()
        assert snapshot["gauges"][names.PARTITION_CACHE_RESIDENT_BYTES] > 0
        for name in (
            names.PREPROCESS,
            names.CYCLE,
            names.SAMPLING,
            names.NCOVER,
            names.INVERSION,
        ):
            assert snapshot["gauges"][names.phase_peak_bytes(name)] >= 0
        assert names.phase_seconds(names.VALIDATE_MANY) in snapshot["histograms"]
        # Both exporters carry the same state.
        text = prometheus_text(registry_)
        assert "repro_engine_partition_cache_resident_bytes" in text
        assert "repro_mem_phase_preprocess_peak_bytes" in text
        rebuilt = metrics_from_jsonl(metrics_jsonl(registry_))
        assert rebuilt.snapshot() == snapshot

    def test_process_pool_run_exports_all_three_gauge_families(
        self, monkeypatch
    ):
        """The acceptance shape: one metrics-enabled run, scraped live,
        shows partition-cache bytes, mmap matrix files and memory peaks in
        both export formats."""
        monkeypatch.setattr(parallel_module, "MIN_PAIRS_PER_WORKER", 1)
        monkeypatch.setattr(parallel_module, "MIN_GROUPS_PER_WORKER", 1)
        relation = registry.make("fd-reduced-30", rows=150, seed=5)
        with collecting_metrics() as registry_:
            with memory_profiling():
                context = ExecutionContext(relation, jobs="process:2")
                with use_context(context):
                    create("hyfd").discover(relation)
                # Scrape before close: cleanup decrements the mmap gauges.
                text = prometheus_text(registry_)
                jsonl = metrics_jsonl(registry_)
                context.pool.close()
        exported = metrics_from_jsonl(jsonl).gauges
        assert exported[names.MMAP_FILES] >= 1.0
        assert exported[names.MMAP_BYTES] > 0
        assert exported[names.PARTITION_CACHE_RESIDENT_BYTES] > 0
        assert exported[names.phase_peak_bytes(names.SAMPLING)] >= 0
        assert "repro_engine_mmap_files" in text
        assert "repro_engine_partition_cache_resident_bytes" in text
        assert "repro_mem_phase_sampling_peak_bytes" in text
        # After close the live registry's file gauge drains to zero.
        assert registry_.gauges[names.MMAP_FILES] == 0.0


# -- the append phase ------------------------------------------------------------


class TestAppendPhase:
    def test_append_phase_covers_the_snapshot(self, monkeypatch):
        """The append histogram times the whole append, result included."""
        relation = registry.make("fd-reduced-30", rows=80, seed=5)
        rows = list(relation.iter_rows())
        session = IncrementalEulerFD(
            Relation.from_rows(rows[:64], relation.column_names)
        )
        clock = FakeClock()
        snapshot = IncrementalEulerFD._snapshot

        def slow_snapshot(self, watch):
            clock.advance(1.0)
            return snapshot(self, watch)

        monkeypatch.setattr(IncrementalEulerFD, "_snapshot", slow_snapshot)
        with collecting_metrics(MetricsRegistry(clock=clock)) as registry_:
            result = session.append(rows[64:])
        assert result.num_rows == 80
        histogram = registry_.histograms[names.phase_seconds(names.APPEND)]
        assert histogram.count == 1
        assert histogram.total == pytest.approx(1.0)
        assert registry_.counters[names.INCREMENTAL_ROWS_TOTAL] == 16.0

    def test_each_append_step_is_a_phase_inside_the_append(self):
        """Encode, compare, inversion and snapshot: one observation each
        per append, together within the append's own time."""
        relation = registry.make("fd-reduced-30", rows=80, seed=5)
        rows = list(relation.iter_rows())
        session = IncrementalEulerFD(
            Relation.from_rows(rows[:48], relation.column_names)
        )
        # tick=1: every phase lasts a whole number of readings, so the
        # sum below is exact.
        clock = FakeClock(tick=1.0)
        with collecting_metrics(MetricsRegistry(clock=clock)) as registry_:
            session.append(rows[48:64])
            session.append(rows[64:])
        histograms = registry_.histograms
        append = histograms[names.phase_seconds(names.APPEND)]
        steps = [
            histograms[names.phase_seconds(step)]
            for step in (
                names.APPEND_ROWS,
                names.APPEND_COMPARE,
                names.INVERSION,
                names.APPEND_SNAPSHOT,
            )
        ]
        assert append.count == 2
        assert [step.count for step in steps] == [2, 2, 2, 2]
        assert sum(step.total for step in steps) <= append.total


# -- the zero-overhead-when-disabled promise -----------------------------------


def _front_door_sites() -> list[tuple[object, str]]:
    """(module, name) for every front-door function a repro module imported."""
    sites = []
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if not module_name.startswith("repro.") or module_name.startswith(
            "repro.obs"
        ):
            continue
        for name in _FRONT_DOOR:
            if getattr(module, name, None) is getattr(obs, name):
                sites.append((module, name))
    return sites


class TestDisabledOverhead:
    def test_disabled_discover_within_two_percent_of_stubbed(self, monkeypatch):
        """The committed form of the fast-path promise (DESIGN.md §7).

        Every front-door call of one EulerFD discover is counted through
        stubs, and each kind of disabled call is timed as a min-of-k
        tight loop in a fresh thread (one that never held a recorder).
        The disabled calls of a discover — calls × per-call cost — must
        cost at most 2% of the best wall of the same discover with the
        whole front door stubbed out.  Summing per-call costs, instead of
        racing two whole discovers against each other, keeps host drift
        between runs out of the verdict.
        """
        import gc

        relation = registry.make("fd-reduced-30", rows=200, seed=5)

        def discover() -> float:
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                context = ExecutionContext(relation)
                with use_context(context):
                    create("eulerfd").discover(relation)
                return time.perf_counter() - start
            finally:
                gc.enable()

        sites = _front_door_sites()
        assert {module.__name__ for module, _ in sites} >= {
            "repro.algorithms.base",
            "repro.core.eulerfd",
            "repro.core.sampler",
            "repro.engine.context",
            "repro.fd.covers",
        }
        calls: Counter[str] = Counter()

        def counting(name: str):
            def stub(*args, **kwargs):
                calls[name] += 1
                return NULL_PHASE

            return stub

        def bare(*args, **kwargs):
            return NULL_PHASE

        with monkeypatch.context() as patches:
            for module, name in sites:
                patches.setattr(module, name, counting(name))
            discover()  # also warms dataset caches and code paths
        with monkeypatch.context() as patches:
            for module, name in sites:
                patches.setattr(module, name, bare)
            best_wall = min(discover() for _ in range(3))

        costs: dict[str, float] = {}
        worker = threading.Thread(
            target=lambda: costs.update(_disabled_cost_ns(loops=20_000, repeats=7))
        )
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        overhead = sum(calls[name] * costs[name] for name in calls) / 1e9
        # ~1.35k counts: per-event sampler sites (MLFQ demotions, window
        # hits), one ncover count per agree set that grew the cover;
        # inversion counts once per batch.
        assert calls["count"] > 1_000 and calls["phase"] > 0, calls
        assert overhead <= 0.02 * best_wall, (
            f"{sum(calls.values())} disabled front-door calls cost "
            f"{overhead * 1e3:.2f} ms, over 2% of the {best_wall:.3f} s "
            f"discover ({dict(calls)}, ns per call {costs})"
        )


# -- the metrics CLI -----------------------------------------------------------


class TestMetricsCli:
    def test_prometheus_dump_to_stdout(self, capsys):
        exit_code = cli_main(
            ["metrics", "--dataset", "fd-reduced-30", "--rows", "120"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "repro_engine_partition_cache_resident_bytes" in captured.out
        assert "repro_mem_phase_preprocess_peak_bytes" in captured.out
        assert "# TYPE" in captured.out
        assert "counters" in captured.err  # the summary line

    def test_jsonl_dump_to_file(self, tmp_path, capsys):
        out = tmp_path / "scrape.jsonl"
        exit_code = metrics_main(
            [
                "--dataset",
                "fd-reduced-30",
                "--rows",
                "120",
                "--format",
                "jsonl",
                "--out",
                str(out),
                "--no-memory",
            ]
        )
        assert exit_code == 0
        rebuilt = metrics_from_jsonl(out.read_text(encoding="utf-8"))
        assert rebuilt.gauges[names.PARTITION_CACHE_RESIDENT_BYTES] > 0
        # --no-memory: the run skips tracemalloc, so no mem.phase gauges.
        assert not [name for name in rebuilt.gauges if name.startswith("mem.")]
        # every EulerFD phase reports a latency histogram, and the
        # sampler, cover and inversion counters reach the scrape
        for name in (
            names.DISCOVER,
            names.PREPROCESS,
            names.CYCLE,
            names.SAMPLING,
            names.NCOVER,
            names.INVERSION,
        ):
            assert rebuilt.histograms[names.phase_seconds(name)].count > 0
        for name in (
            names.SAMPLER_PAIRS_COMPARED,
            names.NCOVER_ADDED,
            names.PCOVER_ADDED,
            names.INVERTER_NON_FDS_INVERTED,
        ):
            assert rebuilt.counters[name] > 0
        assert "wrote jsonl scrape" in capsys.readouterr().err

    def test_serve_scrape_answers_on_metrics_path(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        payload = "repro_test_gauge 1\n"
        server = threading.Thread(
            target=serve_scrape, args=(payload, port), daemon=True
        )
        server.start()
        for _ in range(50):
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=1
                ) as response:
                    assert response.status == 200
                    assert response.read().decode() == payload
                break
            except OSError:
                time.sleep(0.05)
        else:
            pytest.fail("scrape server never came up")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/other", timeout=1
            )
        assert excinfo.value.code == 404
