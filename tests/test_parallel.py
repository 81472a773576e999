"""The parallel execution engine: ``--jobs`` parsing, sharded kernels, and
the cross-worker determinism guarantee.

The load-bearing suite here is :class:`TestCrossWorkerDeterminism`: FD
sets *and* run statistics must be byte-identical for ``jobs`` in
{serial, 2, 4} across EulerFD / HyFD / Fdep on several synthetic
datasets.  The dispatch thresholds are forced down so even the small
test relations actually fan out; without that the pool would fall back
to the inline path and the tests would assert nothing.
"""

from __future__ import annotations

import glob
import os
import pickle
import tempfile

import numpy as np
import pytest

import repro.engine.parallel as parallel
import repro.engine.shm as shm
from repro.algorithms import create
from repro.bench.runner import run_algorithm
from repro.core import IncrementalEulerFD
from repro.datasets import registry
from repro.engine import (
    ExecutionContext,
    JOBS_ENV,
    WorkerPool,
    close_all_pools,
    get_pool,
    resolve_jobs,
    use_context,
)
from repro.engine.parallel import chunk_pairs, chunk_ranges, merge_chunked
from repro.obs import names
from repro.obs import collecting_metrics
from repro.relation import Relation
from repro.relation.preprocess import agree_words, preprocess


@pytest.fixture
def tiny_thresholds(monkeypatch):
    """Force dispatch on small inputs so parallel paths actually run."""
    monkeypatch.setattr(parallel, "MIN_PAIRS_PER_WORKER", 1)
    monkeypatch.setattr(parallel, "MIN_GROUPS_PER_WORKER", 1)


@pytest.fixture(autouse=True)
def fresh_pools():
    """Every test starts and ends without cached pools or live files."""
    close_all_pools()
    yield
    close_all_pools()


def _discover(algorithm: str, relation, jobs):
    context = ExecutionContext(relation, jobs=jobs)
    with use_context(context):
        result = create(algorithm).discover(relation)
    return result


# -- spec parsing --------------------------------------------------------------


class TestPoolSpec:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, ("serial", 1)),
            ("", ("serial", 1)),
            ("serial", ("serial", 1)),
            (1, ("serial", 1)),
            ("1", ("serial", 1)),
            (4, ("process", 4)),
            ("4", ("process", 4)),
            ("process:2", ("process", 2)),
            ("process:1", ("serial", 1)),
        ],
    )
    def test_parse(self, value, expected, monkeypatch):
        """A pool is its worker count: 1 runs inline, N >= 2 is a
        process pool."""
        monkeypatch.delenv(JOBS_ENV, raising=False)
        pool = WorkerPool(value)
        assert ("serial" if pool.is_serial else "process", pool.jobs) == expected

    def test_bare_kind_uses_cpu_count(self):
        assert resolve_jobs("process") >= 2
        assert not WorkerPool("process").is_serial

    @pytest.mark.parametrize("value", ["fiber:2", "process:0", "0", "thread:2"])
    def test_rejects_invalid(self, value):
        with pytest.raises(ValueError, match="serial, N, process or process:N"):
            resolve_jobs(value)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "process:2")
        assert resolve_jobs() == 2
        assert resolve_jobs("process:3") == 3
        monkeypatch.setenv(JOBS_ENV, "thread:2")
        with pytest.raises(ValueError, match="thread:2"):
            resolve_jobs()
        monkeypatch.delenv(JOBS_ENV)
        assert resolve_jobs() == 1

    def test_get_pool_caches_per_spec(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert get_pool("process:2") is get_pool(2)
        assert get_pool("process:2") is not get_pool("process:3")
        serial = get_pool(None)
        assert serial.is_serial and serial is get_pool("serial")
        assert serial is get_pool("process:1")


# -- chunk plans ---------------------------------------------------------------


class TestChunkPlans:
    @pytest.mark.parametrize("total,chunks", [(0, 4), (1, 4), (10, 3), (100, 7)])
    def test_ranges_cover_exactly_in_order(self, total, chunks):
        ranges = chunk_ranges(total, chunks)
        flat = [i for start, stop in ranges for i in range(start, stop)]
        assert flat == list(range(total))
        sizes = [stop - start for start, stop in ranges]
        assert sizes == sorted(sizes, reverse=True)  # never growing

    def test_pairs_preserve_order(self):
        rows_a, rows_b = list(range(10)), list(range(10, 20))
        chunks = chunk_pairs(rows_a, rows_b, 3)
        assert merge_chunked([list(a) for a, _ in chunks]) == rows_a
        assert merge_chunked([list(b) for _, b in chunks]) == rows_b


# -- kernel equivalence --------------------------------------------------------


@pytest.fixture(scope="module")
def sample_data():
    relation = registry.make("fd-reduced-30", rows=200, seed=11)
    return preprocess(relation, True)


KINDS = ["process:2"]


class TestShardedKernels:
    @pytest.mark.parametrize("jobs", KINDS)
    def test_agree_masks_match_serial(self, sample_data, jobs, tiny_thresholds):
        rows_a = np.arange(0, 150)
        rows_b = np.arange(50, 200)
        pool = get_pool(jobs)
        for distinct in (False, True):
            serial = agree_words(sample_data.matrix, rows_a, rows_b, distinct)
            sharded = parallel.agree_masks_sharded(
                pool, sample_data, rows_a, rows_b, distinct
            )
            assert np.array_equal(sharded, serial)
        assert pool.stats()["chunks"] > 0

    def test_pair_chunks_ship_as_index_arrays(
        self, sample_data, monkeypatch, tiny_thresholds
    ):
        """Workers receive ndarray slices, not boxed lists of indices."""
        pool = get_pool("process:2")
        shipped = []
        dispatch = pool.map_chunks

        def capture(fn, tasks):
            shipped.extend(tasks)
            return dispatch(fn, tasks)

        monkeypatch.setattr(pool, "map_chunks", capture)
        rows_a, rows_b = np.arange(0, 150), np.arange(50, 200)
        words = parallel.agree_masks_sharded(pool, sample_data, rows_a, rows_b)
        assert shipped
        for task in shipped:
            assert isinstance(task[1], np.ndarray)
            assert isinstance(task[2], np.ndarray)
        assert np.array_equal(words, agree_words(sample_data.matrix, rows_a, rows_b))

    @pytest.mark.parametrize("jobs", KINDS)
    def test_distinct_masks_match_serial(self, sample_data, jobs, tiny_thresholds):
        serial = parallel.distinct_agree_masks_sharded(get_pool("serial"), sample_data)
        sharded = parallel.distinct_agree_masks_sharded(get_pool(jobs), sample_data)
        # Row order, not just the set: first-occurrence order is what
        # downstream cover construction consumes.
        assert np.array_equal(sharded, serial)

    @pytest.mark.parametrize("jobs", KINDS)
    def test_validate_many_matches_serial(self, sample_data, jobs, tiny_thresholds):
        relation = sample_data.relation
        candidates = [
            fd
            for fd in create("fdep").discover(relation).fds
        ]
        serial = ExecutionContext(relation, jobs="serial").validate_many(
            candidates, witnesses=True
        )
        sharded = ExecutionContext(relation, jobs=jobs).validate_many(
            candidates, witnesses=True
        )
        assert sharded == serial

    def test_small_batches_stay_inline(self, sample_data):
        pool = get_pool("process:2")
        rows_a, rows_b = np.array([0, 1]), np.array([2, 3])
        assert np.array_equal(
            parallel.agree_masks_sharded(pool, sample_data, rows_a, rows_b),
            agree_words(sample_data.matrix, rows_a, rows_b),
        )
        assert pool.stats()["chunks"] == 0  # below threshold: no dispatch


# -- the determinism guarantee -------------------------------------------------


DATASETS = [
    ("fd-reduced-30", 300, 3),
    ("plista", 150, 7),
    ("balance-scale", 250, 1),
]
ALGORITHMS = ["eulerfd", "hyfd", "fdep"]


class TestCrossWorkerDeterminism:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("name,rows,seed", DATASETS)
    def test_fds_and_stats_identical_across_worker_counts(
        self, algorithm, name, rows, seed, tiny_thresholds
    ):
        relation = registry.make(name, rows=rows, seed=seed)
        baseline = _discover(algorithm, relation, "serial")
        for jobs in (2, 4):
            result = _discover(algorithm, relation, jobs)
            assert result.fds == baseline.fds, f"jobs={jobs}"
            assert result.stats == baseline.stats, f"jobs={jobs}"


class TestSamplerStaysInline:
    def test_eulerfd_sampling_dispatches_nothing(self, tiny_thresholds):
        """EulerFD's sampler compares every sample inline, even when the
        context's pool would shard a two-pair batch."""
        relation = registry.make("fd-reduced-30", rows=300, seed=3)
        pool = get_pool("process:2")
        pairs = [
            (
                _discover("eulerfd", relation, jobs),
                IncrementalEulerFD(relation, jobs=jobs).current_result(),
            )
            for jobs in ("serial", pool)
        ]
        assert pool.tasks_dispatched == 0
        for serial, fanned in zip(*pairs):
            assert fanned.fds == serial.fds
            assert fanned.stats == serial.stats


# -- backend equivalence under every pool ------------------------------------

SWEEP_DATASETS = (("echocardiogram", 90), ("bridges", 90), ("fd-reduced-30", 150))
SWEEP_ALGORITHMS = ("tane", "hyfd", "eulerfd")


class TestCrossBackendSweep:
    @pytest.mark.parametrize("dataset,rows", SWEEP_DATASETS)
    @pytest.mark.parametrize("algorithm", SWEEP_ALGORITHMS)
    @pytest.mark.parametrize("jobs", ["serial", "process:2"])
    def test_fd_sets_identical_across_backends(self, dataset, rows, algorithm, jobs):
        relation = registry.make(dataset, rows=rows, seed=7)
        results = {}
        for backend in ("numpy", "python"):
            context = ExecutionContext(relation, backend=backend, jobs=jobs)
            with use_context(context):
                results[backend] = create(algorithm).discover(relation).fds
        assert results["numpy"] == results["python"]


# -- the mmap matrix transport -------------------------------------------------


def _mmap_files() -> set[str]:
    pattern = os.path.join(tempfile.gettempdir(), f"{shm.MMAP_PREFIX}*")
    return set(glob.glob(pattern))


def _failing_task(handle, chunk):
    """Worker: resolve the published matrix, then fail."""
    rows = shm.resolve_matrix(handle).shape[0]
    raise KeyError(f"chunk {chunk} of {rows} rows failed")


class TestMatrixTransport:
    def test_publish_resolve_roundtrip(self, sample_data):
        before = _mmap_files()
        handle, cleanup = shm.publish_matrix(sample_data.matrix)
        try:
            assert isinstance(handle, shm.MmapMatrixRef)
            assert os.path.exists(handle.path)
            resolved = shm.resolve_matrix(handle)
            assert resolved.dtype == sample_data.matrix.dtype
            assert (resolved == sample_data.matrix).all()
        finally:
            cleanup()
        cleanup()  # idempotent
        assert not os.path.exists(handle.path)
        assert _mmap_files() == before

    def test_empty_relation_round_trip(self):
        """Zero rows must not try to mmap an empty file."""
        data = preprocess(Relation.from_rows([], ["a", "b"]))
        handle, cleanup = shm.publish_matrix(data.matrix)
        try:
            assert shm.resolve_matrix(handle).shape == (0, 2)
        finally:
            cleanup()

    def test_inline_fallback_roundtrip(self, sample_data, unwritable_temp_dir):
        handle, cleanup = shm.publish_matrix(sample_data.matrix)
        assert isinstance(handle, shm.InlineMatrix)
        assert shm.resolve_matrix(handle) is sample_data.matrix
        cleanup()

    def test_pickle_fallback_roundtrip(self, sample_data, unwritable_temp_dir):
        """Process pools ship the inline fallback by pickling it per task."""
        handle, cleanup = shm.publish_matrix(sample_data.matrix)
        shipped = pickle.loads(pickle.dumps(handle))
        resolved = shm.resolve_matrix(shipped)
        assert resolved.dtype == sample_data.matrix.dtype
        assert (resolved == sample_data.matrix).all()
        cleanup()

    def test_discovery_on_inline_fallback(self, unwritable_temp_dir, tiny_thresholds):
        """An unwritable temp dir still parallelizes correctly."""
        relation = registry.make("fd-reduced-30", rows=300, seed=3)
        baseline = _discover("fdep", relation, "serial")
        result = _discover("fdep", relation, 2)
        assert result.fds == baseline.fds
        assert result.stats == baseline.stats

    def test_no_leaked_segments_after_close(self, sample_data, tiny_thresholds):
        # Snapshot first: only files *this* test publishes count, so a
        # stale file from an unrelated crashed process cannot flake us.
        before = _mmap_files()
        pool = get_pool("process:2")
        parallel.agree_masks_sharded(
            pool, sample_data, np.arange(150), np.arange(50, 200)
        )
        assert _mmap_files() - before
        close_all_pools()
        assert _mmap_files() - before == set()

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
    )
    def test_task_keeps_no_mapping(self, sample_data):
        """A task maps the matrix only while it runs, so unlinking a file
        frees its pages even while the worker process lives on."""
        handle, cleanup = shm.publish_matrix(sample_data.matrix)
        try:
            parallel._distinct_masks_task(handle, 0, 5)
        finally:
            cleanup()
        with open("/proc/self/maps") as maps:
            assert handle.path not in maps.read()

    def test_worker_failure_surfaces_and_releases(self, sample_data):
        """A raising worker task reaches the caller as its own exception,
        and closing the pool still unlinks the file and drains the gauges."""
        before = _mmap_files()
        with collecting_metrics() as registry_:
            pool = WorkerPool("process:2")
            handle = pool.matrix_handle(sample_data.matrix)
            assert registry_.gauges[names.MMAP_FILES] == 1.0
            with pytest.raises(KeyError, match="chunk 0 of 200 rows failed"):
                pool.map_chunks(_failing_task, [(handle, 0), (handle, 1)])
            pool.close()
        assert _mmap_files() - before == set()
        assert registry_.gauges[names.MMAP_FILES] == 0.0
        assert registry_.gauges[names.MMAP_BYTES] == 0.0

    def test_closed_pool_refuses_to_publish(self, sample_data):
        """A stale context must fail loudly, not orphan a fresh file."""
        pool = get_pool("process:2")
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.matrix_handle(sample_data.matrix)

    def test_pool_is_a_context_manager(self, sample_data, tiny_thresholds):
        before = _mmap_files()
        with WorkerPool(2) as pool:
            assert pool.jobs == 2
            parallel.agree_masks_sharded(
                pool, sample_data, np.arange(100), np.arange(50, 150)
            )
        assert pool._published == {}
        assert _mmap_files() - before == set()

    def test_close_unlinks_every_file_and_reraises_the_first_error(
        self, sample_data
    ):
        """A failing cleanup neither stops the later unlinks nor is lost."""
        before = _mmap_files()
        pool = WorkerPool(2)
        matrices = [sample_data.matrix.copy() for _ in range(3)]
        handles = [pool.matrix_handle(matrix) for matrix in matrices]
        keys = list(pool._published)
        originals = [pool._published[key][2] for key in keys]

        def failing(message):
            def cleanup():
                raise OSError(message)
            return cleanup

        for key, message in zip(keys[:2], ("first", "second")):
            ref, handle, _ = pool._published[key]
            pool._published[key] = (ref, handle, failing(message))
        with pytest.raises(OSError, match="first"):
            pool.close()
        assert pool._published == {}
        assert not os.path.exists(handles[2].path)
        for cleanup in originals[:2]:
            cleanup()
        assert _mmap_files() - before == set()

    def test_close_all_pools_closes_the_rest_and_propagates(self, monkeypatch):
        failing = get_pool("process:2")
        survivor = get_pool("process:3")

        def broken_close():
            raise RuntimeError("close failed")

        monkeypatch.setattr(failing, "close", broken_close)
        with pytest.raises(RuntimeError, match="close failed"):
            close_all_pools()
        assert survivor._closed
        assert parallel._POOLS == {}
        WorkerPool.close(failing)

    def test_pool_context_manager_closes_on_error(self):
        pool = WorkerPool(2)
        with pytest.raises(RuntimeError, match="boom"):
            with pool:
                raise RuntimeError("boom")
        with pytest.raises(RuntimeError, match="closed"):
            pool._ensure_executor()


# -- bench-harness surface -----------------------------------------------------


class TestBenchIntegration:
    def test_parallel_efficiency_populated(self, tiny_thresholds):
        relation = registry.make("fd-reduced-30", rows=300, seed=3)
        serial = run_algorithm(create("fdep").__class__, relation, jobs="serial")
        assert serial.jobs == 1 and serial.parallel_efficiency is None
        fanned = run_algorithm(
            create("fdep").__class__, relation, jobs="process:2"
        )
        assert fanned.jobs == 2
        assert fanned.parallel_efficiency is not None
        assert fanned.parallel_efficiency > 0
        assert fanned.fds == serial.fds
