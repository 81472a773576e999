"""The worker pool: sharded agree-set sweeps and validation (DESIGN.md §9).

The large kernels of the reproduction — HyFD's and AID-FD's per-distance
sweeps, the Fdep and incremental agree-set sweeps, batched candidate
validation — are embarrassingly parallel *inside one step* while the
control loop around them (the seen-dict, covers, growth rates) must stay
sequential for the paper's results to replicate.  This module
supplies exactly that split: a :class:`WorkerPool` executes
deterministic chunk plans, and the coordinator keeps every stateful
merge.

Determinism is structural, not best-effort:

* chunks are cut in fixed order (:func:`chunk_ranges` /
  :func:`chunk_pairs` are pure functions of the input sizes);
* results are merged **by chunk index**, never by completion order;
* all state (seen-dicts, covers, growth rates) lives on the coordinator
  and consumes merged results in the same order the serial code would
  produce them.

Hence FD sets, run statistics and witnesses are byte-identical at any
worker count — the property the cross-worker determinism suite pins.

Execution modes, selected via ``--jobs`` on the CLIs or ``$REPRO_JOBS``:

* ``serial``, ``1``, ``process:1`` or unset — no executor, a plain loop:
  the default, whose behaviour (including traces) is bit-for-bit the
  pre-parallel code path;
* ``N`` or ``process:N`` — a ``ProcessPoolExecutor`` with N ≥ 2 workers;
  the label matrix ships once via a memory-mapped file
  (:mod:`repro.engine.shm`), and tasks carry only row indices;
* ``process`` — the same with one worker per CPU, at least two.

A pool is just its worker count.  EulerFD's sampler never fans out: its
MLFQ compares one small sample at a time, so a dispatch per sample adds
latency and no throughput.

Pools are cached per worker count (:func:`get_pool`) so repeated
contexts reuse one executor, and every pool is closed at interpreter
exit — shutting down executors and unlinking published matrix files.
"""

from __future__ import annotations

import atexit
import os
import weakref
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any

import numpy as np

from ..obs import count, gauge, gauge_add, monotonic, phase
from ..obs.names import (
    POOL_BUSY_SECONDS,
    POOL_CHUNKS,
    POOL_MAP,
    POOL_QUEUE_DEPTH,
    POOL_TASKS,
    POOL_WORKERS,
)
from ..relation.preprocess import agree_words, first_occurrences
from .shm import MatrixView, publish_matrix, resolve_matrix

JOBS_ENV = "REPRO_JOBS"
"""Environment variable supplying the default ``--jobs`` value."""

SERIAL = "serial"
PROCESS = "process"

MIN_PAIRS_PER_WORKER = 4096
"""Pairs below jobs × this run serially — chunk dispatch would dominate."""

MIN_GROUPS_PER_WORKER = 8
"""Distinct-LHS groups below jobs × this validate serially."""

CHUNKS_PER_WORKER = 4
"""Over-partitioning factor: more chunks than workers evens out skew."""


def resolve_jobs(jobs: "int | str | None" = None) -> int:
    """The worker count of a ``--jobs`` / ``$REPRO_JOBS`` value; 1 is serial.

    Resolution order: explicit argument, ``$REPRO_JOBS``, serial.
    ``""``, ``"serial"``, ``1`` and ``"process:1"`` mean serial; ``N``
    and ``"process:N"`` mean N process workers; a bare ``"process"``
    means one worker per CPU, at least two.  Anything else raises a
    :class:`ValueError` naming these forms.

    Pure: reads the environment only.
    """
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV) or SERIAL
    text = str(jobs).strip().lower()
    if text in ("", SERIAL):
        return 1
    if text == PROCESS:
        return max(os.cpu_count() or 1, 2)
    number = text.removeprefix(f"{PROCESS}:")
    if not number.isdecimal() or int(number) < 1:
        raise ValueError(
            f"invalid jobs {jobs!r}: expected serial, N, process or "
            "process:N with N >= 1"
        )
    return int(number)


# -- deterministic chunk plans -------------------------------------------------


def chunk_ranges(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``chunks`` contiguous ranges.

    Earlier ranges are never smaller than later ones and the
    concatenation of all ranges is exactly ``range(total)`` in order —
    the fixed chunk order every parallel kernel merges by.

    Pure: arithmetic on the two sizes only.
    """
    chunks = max(1, min(chunks, total)) if total else 0
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(chunks):
        size = total // chunks + (1 if index < total % chunks else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def chunk_pairs(
    rows_a: Sequence[int], rows_b: Sequence[int], chunks: int
) -> list[tuple[Sequence[int], Sequence[int]]]:
    """Cut a tuple-pair list into contiguous chunks, preserving order.

    Pure: slices the inputs; neither sequence is mutated.
    """
    return [
        (rows_a[start:stop], rows_b[start:stop])
        for start, stop in chunk_ranges(len(rows_a), chunks)
    ]


def merge_chunked(results: Sequence[list]) -> list:
    """Concatenate per-chunk result lists in chunk-index order.

    Pure: builds a fresh list from the chunk results.
    """
    merged: list = []
    for chunk in results:
        merged.extend(chunk)
    return merged


# -- worker-side entry points --------------------------------------------------
#
# Module-level functions so process executors pickle them by reference.
# Each returns ``(payload, busy_seconds)``; the busy time aggregates into
# the coordinator's ``engine.parallel.busy_seconds`` counter and the
# pool's ``parallel_efficiency`` statistic.


def _timed(fn: Callable[..., Any], *args: Any) -> tuple[Any, float]:
    start = monotonic()
    result = fn(*args)
    return result, monotonic() - start


def _agree_masks_task(
    handle: object, rows_a: np.ndarray, rows_b: np.ndarray, distinct: bool
) -> tuple[np.ndarray, float]:
    """Worker: agree words of one pair chunk, in pair order."""
    matrix = resolve_matrix(handle)
    return _timed(agree_words, matrix, rows_a, rows_b, distinct)


def _distinct_masks_task(
    handle: object, start: int, stop: int
) -> tuple[np.ndarray, float]:
    """Worker: distinct agree words of one anchor range, first-seen order."""
    matrix = resolve_matrix(handle)
    return _timed(_anchor_sweep, matrix, start, stop)


def _anchor_sweep(matrix: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Distinct agree words of all pairs anchored in ``[start, stop)``.

    Each anchor row is compared with every later row in one broadcast
    block.  Words come back in first-occurrence order (the order a serial
    scan of the range first sees them), so merging ranges in range order
    reproduces the serial insertion sequence at any worker count.

    Pure: reads the matrix only; returns a fresh array.
    """
    blocks = [
        agree_words(matrix, anchor, slice(anchor + 1, None), distinct=True)
        for anchor in range(start, stop)
    ]
    if not blocks:
        return agree_words(matrix, slice(0), slice(0))
    return first_occurrences(np.concatenate(blocks))


def _validate_task(
    handle: object,
    cardinalities: tuple[int, ...],
    backend_name: str,
    groups: list[tuple[int, list[tuple[int, int]]]],
    witnesses: bool,
) -> tuple[list[tuple[int, bool, tuple[int, int] | None]], float]:
    """Worker: validate one chunk of distinct-LHS groups.

    ``groups`` is ``[(lhs, [(result_index, rhs), ...]), ...]``; each LHS
    is folded into group keys exactly once, mirroring the serial
    ``validate_many`` loop.  Returns ``(result_index, holds, witness)``
    triples tagged with the coordinator's indices, so the merge is a
    plain indexed store regardless of chunk boundaries.
    """
    from .backends import get_backend

    start = monotonic()
    data = MatrixView(resolve_matrix(handle), cardinalities)
    backend = get_backend(backend_name)
    out: list[tuple[int, bool, tuple[int, int] | None]] = []
    for lhs, members in groups:
        keys = backend.group_keys(data, lhs)
        for index, rhs in members:
            if witnesses:
                pair = backend.witness(data, keys, rhs)
                out.append((index, pair is None, pair))
            else:
                out.append((index, backend.constant_on(data, keys, rhs), None))
    return out, monotonic() - start


# -- the pool ------------------------------------------------------------------


class WorkerPool:
    """A deterministic chunk executor with a published-matrix cache.

    The pool owns three things: the (lazily created) executor, the
    mmap publications of label matrices it has shipped to process
    workers, and the busy-time/task accounting surfaced as
    ``engine.parallel.*`` telemetry and ``parallel_efficiency``.
    """

    def __init__(self, jobs: "int | str" = 1) -> None:
        self.jobs = resolve_jobs(jobs)
        self._executor: ProcessPoolExecutor | None = None
        # id(matrix) -> (weakref to the matrix, handle, cleanup); the id
        # is re-validated through the weakref so a recycled id can never
        # alias a dead matrix's file.
        self._published: dict[int, tuple[weakref.ref, object, Callable[[], None]]] = {}
        self.tasks_dispatched = 0
        self.chunks_dispatched = 0
        self.busy_seconds = 0.0
        self._closed = False

    # -- identity ---------------------------------------------------------

    @property
    def is_serial(self) -> bool:
        return self.jobs == 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkerPool({self.jobs})"

    # -- statistics -------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Dispatch accounting: tasks, chunks, cumulative worker busy time."""
        return {
            "tasks": self.tasks_dispatched,
            "chunks": self.chunks_dispatched,
            "busy_seconds": self.busy_seconds,
        }

    # -- execution --------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        """Lazily build the executor the pool shuts down in :meth:`close`."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def map_chunks(
        self, fn: Callable[..., tuple[Any, float]], tasks: Sequence[tuple]
    ) -> list[Any]:
        """Run ``fn(*task)`` for every task; results in task order.

        ``fn`` must be a module-level function returning ``(payload,
        busy_seconds)``.  Futures are gathered by submission index — the
        merge-by-chunk-index rule — never by completion order.  On a
        serial pool this is a plain loop with no executor and no
        telemetry, keeping the default path bit-for-bit unchanged.
        """
        if self.is_serial or len(tasks) <= 1:
            results = []
            for task in tasks:
                payload, elapsed = fn(*task)
                self.busy_seconds += elapsed
                results.append(payload)
            return results
        executor = self._ensure_executor()
        gauge(POOL_WORKERS, float(self.jobs))
        gauge(POOL_QUEUE_DEPTH, float(len(tasks)))
        with phase(
            POOL_MAP,
            kernel=fn.__name__.strip("_"),
            chunks=len(tasks),
            jobs=self.jobs,
        ):
            futures = [executor.submit(fn, *task) for task in tasks]
            results = []
            for future in futures:
                payload, elapsed = future.result()
                self.busy_seconds += elapsed
                count(POOL_BUSY_SECONDS, elapsed)
                gauge_add(POOL_QUEUE_DEPTH, -1.0)
                results.append(payload)
        self.tasks_dispatched += 1
        self.chunks_dispatched += len(tasks)
        count(POOL_TASKS)
        count(POOL_CHUNKS, len(tasks))
        return results

    # -- matrix shipping --------------------------------------------------

    def matrix_handle(self, matrix: Any) -> object:
        """The transport handle workers resolve the matrix through.

        The matrix is published once to an mmap-backed temp file (inline
        fallback when the temp dir is unwritable) and the publication is
        reused for the matrix's lifetime.
        """
        if self._closed:
            # A closed pool must fail loudly here: publishing would
            # orphan the file (close() already ran and never reruns),
            # turning a stale-context bug into a resource leak.
            raise RuntimeError("worker pool is closed")
        key = id(matrix)
        entry = self._published.get(key)
        if entry is not None and entry[0]() is matrix:
            return entry[1]
        handle, cleanup = publish_matrix(matrix)

        def _forget(_ref: weakref.ref, key: int = key) -> None:
            self._published.pop(key, None)
            cleanup()

        self._published[key] = (weakref.ref(matrix, _forget), handle, cleanup)
        return handle

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Shut the executor down and unlink every published matrix file.

        Mutates: self
        """
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        # Every file must get its unlink attempt: close() never reruns
        # (_closed is already set), so aborting this loop on the first
        # failing cleanup would orphan every file after it.
        error: Exception | None = None
        for _, _, cleanup in list(self._published.values()):
            try:
                cleanup()
            except Exception as exc:
                error = error or exc
        self._published.clear()
        if error is not None:
            raise error

    def __enter__(self) -> "WorkerPool":
        """Use the pool as a context manager; :meth:`close` runs on exit."""
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc_value: "BaseException | None",
        traceback: "object | None",
    ) -> None:
        """Close the pool on block exit, exceptional or not.

        Mutates: self
        """
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


# -- the shared pool registry --------------------------------------------------

_POOLS: dict[int, WorkerPool] = {}


def get_pool(jobs: "int | str | None" = None) -> WorkerPool:
    """The shared pool for a jobs value (argument → ``$REPRO_JOBS`` → serial).

    Pools are cached per worker count so every context asking for
    ``--jobs 4`` reuses one executor and one published copy of each
    matrix; :func:`close_all_pools` runs at interpreter exit.
    """
    jobs = resolve_jobs(jobs)
    pool = _POOLS.get(jobs)
    if pool is None or pool._closed:
        pool = WorkerPool(jobs)
        _POOLS[jobs] = pool
    return pool


def close_all_pools() -> None:
    """Close every cached pool (executors down, matrix files unlinked)."""
    error: Exception | None = None
    for pool in list(_POOLS.values()):
        try:
            pool.close()
        except Exception as exc:
            error = error or exc
    _POOLS.clear()
    if error is not None:
        raise error


atexit.register(close_all_pools)


# -- sharded kernels -----------------------------------------------------------


def agree_masks_sharded(
    pool: WorkerPool,
    data: Any,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    distinct: bool = False,
) -> np.ndarray:
    """Agree words of a tuple-pair list, fanned out across the pool.

    Pair order is preserved exactly (chunks are contiguous slices of the
    index arrays, merged by index), so consumers folding the masks into
    seen-dicts and covers observe the serial sequence; with ``distinct``
    each chunk keeps first occurrences and the merge does once more, so
    the result is :func:`~repro.relation.preprocess.agree_words`'s at any
    worker count.  A serial pool, or fewer than ``jobs ×``
    :data:`MIN_PAIRS_PER_WORKER` pairs, runs inline: the comparison is
    one vectorized numpy call and not worth a dispatch.
    """
    if pool.is_serial or len(rows_a) < pool.jobs * MIN_PAIRS_PER_WORKER:
        return agree_words(data.matrix, rows_a, rows_b, distinct)
    handle = pool.matrix_handle(data.matrix)
    chunks = chunk_pairs(rows_a, rows_b, pool.jobs * CHUNKS_PER_WORKER)
    tasks = [(handle, chunk_a, chunk_b, distinct) for chunk_a, chunk_b in chunks]
    words = np.concatenate(pool.map_chunks(_agree_masks_task, tasks))
    return first_occurrences(words) if distinct else words


def distinct_agree_masks_sharded(pool: WorkerPool | None, data: Any) -> np.ndarray:
    """All-pairs distinct agree words (the Fdep sweep), sharded by anchor.

    Anchor ranges are contiguous and merged in range order; because each
    worker reports words in first-occurrence order, the merge keeps the
    serial scan's first-occurrence sequence at any worker count.
    """
    num_rows = data.num_rows
    if pool is None or pool.is_serial or num_rows < 2 or (
        num_rows * (num_rows - 1)
    ) // 2 < pool.jobs * MIN_PAIRS_PER_WORKER:
        return _anchor_sweep(data.matrix, 0, max(num_rows - 1, 0))
    handle = pool.matrix_handle(data.matrix)
    # Anchor i compares against n-1-i partners: costs fall linearly, so
    # over-partition and let the executor balance the tail.
    tasks = [
        (handle, start, stop)
        for start, stop in chunk_ranges(num_rows - 1, pool.jobs * CHUNKS_PER_WORKER)
    ]
    return first_occurrences(
        np.concatenate(pool.map_chunks(_distinct_masks_task, tasks))
    )


def validate_groups_sharded(
    pool: WorkerPool,
    data: Any,
    backend_name: str,
    groups: list[tuple[int, list[tuple[int, int]]]],
    witnesses: bool,
) -> list[tuple[int, bool, tuple[int, int] | None]]:
    """Validate distinct-LHS groups across the pool; results carry the
    coordinator's candidate indices so the caller stores them directly.

    Groups are chunked contiguously in sorted-LHS order and merged by
    chunk index; each group's keys are folded exactly once inside one
    worker (a group never straddles chunks), preserving the serial
    fold-per-distinct-LHS accounting.  Workers get the matrix through
    the pool's transport and the per-column cardinalities in the task.
    """
    handle = pool.matrix_handle(data.matrix)
    tasks = [
        (handle, data.cardinalities, backend_name, groups[start:stop], witnesses)
        for start, stop in chunk_ranges(len(groups), pool.jobs * CHUNKS_PER_WORKER)
    ]
    return merge_chunked(pool.map_chunks(_validate_task, tasks))
