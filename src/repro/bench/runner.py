"""Shared infrastructure for the experiment harness.

Every table/figure module in this package reduces to the same loop: build
a workload relation, run a set of algorithms on it, time them, and score
the approximate ones against an exact ground truth.  This module hosts
that loop plus the ground-truth cache and the paper-style row formatting
(TL/ML markers for budget blow-ups).

These harnesses regenerate the paper's tables and figures; the
repository's gated performance benchmark is ``benchmarks/e2e``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from ..algorithms import AidFd, EulerFD, Fdep, HyFD, Tane, TaneBudgetExceeded
from ..core.result import DiscoveryResult
from ..engine import Backend, ExecutionContext, WorkerPool, use_context
from ..fd import FD
from ..metrics import fd_set_metrics, timed
from ..obs import Recorder, RunTelemetry, recording
from ..relation.relation import Relation

SKIPPED_MEMORY = "ML"
"""Marker mirroring Table III's 'memory limit exceeded' entries."""

SKIPPED_TIME = "TL"
"""Marker mirroring Table III's 'time limit exceeded' entries."""


@dataclass
class AlgorithmRun:
    """Outcome of one algorithm on one workload.

    ``telemetry`` is populated only when the run was traced
    (``run_algorithm(..., trace=True)``); it carries the per-phase
    breakdown, counters and convergence series the ``repro.obs`` front
    door recorded, so tables can report *where* the seconds went.

    ``backend`` names the execution-engine backend the run used, and
    ``partition_cache`` holds this run's slice of the shared partition
    store's traffic (hits/misses/derives/evictions deltas) — nonzero
    hits on the second algorithm of a matrix are the cache paying off.

    ``jobs`` is the worker count of the run's pool (1 for serial) and
    ``parallel_efficiency`` is the run's worker busy time divided by
    ``wall × jobs`` — 1.0 means every worker was saturated for the whole
    run, small values mean the serial coordinator dominated.  ``None``
    on serial runs and runs whose pool never dispatched a chunk.
    """

    algorithm: str
    seconds: float | None
    fds: frozenset[FD] | None
    skipped: str | None = None
    stats: dict[str, Any] = field(default_factory=dict)
    telemetry: RunTelemetry | None = None
    backend: str | None = None
    partition_cache: dict[str, int] = field(default_factory=dict)
    jobs: int = 1
    parallel_efficiency: float | None = None

    @property
    def ok(self) -> bool:
        return self.skipped is None


def default_algorithms() -> dict[str, Callable[[], Any]]:
    """The five algorithms of Section V-A, in the paper's column order.

    Tane runs with a lattice-width budget standing in for the paper's
    32 GB memory limit; blowing it reports ``ML`` exactly as Table III
    does for the wide datasets.
    """
    return {
        "Tane": lambda: Tane(max_level_width=200_000),
        "Fdep": Fdep,
        "HyFD": HyFD,
        "AID-FD": AidFd,
        "EulerFD": EulerFD,
    }


def run_algorithm(
    factory: Callable[[], Any],
    relation: Relation,
    repeats: int = 1,
    trace: bool = False,
    context: ExecutionContext | None = None,
    backend: str | Backend | None = None,
    jobs: int | str | WorkerPool | None = None,
) -> AlgorithmRun:
    """Run one algorithm, translating budget blow-ups into skip markers.

    With ``trace=True`` a fresh :class:`repro.obs.Recorder` is installed
    for the duration of the run and the resulting :class:`RunTelemetry`
    is attached to the returned row.  Tracing off is the default and
    leaves benchmark numbers untouched — no recorder, no events.

    ``context`` installs a caller-owned :class:`ExecutionContext` for the
    run — the way the table harnesses share one partition cache across a
    whole algorithm matrix; without one, a private context is built here
    (honoring ``backend`` and ``jobs``) so the row can still report
    backend name, cache traffic and parallel efficiency.
    """
    algorithm = factory()
    if not trace:
        return _execute(algorithm, relation, repeats, context, backend, jobs)
    # The recorder goes on first so that, when the context is private,
    # its preprocess span and cache counters land in the telemetry too.
    with recording(Recorder()):
        return _execute(algorithm, relation, repeats, context, backend, jobs)


def _execute(
    algorithm: Any,
    relation: Relation,
    repeats: int,
    context: ExecutionContext | None,
    backend: str | Backend | None,
    jobs: int | str | WorkerPool | None = None,
) -> AlgorithmRun:
    if context is None:
        context = ExecutionContext(relation, backend=backend, jobs=jobs)
    pool = context.pool
    busy_before = pool.busy_seconds
    chunks_before = pool.chunks_dispatched
    try:
        before = context.partitions.stats()
        with use_context(context):
            run = timed(lambda: algorithm.discover(relation), repeats=repeats)
    except TaneBudgetExceeded:
        return AlgorithmRun(
            algorithm.name,
            None,
            None,
            skipped=SKIPPED_MEMORY,
            backend=context.backend.name,
            partition_cache=_cache_delta(before, context.partitions.stats()),
            jobs=pool.jobs,
        )
    except MemoryError:  # pragma: no cover - depends on host limits
        return AlgorithmRun(
            algorithm.name, None, None, skipped=SKIPPED_MEMORY, jobs=pool.jobs
        )
    result: DiscoveryResult = run.value
    return AlgorithmRun(
        algorithm=result.algorithm,
        seconds=run.seconds,
        fds=result.fds,
        stats=result.stats,
        telemetry=result.telemetry,
        backend=context.backend.name,
        partition_cache=_cache_delta(before, context.partitions.stats()),
        jobs=pool.jobs,
        parallel_efficiency=_efficiency(
            pool,
            busy_before,
            chunks_before,
            sum(run.all_seconds),
        ),
    )


def _efficiency(
    pool: WorkerPool,
    busy_before: float,
    chunks_before: int,
    wall_seconds: float,
) -> float | None:
    """Worker busy time over ``wall × jobs`` for one run's pool traffic.

    Pure: reads the pool's counters against the captured baselines.
    """
    if pool.is_serial or wall_seconds <= 0:
        return None
    if pool.chunks_dispatched == chunks_before:
        return None  # every batch fell below the dispatch thresholds
    return (pool.busy_seconds - busy_before) / (wall_seconds * pool.jobs)


def _cache_delta(
    before: dict[str, int], after: dict[str, int]
) -> dict[str, int]:
    """Partition-cache traffic attributable to one run of a shared store."""
    return {key: after[key] - before.get(key, 0) for key in after}


class GroundTruthCache:
    """Exact FD sets per workload, computed once and shared across rows.

    Fdep is the fastest exact algorithm on the scaled (row-limited)
    workloads the harness uses; HyFD takes over for tall relations where
    all-pairs comparison would dominate.
    """

    def __init__(self, tall_threshold: int = 3000) -> None:
        self.tall_threshold = tall_threshold
        self._cache: dict[str, frozenset[FD]] = {}

    def truth_for(self, relation: Relation) -> frozenset[FD]:
        key = f"{relation.name}:{relation.num_rows}x{relation.num_columns}"
        if key not in self._cache:
            if relation.num_rows > self.tall_threshold:
                oracle: Any = HyFD()
            else:
                oracle = Fdep()
            self._cache[key] = oracle.discover(relation).fds
        return self._cache[key]


def score(run: AlgorithmRun, truth: frozenset[FD]) -> float | None:
    """F1 of a completed run against the ground truth; None when skipped."""
    if run.fds is None:
        return None
    return fd_set_metrics(run.fds, truth).f1


def format_cell(value: float | str | None, precision: int = 3) -> str:
    """Uniform table-cell rendering: numbers, skip markers, blanks."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    return f"{value:.{precision}f}"


def print_table(
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
) -> None:
    """Plain-text table printer used by every bench target."""
    rows = [list(row) for row in rows]
    widths = [len(column) for column in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(name.ljust(width) for name, width in zip(header, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
