"""The benchmark-trajectory harness: record + compare ``BENCH_N.json``.

The repo's perf history used to be one ad-hoc snapshot
(``benchmarks/results/BENCH_5.json``) with nothing to hold a second
measurement against it.  This module makes the trajectory a first-class,
regression-gated artifact:

* **A stable schema** (:data:`SCHEMA`, ``repro-bench/1``): one entry per
  ``dataset[rows x cols]/algorithm`` workload carrying every repeat's
  wall time, the per-phase self-time breakdown from
  :class:`~repro.obs.RunTelemetry`, peak tracemalloc / RSS bytes,
  partition-cache hit rate, and the jobs/backend the cell ran under.
* **`repro-bench record`** — measures the standard workload matrix and
  writes the JSON.  Wall times come from plain min-of-k repeats with
  *no* tracing and *no* tracemalloc (both skew the clock); one extra
  profiled pass per cell then supplies phases and memory attribution.
* **`repro-bench compare OLD NEW`** — a noise-aware gate.  For every
  workload present on both sides it takes best-of-repeats walls, the
  relative change ``(new - old) / old``, and an allowance that widens
  with measured spread: ``max(threshold, sigmas × pooled CV)`` where the
  coefficients of variation come from :class:`~repro.metrics.TimedRun`
  spread over the recorded repeats, plus a larger floor when either side
  has a single repeat (legacy snapshots).  Exit status 1 on regression —
  the contract the CI ``bench-regression`` job gates on.

Legacy ``BENCH_5.json`` (the pre-schema layout) loads through an
adapter, so the committed baseline is comparable without rewriting
history.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..algorithms import create
from ..core import IncrementalEulerFD
from ..datasets import registry
from ..engine import close_all_pools
from ..metrics import TimedRun
from ..obs import memory_profiling, monotonic, peak_rss_bytes
from ..relation import Relation
from .runner import AlgorithmRun, run_algorithm

SCHEMA = "repro-bench/1"
"""Schema tag every trajectory file written by this module carries."""

WORKLOADS = [
    ("fd-reduced-30", 2000, 5),
    ("plista", 300, 5),
    ("uniprot", 200, 5),
]
"""(dataset, rows, seed) — the standard matrix, matching BENCH_5's."""

QUICK_WORKLOADS = [("fd-reduced-30", 500, 5)]
"""The CI-sized cut used for fresh-runner smoke comparisons."""

ALGORITHMS = ["eulerfd", "hyfd", "fdep"]
QUICK_ALGORITHMS = ["eulerfd"]

APPEND_BATCHES = [1, 16, 64, 256]
"""Batch sizes of the delta-append series (``--append-series``)."""

APPEND_WORKLOADS = [("fd-reduced-30", 2000, 5)]
"""The dataset the append-vs-rediscovery series is recorded on."""

DEFAULT_REPEATS = 3
DEFAULT_THRESHOLD = 0.10
"""Relative slowdown tolerated even with zero measured noise."""

DEFAULT_SIGMAS = 3.0
"""Noise multiplier: allowance grows to ``sigmas × pooled CV``."""

SINGLE_SAMPLE_FLOOR = 0.25
"""Minimum allowance when either side recorded a single repeat."""


def host_fingerprint() -> dict[str, Any]:
    """The recording host's identity, stored alongside every trajectory.

    Cross-host comparisons are structurally fine but statistically
    meaningless; the compare CLI downgrades them to report-only unless
    forced with ``--strict``.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- recording -----------------------------------------------------------------


def _spread(all_seconds: list[float]) -> TimedRun:
    """The recorded repeats wrapped for TimedRun's spread statistics."""
    ordered = sorted(all_seconds)
    return TimedRun(
        value=None,
        seconds=ordered[len(ordered) // 2],
        repeats=len(ordered),
        all_seconds=tuple(all_seconds),
    )


def _hit_rate(partition_cache: dict[str, int]) -> float | None:
    hits = partition_cache.get("hits", 0)
    misses = partition_cache.get("misses", 0)
    if hits + misses == 0:
        return None
    return hits / (hits + misses)


def _profiled_pass(
    algorithm: str, relation: Any, jobs: str | None
) -> dict[str, Any]:
    """One traced + memory-profiled run supplying attribution fields.

    Kept strictly separate from the timed repeats: tracemalloc roughly
    halves interpreter speed and tracing allocates an event per counter
    bump, so folding either into the walls would poison comparability
    with snapshots recorded without them.
    """
    with memory_profiling() as profiler:
        traced = run_algorithm(
            create(algorithm).__class__,
            relation,
            trace=True,
            jobs=jobs,
        )
    phases: dict[str, float] = {}
    if traced.telemetry is not None:
        phases = {
            stat.path: stat.self_seconds for stat in traced.telemetry.phases
        }
    return {
        "phases": phases,
        "memory_phases": dict(sorted(profiler.peaks.items())),
        "peak_tracemalloc_bytes": profiler.run_peak(),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def _record_cell(
    algorithm: str,
    relation: Any,
    repeats: int,
    jobs: str | None,
    memory: bool,
) -> dict[str, Any]:
    run: AlgorithmRun = run_algorithm(
        create(algorithm).__class__,
        relation,
        repeats=repeats,
        jobs=jobs,
    )
    if not run.ok or run.seconds is None:
        return {"skipped": run.skipped}
    spread = _spread(list(run.all_seconds))
    entry: dict[str, Any] = {
        "wall_seconds": run.seconds,
        "best_seconds": spread.best,
        "stdev_seconds": spread.stdev,
        "all_seconds": list(run.all_seconds),
        "repeats": len(run.all_seconds),
        "fd_count": len(run.fds) if run.fds is not None else None,
        "jobs": run.jobs,
        "backend": run.backend,
        "cache_hit_rate": _hit_rate(run.partition_cache),
    }
    if memory:
        entry.update(_profiled_pass(algorithm, relation, jobs))
    return entry


def record_trajectory(
    bench_name: str,
    workloads: list[tuple[str, int, int]] | None = None,
    algorithms: list[str] | None = None,
    repeats: int = DEFAULT_REPEATS,
    jobs: str | None = None,
    memory: bool = True,
    description: str = "",
) -> dict[str, Any]:
    """Measure the workload matrix and return the trajectory document.

    Each cell runs ``repeats`` untraced wall-clock repeats (median and
    min are both kept) and, with ``memory`` on, one extra traced +
    tracemalloc'd pass for phase and memory attribution.
    """
    workloads = workloads if workloads is not None else WORKLOADS
    algorithms = algorithms if algorithms is not None else ALGORITHMS
    entries: dict[str, dict[str, Any]] = {}
    try:
        for name, rows, seed in workloads:
            relation = registry.make(name, rows=rows, seed=seed)
            for algorithm in algorithms:
                label = f"{name}[{rows}x{relation.num_columns}]/{algorithm}"
                entries[label] = _record_cell(
                    algorithm, relation, repeats, jobs, memory
                )
    finally:
        # A crashed workload must still unlink published files; only
        # the atexit hook would otherwise stand between us and orphans.
        close_all_pools()
    return {
        "schema": SCHEMA,
        "bench": bench_name,
        "description": description,
        "host": host_fingerprint(),
        "jobs": jobs or "serial",
        "repeats": repeats,
        "workloads": entries,
    }


# -- the append series (delta engine vs full re-discovery) ---------------------


def _append_cell(
    relation: Any,
    batch_rows: int,
    repeats: int,
    jobs: str | None,
) -> dict[str, Any]:
    """Time one delta append of the withheld last ``batch_rows`` rows.

    Every repeat rebuilds a fresh :class:`IncrementalEulerFD` session on
    the base prefix — base profiling is setup, excluded from the clock —
    then times a single ``append`` of the suffix.  ``full_seconds`` is
    best-of-repeats from-scratch EulerFD discovery on the grown relation
    under the same engine settings; ``speedup`` divides the two, the
    number the delta engine exists to maximize.
    """
    rows = list(relation.iter_rows())
    if batch_rows >= len(rows):
        return {"skipped": f"batch {batch_rows} >= relation {len(rows)}"}
    base = Relation.from_rows(
        rows[: len(rows) - batch_rows], relation.column_names
    )
    batch = rows[len(rows) - batch_rows :]
    walls: list[float] = []
    fd_count = None
    for _ in range(repeats):
        session = IncrementalEulerFD(base, jobs=jobs)
        start = monotonic()
        result = session.append(batch)
        walls.append(monotonic() - start)
        fd_count = len(result.fds)
    spread = _spread(walls)
    full: AlgorithmRun = run_algorithm(
        create("eulerfd").__class__,
        relation,
        repeats=repeats,
        jobs=jobs,
    )
    entry: dict[str, Any] = {
        "wall_seconds": spread.seconds,
        "best_seconds": spread.best,
        "stdev_seconds": spread.stdev,
        "all_seconds": walls,
        "repeats": repeats,
        "fd_count": fd_count,
        "jobs": jobs or 1,
        "backend": full.backend,
        "cache_hit_rate": None,
        "batch_rows": batch_rows,
        "base_rows": len(rows) - batch_rows,
    }
    if full.ok and full.seconds is not None:
        full_best = min(full.all_seconds)
        entry["full_seconds"] = full_best
        entry["full_all_seconds"] = list(full.all_seconds)
        entry["speedup"] = full_best / spread.best
    return entry


def record_append_series(
    workloads: list[tuple[str, int, int]] | None = None,
    batch_sizes: list[int] | None = None,
    repeats: int = DEFAULT_REPEATS,
    jobs: str | None = None,
) -> dict[str, dict[str, Any]]:
    """The append-latency cells: ``label/append[B]`` per batch size.

    Each cell records the latency of absorbing a batch of ``B`` rows
    through the delta engine next to the cost of full re-discovery on
    the same grown relation.  Reading the series across increasing ``B``
    locates the crossover — the batch size past which re-running from
    scratch stops being slower.  The labels only ever appear as 'added'
    against snapshots that predate the series, so the regression gate's
    comparability is preserved.
    """
    workloads = workloads if workloads is not None else APPEND_WORKLOADS
    batch_sizes = batch_sizes if batch_sizes is not None else APPEND_BATCHES
    entries: dict[str, dict[str, Any]] = {}
    try:
        for name, rows, seed in workloads:
            relation = registry.make(name, rows=rows, seed=seed)
            base = f"{name}[{rows}x{relation.num_columns}]"
            for batch_rows in batch_sizes:
                entries[f"{base}/append[{batch_rows}]"] = _append_cell(
                    relation, batch_rows, repeats, jobs
                )
    finally:
        close_all_pools()
    return entries


# -- loading (with the legacy BENCH_5 adapter) ---------------------------------


def _adapt_legacy(document: dict[str, Any]) -> dict[str, Any]:
    """Normalize a pre-schema baseline (BENCH_5 layout) to ``repro-bench/1``.

    Only the serial algorithm cells carry over — they are the
    single-repeat walls comparable with a serial re-record; kernel and
    seen-dict micro sections have no counterpart in the new schema.
    """
    entries: dict[str, dict[str, Any]] = {}
    for label, per_algorithm in document.get("algorithms", {}).items():
        for algorithm, cells in per_algorithm.items():
            serial = cells.get("serial")
            if not isinstance(serial, dict) or serial.get("seconds") is None:
                continue
            seconds = float(serial["seconds"])
            entries[f"{label}/{algorithm}"] = {
                "wall_seconds": seconds,
                "best_seconds": seconds,
                "stdev_seconds": 0.0,
                "all_seconds": [seconds],
                "repeats": 1,
                "fd_count": serial.get("fd_count"),
                "jobs": serial.get("jobs", 1),
                "backend": None,
                "cache_hit_rate": _hit_rate(serial.get("partition_cache", {})),
            }
    return {
        "schema": SCHEMA,
        "bench": document.get("bench", "legacy"),
        "description": document.get("description", ""),
        "host": document.get("host", {}),
        "jobs": "serial",
        "repeats": 1,
        "workloads": entries,
    }


def load_trajectory(path: str | Path) -> dict[str, Any]:
    """Read a trajectory file, adapting the legacy layout when needed."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if document.get("schema") == SCHEMA:
        return document
    if "algorithms" in document:
        return _adapt_legacy(document)
    raise ValueError(f"not a trajectory file: {path}")


# -- comparison ----------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """One workload's verdict: relative change against its allowance."""

    workload: str
    status: str
    """'ok', 'improvement', 'regression', 'added', 'removed' or 'skipped'."""
    old_best: float | None = None
    new_best: float | None = None
    rel_change: float | None = None
    allowance: float | None = None


def _entry_spread(entry: dict[str, Any]) -> TimedRun:
    return _spread([float(s) for s in entry["all_seconds"]])


def compare_entries(
    workload: str,
    old: dict[str, Any],
    new: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    sigmas: float = DEFAULT_SIGMAS,
    single_sample_floor: float = SINGLE_SAMPLE_FLOOR,
) -> Comparison:
    """Judge one workload: noise-aware relative change on best-of-k walls.

    The allowance is ``max(threshold, sigmas × pooled CV)`` where each
    side's coefficient of variation is ``TimedRun.stdev / median`` over
    its recorded repeats; a side with one repeat contributes no CV but
    raises the allowance to ``single_sample_floor`` since its noise is
    simply unknown.

    Pure: computes a verdict from the two entries.
    """
    if "skipped" in old or "skipped" in new:
        return Comparison(workload, "skipped")
    old_run = _entry_spread(old)
    new_run = _entry_spread(new)
    old_best, new_best = old_run.best, new_run.best
    rel = (new_best - old_best) / old_best
    pooled_cv = (
        (old_run.stdev / old_run.seconds) ** 2
        + (new_run.stdev / new_run.seconds) ** 2
    ) ** 0.5
    allowance = max(threshold, sigmas * pooled_cv)
    if old_run.repeats < 2 or new_run.repeats < 2:
        allowance = max(allowance, single_sample_floor)
    if rel > allowance:
        status = "regression"
    elif rel < -allowance:
        status = "improvement"
    else:
        status = "ok"
    return Comparison(workload, status, old_best, new_best, rel, allowance)


def compare_trajectories(
    old: dict[str, Any],
    new: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    sigmas: float = DEFAULT_SIGMAS,
    single_sample_floor: float = SINGLE_SAMPLE_FLOOR,
) -> list[Comparison]:
    """Every workload's verdict across two trajectory documents.

    Workloads present on only one side report as 'removed'/'added' —
    informational, never gating.  Results come back sorted by workload
    label so reports are stable.

    Pure: computes verdicts from the two documents.
    """
    old_entries = old["workloads"]
    new_entries = new["workloads"]
    comparisons = []
    for label in sorted(set(old_entries) | set(new_entries)):
        if label not in new_entries:
            comparisons.append(Comparison(label, "removed"))
        elif label not in old_entries:
            comparisons.append(Comparison(label, "added"))
        else:
            comparisons.append(
                compare_entries(
                    label,
                    old_entries[label],
                    new_entries[label],
                    threshold,
                    sigmas,
                    single_sample_floor,
                )
            )
    return comparisons


def same_host(old: dict[str, Any], new: dict[str, Any]) -> bool:
    """True when both trajectories were recorded on matching hosts."""
    old_host = old.get("host", {})
    new_host = new.get("host", {})
    return bool(old_host) and all(
        old_host.get(key) == new_host.get(key)
        for key in ("cpu_count", "platform")
    )


def _format_comparison(comparison: Comparison) -> str:
    if comparison.rel_change is None:
        return f"{comparison.status:>11}  {comparison.workload}"
    return (
        f"{comparison.status:>11}  {comparison.workload}  "
        f"{comparison.old_best:.3f}s -> {comparison.new_best:.3f}s  "
        f"({comparison.rel_change:+.1%}, allowed ±{comparison.allowance:.1%})"
    )


# -- CLI -----------------------------------------------------------------------


def _cmd_record(args: argparse.Namespace) -> int:
    output = Path(args.output)
    bench_name = args.bench_name or output.stem
    workloads = QUICK_WORKLOADS if args.quick else WORKLOADS
    algorithms = QUICK_ALGORITHMS if args.quick else ALGORITHMS
    document = record_trajectory(
        bench_name,
        workloads=workloads,
        algorithms=algorithms,
        repeats=args.repeats,
        jobs=args.jobs,
        memory=not args.no_memory,
        description=args.description,
    )
    if args.append_series:
        batch_sizes = (
            [int(token) for token in args.append_batches.split(",")]
            if args.append_batches
            else None
        )
        document["workloads"].update(
            record_append_series(
                workloads=QUICK_WORKLOADS if args.quick else None,
                batch_sizes=batch_sizes,
                repeats=args.repeats,
                jobs=args.jobs,
            )
        )
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {output}")
    for label, entry in document["workloads"].items():
        if "skipped" in entry:
            print(f"{label:44s} skipped ({entry['skipped']})")
            continue
        print(
            f"{label:44s} median {entry['wall_seconds']:.3f}s  "
            f"best {entry['best_seconds']:.3f}s  "
            f"±{entry['stdev_seconds']:.3f}s  x{entry['repeats']}"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    old = load_trajectory(args.old)
    new = load_trajectory(args.new)
    comparisons = compare_trajectories(
        old,
        new,
        threshold=args.threshold,
        sigmas=args.sigmas,
        single_sample_floor=args.single_sample_floor,
    )
    hosts_match = same_host(old, new)
    print(f"comparing {old.get('bench')} -> {new.get('bench')}")
    if not hosts_match:
        print(
            "note: host fingerprints differ; "
            + ("--strict gates anyway" if args.strict else "report-only")
        )
    for comparison in comparisons:
        print(_format_comparison(comparison))
    regressions = [c for c in comparisons if c.status == "regression"]
    if regressions and (hosts_match or args.strict):
        print(f"FAIL: {len(regressions)} regression(s)")
        return 1
    print("ok: no gating regressions")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bench`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Record and compare benchmark-trajectory snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="measure the workload matrix into a BENCH_N.json"
    )
    record.add_argument("--output", required=True, help="trajectory JSON path")
    record.add_argument(
        "--bench-name", default=None, help="defaults to the output stem"
    )
    record.add_argument("--description", default="")
    record.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    record.add_argument(
        "--jobs", default=None, help="pool spec for the cells (default serial)"
    )
    record.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized cut: one small workload, EulerFD only",
    )
    record.add_argument(
        "--append-series",
        action="store_true",
        help="also record delta-append latency vs full re-discovery cells",
    )
    record.add_argument(
        "--append-batches",
        default=None,
        help="comma-separated batch sizes for the append series",
    )
    record.add_argument(
        "--no-memory",
        action="store_true",
        help="skip the traced+tracemalloc attribution pass",
    )
    record.set_defaults(handler=_cmd_record)

    compare = sub.add_parser(
        "compare", help="gate NEW against OLD with noise-aware thresholds"
    )
    compare.add_argument("old")
    compare.add_argument("new")
    compare.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    compare.add_argument("--sigmas", type=float, default=DEFAULT_SIGMAS)
    compare.add_argument(
        "--single-sample-floor", type=float, default=SINGLE_SAMPLE_FLOOR
    )
    compare.add_argument(
        "--strict",
        action="store_true",
        help="gate on regressions even across differing hosts",
    )
    compare.set_defaults(handler=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-bench`` console script."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - module execution
    raise SystemExit(main())
