"""Continuous-ingest simulator: delta appends vs full re-discovery.

Simulates a table under steady insert load (the DMS setting of the
paper's Section V-G): a base prefix is profiled once, then batches of
new rows stream into :class:`~repro.core.IncrementalEulerFD`, whose
delta execution engine (DESIGN.md §12) extends the preprocessed label
matrix and partition store in place.  After every append the
simulator reports the append latency next to the cost of re-discovering
the grown prefix from scratch, and at the end estimates the crossover —
the batch size past which re-running stops being slower.

Usage::

    PYTHONPATH=src python benchmarks/bench_ingest.py \
        [--dataset fd-reduced-30] [--rows 2000] [--base-rows 1500] \
        [--batch-size 64] [--batches 6] [--backend python] \
        [--jobs process:4] [--quick] [--check-equivalence] [--json out.json]

``--check-equivalence`` runs the stream with an exhaustive base profile
and asserts, after every batch, that the delta-maintained FD set is
identical to exhaustive from-scratch discovery on the grown prefix —
the smoke the CI ``incremental`` job gates on.  The backend honours
``REPRO_BACKEND`` when ``--backend`` is omitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.algorithms import EulerFD
from repro.bench.runner import run_algorithm
from repro.core import IncrementalEulerFD
from repro.datasets import make
from repro.engine import close_all_pools
from repro.obs import monotonic
from repro.relation import Relation


def rediscover_seconds(relation, backend, jobs) -> float:
    """Wall time of one full EulerFD run over ``relation``."""
    run = run_algorithm(EulerFD, relation, backend=backend, jobs=jobs)
    return run.seconds if run.seconds is not None else float("inf")


def exhaustive_fds(relation, backend):
    """The exact FD set: every tuple pair, via the incremental engine."""
    session = IncrementalEulerFD(
        relation, exhaustive_base=True, backend=backend
    )
    return session.current_result().fds


def simulate(args: argparse.Namespace) -> dict:
    relation = make(args.dataset, rows=args.rows, seed=args.seed)
    rows = list(relation.iter_rows())
    base_rows = args.base_rows
    if base_rows is None:
        base_rows = max(1, len(rows) - args.batch_size * args.batches)
    base = Relation.from_rows(rows[:base_rows], relation.column_names)

    session = IncrementalEulerFD(
        base,
        exhaustive_base=args.check_equivalence,
        jobs=args.jobs,
        backend=args.backend,
    )
    shown_backend = args.backend or os.environ.get("REPRO_BACKEND", "default")
    print(
        f"ingest: {args.dataset} base={base_rows} rows, "
        f"batch={args.batch_size}, backend={shown_backend}"
    )

    steps = []
    cursor = base_rows
    for step in range(args.batches):
        batch = rows[cursor : cursor + args.batch_size]
        if not batch:
            break
        cursor += len(batch)
        start = monotonic()
        result = session.append(batch)
        append_seconds = monotonic() - start

        grown = Relation.from_rows(rows[:cursor], relation.column_names)
        full_seconds = rediscover_seconds(grown, args.backend, args.jobs)
        speedup = full_seconds / append_seconds if append_seconds else None
        store = session.context.partitions.stats()
        record = {
            "step": step + 1,
            "rows": cursor,
            "batch_rows": len(batch),
            "append_seconds": append_seconds,
            "full_seconds": full_seconds,
            "speedup": speedup,
            "fd_count": len(result.fds),
            "pairs_compared": result.stats["pairs_compared"],
            "delta_applied": store.get("delta_applied", 0),
            "delta_rebuilt": store.get("delta_rebuilt", 0),
        }
        if args.check_equivalence:
            oracle = exhaustive_fds(grown, args.backend)
            record["equivalent"] = result.fds == oracle
            if not record["equivalent"]:
                print(
                    f"step {step + 1}: MISMATCH — delta cover diverged "
                    f"from from-scratch discovery at {cursor} rows",
                    file=sys.stderr,
                )
        steps.append(record)
        line = (
            f"step {record['step']:>3}  rows={record['rows']:<6} "
            f"append {append_seconds * 1000:8.1f} ms   "
            f"full {full_seconds * 1000:8.1f} ms   "
            f"speedup {speedup:6.1f}x"
        )
        if args.check_equivalence:
            line += "   exact" if record["equivalent"] else "   DIVERGED"
        print(line)

    crossover = estimate_crossover(steps)
    if crossover is not None:
        print(
            f"crossover: appends stay ahead of re-discovery up to "
            f"~{crossover} rows per batch"
        )
    document = {
        "dataset": args.dataset,
        "rows": args.rows,
        "base_rows": base_rows,
        "batch_size": args.batch_size,
        "backend": shown_backend,
        "jobs": args.jobs,
        "check_equivalence": args.check_equivalence,
        "steps": steps,
        "crossover_batch_rows": crossover,
    }
    return document


def estimate_crossover(steps: list[dict]) -> int | None:
    """Extrapolated batch size where append latency meets re-discovery.

    Append cost is near-linear in the batch (O(batch x cluster) pairs),
    so the measured per-row append latency of the last step projects the
    batch size whose absorption would cost as much as one full run.
    """
    if not steps:
        return None
    last = steps[-1]
    if not last["append_seconds"] or not last["batch_rows"]:
        return None
    per_row = last["append_seconds"] / last["batch_rows"]
    return int(last["full_seconds"] / per_row)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="fd-reduced-30")
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--base-rows",
        type=int,
        default=None,
        help="base prefix size (default: rows - batch-size * batches)",
    )
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--batches", type=int, default=6)
    parser.add_argument(
        "--backend", default=None, help="default: $REPRO_BACKEND or numpy"
    )
    parser.add_argument("--jobs", default=None)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: 400 rows, 3 batches of 16",
    )
    parser.add_argument(
        "--check-equivalence",
        action="store_true",
        help="exhaustive base + per-step exact-oracle comparison",
    )
    parser.add_argument(
        "--json", default=None, help="also write the step records as JSON"
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.rows = min(args.rows, 400)
        args.batch_size = 16
        args.batches = 3
    try:
        document = simulate(args)
    finally:
        close_all_pools()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote {args.json}")
    if args.check_equivalence and not all(
        step.get("equivalent", True) for step in document["steps"]
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
