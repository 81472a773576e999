# repro-lint: disable-file=RPR104 — the benchmark times the library from
# outside with its own clock; repro.obs is what later changes rewrite, so
# the harness must not depend on it.
"""The five workloads, and one measured run of one of them.

``run.py`` starts this file in a fresh subprocess with a pinned
environment and reads the JSON object it prints as its last line::

    python benchmarks/e2e/workloads.py --workload eulerfd-wide --seed 5 \\
        --seconds 10 --trace 0

Every workload is a closed loop with one client: an op starts after the
previous one returned, with a ``gc.collect()`` and a calibration sample
(:func:`calibration_kernel`) in between.  A discover op
is a cold ``create(algorithm).discover(relation)``; no context is shared
between ops, so every op pays preprocessing and encoding, as a library
user does.  An append op is one ``IncrementalEulerFD.append(batch)``.

Set-up is input generation, pool start and one untimed warm-up op (for
the append stream: the base profile); it runs :data:`SETUPS` times and
reports the median.  Untraced ops then run for ``--seconds`` (at least
:data:`MIN_OPS`).  With ``--trace 1`` untraced and traced ops alternate
in ABBA blocks instead, and the run reports the per-layer metrics of
:mod:`layers`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import Relation, create
from repro.core import DiscoveryResult, IncrementalEulerFD
from repro.engine import ExecutionContext, close_all_pools, use_context

import fingerprints
from fingerprints import SCALES, Dataset
from layers import Tracer, layer_metrics

SETUPS = 3
MIN_OPS = 3
BATCH_ROWS = 16
#: Rows profiled before the append stream starts, per scale.
STREAM_BASE_ROWS = {"full": 1500, "smoke": 200}
#: The median time of :func:`calibration_kernel` on the host the
#: baseline was recorded on (a 2-vCPU VM, Python 3.11).
CALIBRATION_REF_S = 0.011


def calibration_kernel() -> int:
    """Fixed interpreter and numpy work that uses none of the library.

    Shared hosts run faster or slower from minute to minute.  The kernel
    is timed between set-ups and ops, and each reported time is scaled by
    ``CALIBRATION_REF_S`` over the mean of the kernel times just before
    and just after it, so it reads as seconds on the reference host and
    a drift in host speed cancels.
    """
    table: dict[int, int] = {}
    total = 0
    for i in range(75_000):
        key = (i * 7919) % 4099
        total += table.get(key, 0)
        table[key] = i
    values = np.arange(100_000, dtype=np.int64)
    return total + int(np.bitwise_and(values, 7).sum())


@dataclass(frozen=True)
class Discover:
    """Cold discovery of one algorithm on one dataset role."""

    algorithm: str
    role: str
    jobs: str | None = None  # a fresh ExecutionContext(jobs=...) per op

    @property
    def exact(self) -> bool:
        return create(self.algorithm).kind == "exact"

    def op(self, relation: Relation) -> DiscoveryResult:
        if self.jobs is None:
            return create(self.algorithm).discover(relation)
        context = ExecutionContext(relation, jobs=self.jobs)
        with use_context(context):
            return create(self.algorithm).discover(relation)


@dataclass(frozen=True)
class AppendStream:
    """Profile a base prefix, then append the rest in fixed batches."""

    role: str = "stream"
    exact: bool = False  # the base profile samples


WORKLOADS: dict[str, Discover | AppendStream] = {
    "eulerfd-wide": Discover("eulerfd", "wide"),
    "eulerfd-tall": Discover("eulerfd", "tall"),
    "hyfd-validate": Discover("hyfd", "plista"),
    "fdep-pool": Discover("fdep", "wide", jobs="process:2"),
    "append-stream": AppendStream(),
}


class Reference:
    """Judges outputs: the run's first output against the committed
    fingerprint, every later one against the first (the code is seeded,
    so repeats must be identical)."""

    def __init__(self, dataset: Dataset, exact: bool) -> None:
        self.dataset = dataset
        self.exact = exact
        self.fds: frozenset | None = None
        self.found: fingerprints.CanonicalFDs | None = None
        self.fingerprint: dict[str, object] | None = None
        self.error: str | None = None
        self.matching = 0  # outputs identical to the first, the first included
        self.accuracy: dict[str, float] | None = None

    def check(self, result: DiscoveryResult) -> str | None:
        """The reason ``result`` is wrong, or None.

        Mutates: self
        """
        if self.fds is None:
            self.fds = result.fds
            self.found = fingerprints.canonical(result)
            self.fingerprint = fingerprints.fingerprint(self.found)
            if self.exact and self.fingerprint != fingerprints.committed(self.dataset):
                self.error = "exact output's fingerprint differs from the oracle's"
        elif result.fds != self.fds:
            return "output differs from the run's first output"
        self.matching += 1
        return self.error

    def finish(self, relation: Relation) -> str | None:
        """Score the first output against the exact FD set.

        The oracle runs only when the output's fingerprint differs from
        the committed one.  Returns what this finds wrong with the
        ``matching`` outputs that :meth:`check` passed, or None.

        Mutates: self
        """
        if self.found is None or self.error is not None:
            return None
        expected = fingerprints.committed(self.dataset)
        if self.fingerprint == expected:
            self.accuracy = {"precision": 1.0, "recall": 1.0, "f1": 1.0}
            return None
        exact = fingerprints.exact_fds(relation)
        if fingerprints.fingerprint(exact) != expected:
            self.error = "the oracle's fingerprint differs from the committed one"
        elif not fingerprints.is_antichain(self.found, relation.num_columns):
            self.error = "approximate output is not a per-RHS antichain"
        self.accuracy = fingerprints.accuracy(self.found, exact)
        return self.error


class Run:
    """Everything one run measured and how many of its ops failed.

    Set-ups and ops are kept as ``(wall_ns, k)``: ``k`` indexes the
    calibration sample taken just before them, ``k + 1`` the one just
    after.
    """

    def __init__(self, dataset: Dataset, exact: bool) -> None:
        self.reference = Reference(dataset, exact)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.calibration_ns: list[int] = []
        self.setups: list[tuple[int, int]] = []
        self.ops: list[tuple[int, int]] = []
        self.traced: list[tuple[int, int]] = []

    def calibrate(self) -> None:
        """Collect garbage, then time one :func:`calibration_kernel`."""
        gc.collect()
        start = time.perf_counter_ns()
        calibration_kernel()
        self.calibration_ns.append(time.perf_counter_ns() - start)

    def seconds(self, samples: list[tuple[int, int]]) -> list[float]:
        """Calibrated seconds: each wall scaled by ``CALIBRATION_REF_S``
        over the mean kernel time just before and just after it."""
        kernel = self.calibration_ns
        return [
            ns * CALIBRATION_REF_S * 2 / (kernel[k] + kernel[k + 1])
            for ns, k in samples
        ]

    def execute(
        self, op: Callable[[], Any], tracer: Tracer | None = None
    ) -> tuple[Any, int]:
        """Run one op; its result (None if it raised) and wall in ns."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                result = op()
            else:
                with tracer.active():
                    result = op()
        except Exception as exc:  # a failed op is counted, not fatal
            self.fail(f"{type(exc).__name__}: {exc}")
            return None, 0
        return result, time.perf_counter_ns() - start

    def add_setup(self, elapsed: int) -> None:
        self.setups.append((elapsed, len(self.calibration_ns) - 1))

    def record(self, elapsed: int, traced: bool) -> None:
        sample = (elapsed, len(self.calibration_ns) - 1)
        (self.traced if traced else self.ops).append(sample)

    def judge(self, result: DiscoveryResult) -> None:
        error = self.reference.check(result)
        if error is not None:
            self.fail(error)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(reason)


# -- the measurement loops -----------------------------------------------------


def _traced(tracer: Tracer | None, position: int) -> Tracer | None:
    """The tracer for op ``position``: untraced and traced ops alternate
    in ABBA order, so a drift over the run biases neither side."""
    return tracer if tracer is not None and position % 4 in (1, 2) else None


def _run_discover(
    workload: Discover, dataset: Dataset, seed: int, seconds: float, trace: bool
) -> tuple[Run, Relation, Tracer | None]:
    run = Run(dataset, workload.exact)
    relation = None
    for _ in range(1 if trace else SETUPS):
        run.calibrate()
        start = time.perf_counter_ns()
        if workload.jobs is not None:
            close_all_pools()  # so every set-up starts the pool
        relation = dataset.make(seed)
        warm, _ = run.execute(lambda: workload.op(relation))
        run.add_setup(time.perf_counter_ns() - start)
        if warm is not None:
            run.judge(warm)
    tracer = Tracer() if trace else None
    deadline = time.perf_counter_ns() + seconds * 1e9
    position = 0
    # a traced run ends on a whole ABBA block, so both sides are balanced
    while (
        len(run.ops) < (2 if trace else MIN_OPS)
        or time.perf_counter_ns() < deadline
        or (trace and position % 4)
    ):
        if run.failed > MIN_OPS and not run.ops:
            break  # every op raises: nothing to measure
        active = _traced(tracer, position)
        position += 1
        run.calibrate()
        result, elapsed = run.execute(lambda: workload.op(relation), active)
        if result is not None:
            run.record(elapsed, traced=active is not None)
            run.judge(result)
    return run, relation, tracer


@dataclass
class Stream:
    relation: Relation  # the whole stream: base rows, then the batches
    base: Relation
    batches: list[list[tuple]]


def _make_stream(dataset: Dataset, seed: int, base_rows: int) -> Stream:
    relation = dataset.make(seed)
    rows = [relation.row(i) for i in range(base_rows, relation.num_rows)]
    batches = [rows[i : i + BATCH_ROWS] for i in range(0, len(rows), BATCH_ROWS)]
    return Stream(relation, relation.head(base_rows), batches)


def _replay(
    run: Run, stream: Stream, engine: IncrementalEulerFD, tracer: Tracer | None
) -> None:
    """Append every batch to ``engine``; judge the final result."""
    result = None
    for position, batch in enumerate(stream.batches):
        active = _traced(tracer, position)
        run.calibrate()
        result, elapsed = run.execute(lambda: engine.append(batch), active)
        if result is None:
            return  # the engine state is unknown after a failed append
        run.record(elapsed, traced=active is not None)
    run.judge(result)


def _run_stream(
    dataset: Dataset, seed: int, seconds: float, trace: bool, base_rows: int
) -> tuple[Run, Relation, Tracer | None]:
    run = Run(dataset, exact=False)
    stream = engine = None
    for _ in range(1 if trace else SETUPS):
        run.calibrate()
        start = time.perf_counter_ns()
        stream = _make_stream(dataset, seed, base_rows)
        engine = IncrementalEulerFD(stream.base)
        run.add_setup(time.perf_counter_ns() - start)
    tracer = Tracer() if trace else None
    deadline = time.perf_counter_ns() + seconds * 1e9
    while engine is not None or time.perf_counter_ns() < deadline:
        if engine is None:  # every replay after the first re-profiles
            gc.collect()
            engine = IncrementalEulerFD(stream.base)
        _replay(run, stream, engine, tracer)
        engine = None
    return run, stream.relation, tracer


# -- metrics -------------------------------------------------------------------


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is KiB on Linux


def end_to_end(
    run: Run, seconds: list[float], peak_rss_mb: float
) -> dict[str, float | None]:
    """The end-to-end metrics; ``seconds`` are the ops' calibrated times."""
    accuracy = run.reference.accuracy
    return {
        "setup_s": statistics.median(run.seconds(run.setups)),
        "op_p50_s": statistics.median(seconds) if seconds else None,
        "f1": accuracy["f1"] if accuracy else None,
        "peak_rss_mb": peak_rss_mb,
    }


def _quartiles(values: list[float]) -> list[float] | None:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else None


def measure(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> dict[str, Any]:
    """One run of workload ``name``: its result object, as printed."""
    workload = WORKLOADS[name]
    dataset = SCALES[scale][workload.role]
    if isinstance(workload, Discover):
        run, relation, tracer = _run_discover(
            workload, dataset, seed, seconds, trace
        )
    else:
        run, relation, tracer = _run_stream(
            dataset, seed, seconds, trace, STREAM_BASE_ROWS[scale]
        )
    run.calibrate()  # closes the bracket of the last op
    peak_rss_mb = _peak_rss_mb()  # before the oracle can run
    error = run.reference.finish(relation)
    for _ in range(run.reference.matching if error else 0):
        run.fail(error)
    seconds = run.seconds(run.ops)
    wall = [ns / 1e9 for ns, _ in run.ops]
    if tracer is None:
        metrics = end_to_end(run, seconds, peak_rss_mb)
    else:
        # Means of raw walls over whole ABBA blocks: the order cancels a
        # linear drift, and per-op calibration would add kernel jitter.
        traced = [ns / 1e9 for ns, _ in run.traced]
        overhead = (
            statistics.fmean(traced) / statistics.fmean(wall) - 1
            if wall and traced else None
        )
        metrics = layer_metrics(tracer, overhead)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "scale": scale,
        "correct": run.failed == 0 and bool(run.ops),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "detail": {
            "dataset": dataset.key,
            "ops": len(run.ops),
            "traced_ops": len(run.traced),
            "op_quartiles_s": _quartiles(seconds),
            "op_p90_s": (
                statistics.quantiles(seconds, n=10, method="inclusive")[8]
                if len(seconds) >= 2 else None
            ),
            "wall_op_quartiles_s": _quartiles(wall),
            "wall_setup_s": [ns / 1e9 for ns, _ in run.setups],
            "calibration_median_s": statistics.median(run.calibration_ns) / 1e9,
            "accuracy": run.reference.accuracy,
            "fingerprint": run.reference.fingerprint,
            "errors": run.errors,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            "smoke" if args.smoke else "full",
        )
    finally:
        close_all_pools()  # joins any worker processes before exit
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
