"""Command-line interface: ``repro-fd`` / ``python -m repro``.

Subcommands:

* ``discover``  — run an algorithm on a CSV file and print the FDs;
* ``compare``   — run several algorithms on one CSV and tabulate
  runtimes, FD counts, and F1 against an exact baseline;
* ``generate``  — materialize one of the registered benchmark datasets
  as CSV;
* ``trace``     — run an algorithm on a registered dataset under the
  observability recorder and export the trace (also installed as the
  ``repro-trace`` console script);
* ``metrics``   — run an algorithm on a registered dataset with the
  process-wide metrics registry and memory profiler enabled, then dump
  (or serve over HTTP) the Prometheus/JSONL scrape (also installed as
  the ``repro-metrics`` console script);
* ``datasets``  — list the registered benchmark datasets;
* ``algorithms`` — list the available discovery algorithms.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .algorithms import available_algorithms, create
from .bench.runner import GroundTruthCache, format_cell, print_table
from .datasets import registry
from .engine import (
    JOBS_ENV,
    ExecutionContext,
    backend_names,
    resolve_jobs,
    use_context,
)
from .metrics import fd_set_metrics, timed
from .obs import (
    MetricsRegistry,
    Recorder,
    chrome_trace,
    collecting_metrics,
    memory_profiling,
    metrics_jsonl,
    prometheus_text,
    recording,
    summary_tree,
    to_jsonl,
    write_trace,
)
from .relation import read_csv, write_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fd",
        description="EulerFD functional-dependency discovery (ICDE 2023 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    discover = commands.add_parser("discover", help="discover FDs in a CSV file")
    discover.add_argument("path", help="CSV file with a header row")
    discover.add_argument(
        "--algorithm", default="eulerfd", choices=available_algorithms()
    )
    discover.add_argument("--max-rows", type=int, default=None)
    discover.add_argument("--no-header", action="store_true")
    discover.add_argument("--delimiter", default=",")
    discover.add_argument(
        "--limit", type=int, default=None, help="print at most N FDs"
    )
    discover.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    add_backend_argument(discover)

    profile = commands.add_parser(
        "profile", help="profile a CSV file: columns, keys, FDs"
    )
    profile.add_argument("path")
    profile.add_argument("--max-rows", type=int, default=None)
    profile.add_argument("--no-header", action="store_true")
    profile.add_argument("--delimiter", default=",")

    compare = commands.add_parser("compare", help="compare algorithms on a CSV file")
    compare.add_argument("path")
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=["tane", "fdep", "hyfd", "aidfd", "eulerfd"],
        choices=available_algorithms(),
    )
    compare.add_argument("--max-rows", type=int, default=None)
    compare.add_argument("--no-header", action="store_true")
    compare.add_argument("--delimiter", default=",")
    add_backend_argument(compare)

    generate = commands.add_parser(
        "generate", help="write a registered benchmark dataset as CSV"
    )
    generate.add_argument("dataset", choices=registry.dataset_names())
    generate.add_argument("output")
    generate.add_argument("--rows", type=int, default=None)
    generate.add_argument("--columns", type=int, default=None)
    generate.add_argument("--seed", type=int, default=None)

    trace = commands.add_parser(
        "trace",
        help="run an algorithm on a registered dataset and export its trace",
    )
    add_trace_arguments(trace)

    metrics = commands.add_parser(
        "metrics",
        help="run a workload under the metrics registry and dump the scrape",
    )
    add_metrics_arguments(metrics)

    commands.add_parser("datasets", help="list registered benchmark datasets")
    commands.add_parser("algorithms", help="list available algorithms")
    return parser


def add_backend_argument(parser: argparse.ArgumentParser) -> None:
    """The execution-engine ``--backend`` selector, shared by subcommands."""
    parser.add_argument(
        "--backend",
        default=None,
        choices=backend_names(),
        help=(
            "execution-engine backend for partition/validation kernels "
            "(default: $REPRO_BACKEND or numpy)"
        ),
    )
    parser.add_argument(
        "--jobs",
        default=None,
        type=_jobs_spec,
        metavar="SPEC",
        help=(
            "worker processes for the agree-set sweeps and validation: "
            "N or process:N for N workers, process for one per CPU, "
            "serial or 1 for the inline path (default: $REPRO_JOBS or "
            "serial); EulerFD's sampling always runs inline"
        ),
    )


def _jobs_spec(text: str) -> str:
    """A ``--jobs`` value, checked at parse time so a bad one is a usage error."""
    try:
        resolve_jobs(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _parse(
    parser: argparse.ArgumentParser, argv: Sequence[str] | None
) -> argparse.Namespace:
    """Parse ``argv``; without ``--jobs``, a bad ``$REPRO_JOBS`` is a usage error."""
    args = parser.parse_args(argv)
    if getattr(args, "jobs", "") is None:
        try:
            resolve_jobs()
        except ValueError as error:
            parser.error(f"${JOBS_ENV}: {error}")
    return args


def _engine_line(context: ExecutionContext) -> str:
    """One-line engine report printed under text-mode command output."""
    stats = context.partitions.stats()
    traffic = ", ".join(f"{key} {value}" for key, value in stats.items())
    line = f"engine: backend={context.backend.name}"
    pool = context.pool
    if not pool.is_serial:
        line += f" jobs={pool.jobs}"
    return f"{line} partition-cache: {traffic}"


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``trace`` options, shared by ``repro-fd trace`` and ``repro-trace``."""
    parser.add_argument(
        "--algorithm", default="eulerfd", choices=available_algorithms()
    )
    parser.add_argument(
        "--dataset", default="iris", choices=registry.dataset_names()
    )
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--columns", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write the trace to this file instead of stdout",
    )
    parser.add_argument(
        "--format",
        dest="format",
        default="summary",
        choices=("jsonl", "chrome", "summary"),
        help="trace flavor: raw JSONL events, Chrome trace JSON, or summary tree",
    )
    add_backend_argument(parser)


def add_metrics_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``metrics`` options, shared by ``repro-fd metrics`` and
    ``repro-metrics``."""
    parser.add_argument(
        "--algorithm", default="eulerfd", choices=available_algorithms()
    )
    parser.add_argument(
        "--dataset", default="iris", choices=registry.dataset_names()
    )
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--columns", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--format",
        dest="format",
        default="prometheus",
        choices=("prometheus", "jsonl"),
        help="scrape flavor: Prometheus text exposition or JSONL",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the scrape to this file instead of stdout",
    )
    parser.add_argument(
        "--serve",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the scrape at http://127.0.0.1:PORT/metrics until interrupted",
    )
    parser.add_argument(
        "--no-memory",
        action="store_true",
        help="skip tracemalloc phase attribution (faster, no mem.* gauges)",
    )
    add_backend_argument(parser)


def serve_scrape(text: str, port: int) -> None:
    """Serve ``text`` at ``/metrics`` on localhost until interrupted.

    A deliberately minimal single-snapshot server: the scrape is the
    run's final registry state, not a live feed — enough for pointing a
    Prometheus dev instance or ``curl`` at a finished workload.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    payload = text.encode("utf-8")

    class _ScrapeHandler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path.rstrip("/") not in ("", "/metrics", "/metric"):
                self.send_error(404)
                return
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args: object) -> None:
            """Silence per-request stderr logging."""

    server = ThreadingHTTPServer(("127.0.0.1", port), _ScrapeHandler)
    try:
        print(f"serving metrics at http://127.0.0.1:{server.server_port}/metrics")
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.server_close()


def _cmd_metrics(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    relation = registry.make(
        args.dataset, rows=args.rows, columns=args.columns, seed=args.seed
    )
    registry_ = MetricsRegistry()
    with ExitStack() as stack:
        stack.enter_context(collecting_metrics(registry_))
        if not args.no_memory:
            stack.enter_context(memory_profiling())
        context = ExecutionContext(relation, backend=args.backend, jobs=args.jobs)
        with use_context(context):
            result = create(args.algorithm).discover(relation)
        # Snapshot before closing the pool: cleanup decrements the mmap
        # gauges, and the scrape should show the run's live state.
        text = (
            prometheus_text(registry_)
            if args.format == "prometheus"
            else metrics_jsonl(registry_)
        )
        context.pool.close()
    print(
        f"{result.algorithm} on {relation.name} "
        f"({relation.num_rows}x{relation.num_columns}): "
        f"{len(result)} FDs in {result.runtime_seconds:.3f}s; "
        f"{len(registry_.counters)} counters, {len(registry_.gauges)} gauges, "
        f"{len(registry_.histograms)} histograms",
        file=sys.stderr,
    )
    if args.out is not None:
        from pathlib import Path

        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.format} scrape to {args.out}", file=sys.stderr)
    elif args.serve is None:
        print(text, end="")
    if args.serve is not None:
        serve_scrape(text, args.serve)
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    relation = read_csv(
        args.path,
        has_header=not args.no_header,
        delimiter=args.delimiter,
        max_rows=args.max_rows,
    )
    context = ExecutionContext(relation, backend=args.backend, jobs=args.jobs)
    with use_context(context):
        result = create(args.algorithm).discover(relation)
    if args.json:
        print(result.to_json())
        return 0
    print(result.summary())
    for line in result.format_fds(limit=args.limit):
        print(" ", line)
    if args.limit is not None and len(result) > args.limit:
        print(f"  ... and {len(result) - args.limit} more")
    print(_engine_line(context))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .profile import profile_relation

    relation = read_csv(
        args.path,
        has_header=not args.no_header,
        delimiter=args.delimiter,
        max_rows=args.max_rows,
    )
    print(profile_relation(relation).render())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    relation = read_csv(
        args.path,
        has_header=not args.no_header,
        delimiter=args.delimiter,
        max_rows=args.max_rows,
    )
    # One execution context for the whole comparison: the ground-truth
    # oracle and every compared algorithm share the preprocessed matrix
    # and partition cache.
    context = ExecutionContext(relation, backend=args.backend, jobs=args.jobs)
    with use_context(context):
        truth = GroundTruthCache().truth_for(relation)
        rows = []
        for key in args.algorithms:
            run = timed(lambda: create(key).discover(relation))
            metrics = fd_set_metrics(run.value.fds, truth)
            rows.append(
                [
                    run.value.algorithm,
                    format_cell(run.seconds),
                    str(len(run.value.fds)),
                    format_cell(metrics.f1),
                ]
            )
    print_table(
        f"{relation.name} ({relation.num_rows}x{relation.num_columns}, "
        f"{len(truth)} true FDs)",
        ["Algorithm", "Time[s]", "FDs", "F1"],
        rows,
    )
    print(_engine_line(context))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    relation = registry.make(
        args.dataset, rows=args.rows, columns=args.columns, seed=args.seed
    )
    write_csv(relation, args.output)
    print(
        f"wrote {relation.num_rows}x{relation.num_columns} "
        f"{args.dataset!r} to {args.output}"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    relation = registry.make(
        args.dataset, rows=args.rows, columns=args.columns, seed=args.seed
    )
    recorder = Recorder()
    with recording(recorder):
        # Context built inside the recording so the preprocess span and
        # the engine.partition_cache.* counters land in the trace.
        with use_context(
            ExecutionContext(relation, backend=args.backend, jobs=args.jobs)
        ):
            result = create(args.algorithm).discover(relation)
    if args.trace_out is not None:
        write_trace(recorder, args.trace_out, format=args.format)
        print(
            f"{result.algorithm} on {relation.name} "
            f"({relation.num_rows}x{relation.num_columns}): "
            f"{len(result)} FDs in {result.runtime_seconds:.3f}s; "
            f"wrote {args.format} trace ({len(recorder.events)} events) "
            f"to {args.trace_out}"
        )
    elif args.format == "jsonl":
        print(to_jsonl(recorder))
    elif args.format == "chrome":
        print(json.dumps(chrome_trace(recorder), indent=2))
    else:
        print(summary_tree(recorder))
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = []
    for name in registry.dataset_names():
        entry = registry.info(name)
        rows.append(
            [
                name,
                str(entry.paper_rows),
                str(entry.paper_columns),
                "?" if entry.paper_fds is None else str(entry.paper_fds),
                str(entry.bench_rows),
            ]
        )
    print_table(
        "Registered benchmark datasets (paper scale vs bench scale)",
        ["Dataset", "Paper rows", "Paper cols", "Paper FDs", "Bench rows"],
        rows,
    )
    return 0


def _cmd_algorithms(_: argparse.Namespace) -> int:
    for key in available_algorithms():
        print(key)
    return 0


_HANDLERS = {
    "discover": _cmd_discover,
    "profile": _cmd_profile,
    "compare": _cmd_compare,
    "generate": _cmd_generate,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "datasets": _cmd_datasets,
    "algorithms": _cmd_algorithms,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(build_parser(), argv)
    return _HANDLERS[args.command](args)


def trace_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-trace`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Trace an FD-discovery run and export the observability log",
    )
    add_trace_arguments(parser)
    return _cmd_trace(_parse(parser, argv))


def metrics_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-metrics`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-metrics",
        description=(
            "Run an FD-discovery workload with live metrics and dump or "
            "serve the Prometheus/JSONL scrape"
        ),
    )
    add_metrics_arguments(parser)
    return _cmd_metrics(_parse(parser, argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
