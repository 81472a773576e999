"""The repo benchmark: five workloads, each run in a fresh subprocess.

One workload, printing its metrics and, as the last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``::

    python benchmarks/e2e/run.py --workload eulerfd-wide --seed 5 --seconds 10 --trace 0

Every workload, untraced then traced, with a report file::

    python benchmarks/e2e/run.py --seed 5 --out R.json

Compare reports against the bounds in ``BENCHMARK.json``, one row per
(workload, end-to-end metric)::

    python benchmarks/e2e/run.py compare --base A1.json A2.json --head B1.json B2.json

The metric names, units and bounds live in ``BENCHMARK.json``; the
workloads in ``workloads.py``; the per-layer hooks in ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
#: A run must end within 180 s; the workload process gets the rest.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC.read_text())


def pinned_env() -> dict[str, str]:
    """The environment of a workload process.

    No ``REPRO_*`` variable (backend, jobs, probes) leaks in, hashing
    and thread pools are fixed, and only the checkout's ``src`` is on
    the import path.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def environment() -> dict[str, Any]:
    """Host, cores, Python and commit the results were measured on."""
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": revision,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict[str, Any]:
    """One run of ``name`` in a fresh process; its result object.

    The process leads its own process group, so a timeout kills it
    together with any worker processes it started.
    """
    command = [
        sys.executable, str(HERE / "workloads.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    with subprocess.Popen(
        command, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as process:
        try:
            stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise
    if process.returncode != 0:
        raise SystemExit(f"{name}: workload process exited {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def result_line(result: dict[str, Any], spec: dict[str, Any]) -> dict[str, Any]:
    """The result object printed last: the traced or the untraced metric set."""
    names = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {
                "value": result["metrics"][metric["name"]],
                "unit": metric["unit"],
            }
            for metric in names
        },
    }


def print_metrics(name: str, line: dict[str, Any]) -> None:
    for metric, entry in line["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:<14} {metric:<36} {shown:>12} {entry['unit']}")
    print(f"{name:<14} {'ops attempted/failed':<36} "
          f"{line['attempted']:>8}/{line['failed']:<3} "
          f"{'correct' if line['correct'] else 'INCORRECT'}")


# -- compare -------------------------------------------------------------------


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def verdict(base: list[float], head: list[float], metric: dict[str, Any]) -> tuple[str, float]:
    """(``ok`` | ``regression`` | ``unresolved``, relative change of the median)."""
    before, after = statistics.median(base), statistics.median(head)
    change = (after - before) / before if before else 0.0
    worse = change if metric["better"] == "lower" else -change
    if worse <= metric["bound"]:
        return "ok", change
    overlap = max(min(base), min(head)) <= min(max(base), max(head))
    if overlap and max(spread(base), spread(head)) > metric["bound"]:
        return "unresolved", change
    return "regression", change


def _values(reports: list[dict[str, Any]], workload: str, metric: str) -> list[float]:
    values = []
    for report in reports:
        run = report["workloads"].get(workload, {}).get("trace0")
        if run is not None and run["metrics"].get(metric) is not None:
            values.append(run["metrics"][metric])
    return values


def compare(base_paths: list[str], head_paths: list[str]) -> int:
    spec = load_spec()
    base = [json.loads(Path(path).read_text()) for path in base_paths]
    head = [json.loads(Path(path).read_text()) for path in head_paths]
    print(f"{'workload':<14} {'metric':<12} {'base':>12} {'head':>12} "
          f"{'change':>8} {'bound':>6}  status")
    regressions = 0
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            before = _values(base, workload["name"], metric["name"])
            after = _values(head, workload["name"], metric["name"])
            if not before or not after:
                continue
            status, change = verdict(before, after, metric)
            regressions += status == "regression"
            print(f"{workload['name']:<14} {metric['name']:<12} "
                  f"{statistics.median(before):>12.6g} {statistics.median(after):>12.6g} "
                  f"{change:>+8.1%} {metric['bound']:>6.1%}  {status}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("--base", nargs="+", required=True)
        parser.add_argument("--head", nargs="+", required=True)
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.head)

    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, traced and untraced)")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="miniature datasets, for the self-test")
    parser.add_argument("--out", help="write the full report as JSON")
    args = parser.parse_args(argv)

    report: dict[str, Any] = {
        "schema": "repro-e2e/1",
        "env": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    runs = (
        [(args.workload, bool(args.trace))]
        if args.workload
        else [(name, trace) for name in names for trace in (False, True)]
    )
    line: dict[str, Any] = {}
    for name, trace in runs:
        result = run_workload(name, args.seed, args.seconds, trace, args.smoke)
        report["workloads"].setdefault(name, {})[f"trace{int(trace)}"] = result
        line = result_line(result, spec)
        print_metrics(name, line)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    if args.workload:
        print(json.dumps(line))
        return 0
    incorrect = [
        f"{name}/{key}"
        for name, results in report["workloads"].items()
        for key, result in results.items()
        if not result["correct"]
    ]
    print("incorrect: " + ", ".join(incorrect) if incorrect else "all runs correct")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
