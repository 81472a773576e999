"""Tests for repro.bench.trajectory: record, load, compare, gate.

The comparator tests are the heart of the regression gate: identical
inputs pass, a synthetic 2x slowdown fails with exit status 1, measured
noise widens the allowance, and single-repeat legacy snapshots get the
conservative floor.  Recording runs against a deliberately tiny
workload so the suite stays fast; the committed ``BENCH_5.json`` then
exercises the legacy adapter on real history.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.bench import trajectory
from repro.bench.trajectory import (
    DEFAULT_THRESHOLD,
    SCHEMA,
    SINGLE_SAMPLE_FLOOR,
    Comparison,
    compare_entries,
    compare_trajectories,
    host_fingerprint,
    load_trajectory,
    record_trajectory,
    same_host,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_5 = REPO_ROOT / "benchmarks" / "results" / "BENCH_5.json"

TINY = [("fd-reduced-30", 80, 5)]


def entry(
    all_seconds,
    *,
    fd_count: int = 10,
    jobs: int = 1,
    backend: str | None = None,
):
    ordered = sorted(all_seconds)
    return {
        "wall_seconds": ordered[len(ordered) // 2],
        "best_seconds": ordered[0],
        "stdev_seconds": 0.0,
        "all_seconds": list(all_seconds),
        "repeats": len(all_seconds),
        "fd_count": fd_count,
        "jobs": jobs,
        "backend": backend,
        "cache_hit_rate": None,
    }


def document(workloads, host=None):
    return {
        "schema": SCHEMA,
        "bench": "test",
        "description": "",
        "host": host if host is not None else host_fingerprint(),
        "jobs": "serial",
        "repeats": 3,
        "workloads": workloads,
    }


# -- recording -----------------------------------------------------------------


class TestRecord:
    def test_record_trajectory_layout(self):
        doc = record_trajectory(
            "BENCH_T",
            workloads=TINY,
            algorithms=["eulerfd"],
            repeats=2,
            memory=False,
            description="tiny",
        )
        assert doc["schema"] == SCHEMA
        assert doc["bench"] == "BENCH_T"
        assert doc["jobs"] == "serial"
        assert doc["host"]["python"]
        (label,) = doc["workloads"]
        assert label == "fd-reduced-30[80x30]/eulerfd"
        cell = doc["workloads"][label]
        assert cell["repeats"] == 2
        assert len(cell["all_seconds"]) == 2
        assert cell["best_seconds"] == min(cell["all_seconds"])
        assert cell["best_seconds"] <= cell["wall_seconds"]
        assert cell["fd_count"] > 0
        # The cell records the resolved worker count; a REPRO_JOBS
        # override (CI's fan-out suite runs) legitimately raises it.
        spec = os.environ.get("REPRO_JOBS", "1")
        assert cell["jobs"] == int(spec.rsplit(":", 1)[-1] or 1)
        assert 0.0 <= cell["cache_hit_rate"] <= 1.0
        # memory=False: no attribution fields on the cell.
        assert "phases" not in cell
        assert "peak_tracemalloc_bytes" not in cell

    def test_memory_pass_attributes_phases_and_bytes(self):
        doc = record_trajectory(
            "BENCH_T",
            workloads=TINY,
            algorithms=["eulerfd"],
            repeats=1,
            memory=True,
        )
        (cell,) = doc["workloads"].values()
        assert cell["phases"]  # per-phase self seconds from telemetry
        assert any("cycle" in path for path in cell["phases"])
        assert cell["memory_phases"]
        assert cell["peak_tracemalloc_bytes"] > 0
        assert cell["peak_rss_bytes"] > 0

    def test_round_trips_through_load(self, tmp_path):
        doc = record_trajectory(
            "BENCH_T",
            workloads=TINY,
            algorithms=["eulerfd"],
            repeats=1,
            memory=False,
        )
        path = tmp_path / "BENCH_T.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_trajectory(path) == doc


# -- loading and the legacy adapter --------------------------------------------


class TestLoad:
    def test_legacy_bench5_adapts_to_the_schema(self):
        doc = load_trajectory(BENCH_5)
        assert doc["schema"] == SCHEMA
        assert doc["repeats"] == 1
        label = "fd-reduced-30[2000x30]/eulerfd"
        assert label in doc["workloads"]
        cell = doc["workloads"][label]
        assert cell["repeats"] == 1
        assert cell["all_seconds"] == [cell["best_seconds"]]
        assert cell["best_seconds"] > 0
        # Every serial algorithm cell carried over.
        assert len(doc["workloads"]) == 9

    def test_rejects_unrecognized_documents(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"what": "ever"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a trajectory file"):
            load_trajectory(path)


# -- comparison ----------------------------------------------------------------


class TestCompareEntries:
    def test_identical_entries_are_ok(self):
        e = entry([1.0, 1.01, 1.02])
        comparison = compare_entries("w", e, e)
        assert comparison.status == "ok"
        assert comparison.rel_change == pytest.approx(0.0)

    def test_doubled_wall_is_a_regression(self):
        old = entry([1.0, 1.01, 1.02])
        new = entry([2.0, 2.01, 2.02])
        comparison = compare_entries("w", old, new)
        assert comparison.status == "regression"
        assert comparison.rel_change == pytest.approx(1.0)

    def test_halved_wall_is_an_improvement(self):
        old = entry([2.0, 2.01, 2.02])
        new = entry([1.0, 1.01, 1.02])
        assert compare_entries("w", old, new).status == "improvement"

    def test_measured_noise_widens_the_allowance(self):
        # 15% change would gate at the 10% default threshold, but the
        # recorded spread (CV ~ 8% per side) raises the allowance past it.
        old = entry([1.0, 1.1, 1.25])
        new = entry([1.15, 1.25, 1.4])
        comparison = compare_entries("w", old, new)
        assert comparison.allowance > DEFAULT_THRESHOLD
        assert comparison.status == "ok"

    def test_single_repeat_raises_the_floor(self):
        old = entry([1.0])
        new = entry([1.2, 1.2, 1.2])
        comparison = compare_entries("w", old, new)
        assert comparison.allowance >= SINGLE_SAMPLE_FLOOR
        assert comparison.status == "ok"  # 20% < the 25% floor

    def test_skipped_cells_never_gate(self):
        comparison = compare_entries("w", {"skipped": "no numpy"}, entry([1.0]))
        assert comparison.status == "skipped"
        assert comparison.rel_change is None


class TestCompareTrajectories:
    def test_union_with_added_and_removed(self):
        old = document({"a": entry([1.0]), "b": entry([1.0])})
        new = document({"b": entry([1.0]), "c": entry([1.0])})
        comparisons = compare_trajectories(old, new)
        assert [c.workload for c in comparisons] == ["a", "b", "c"]
        assert [c.status for c in comparisons] == ["removed", "ok", "added"]

    def test_same_host_requires_matching_fingerprints(self):
        here = document({})
        elsewhere = document(
            {}, host={"cpu_count": 1, "platform": "somewhere-else"}
        )
        unknown = document({}, host={})
        assert same_host(here, here)
        assert not same_host(here, elsewhere)
        assert not same_host(unknown, here)  # empty old host: unknown


# -- the CLI -------------------------------------------------------------------


def write_doc(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


class TestCli:
    def test_compare_identical_exits_zero(self, tmp_path, capsys):
        doc = document({"w": entry([1.0, 1.01, 1.02])})
        old = write_doc(tmp_path / "old.json", doc)
        new = write_doc(tmp_path / "new.json", doc)
        assert trajectory.main(["compare", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "ok: no gating regressions" in out

    def test_compare_seeded_slowdown_exits_one(self, tmp_path, capsys):
        old = write_doc(
            tmp_path / "old.json", document({"w": entry([1.0, 1.01, 1.02])})
        )
        new = write_doc(
            tmp_path / "new.json", document({"w": entry([2.0, 2.01, 2.02])})
        )
        assert trajectory.main(["compare", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out
        assert "FAIL: 1 regression(s)" in out

    def test_cross_host_regressions_report_only_unless_strict(
        self, tmp_path, capsys
    ):
        old = write_doc(
            tmp_path / "old.json",
            document(
                {"w": entry([1.0])},
                host={"cpu_count": 1, "platform": "somewhere-else"},
            ),
        )
        new = write_doc(
            tmp_path / "new.json", document({"w": entry([9.0])})
        )
        assert trajectory.main(["compare", str(old), str(new)]) == 0
        assert "report-only" in capsys.readouterr().out
        assert (
            trajectory.main(["compare", str(old), str(new), "--strict"]) == 1
        )

    def test_compare_legacy_baseline_runs_clean(self, capsys):
        # The committed BENCH_5 against itself: the adapter output is
        # self-comparable and never gates.
        assert trajectory.main(["compare", str(BENCH_5), str(BENCH_5)]) == 0
        out = capsys.readouterr().out
        assert "fd-reduced-30[2000x30]/eulerfd" in out

    def test_committed_trajectory_gate_holds(self, capsys):
        # The committed BENCH_8 -> BENCH_9 step must stay within the
        # noise-aware allowance, and BENCH_9's columnar cells must
        # document the backend bit-identity: every label@columnar cell
        # discovered exactly the FD count of its default sibling.
        bench_8 = REPO_ROOT / "benchmarks" / "results" / "BENCH_8.json"
        bench_9 = REPO_ROOT / "benchmarks" / "results" / "BENCH_9.json"
        assert trajectory.main(["compare", str(bench_8), str(bench_9)]) == 0
        out = capsys.readouterr().out
        assert "@columnar" in out
        doc = load_trajectory(bench_9)
        assert doc["backends"] == ["default", "columnar"]
        columnar = [w for w in doc["workloads"] if w.endswith("@columnar")]
        assert columnar
        for label in columnar:
            sibling = label.removesuffix("@columnar")
            assert (
                doc["workloads"][label]["fd_count"]
                == doc["workloads"][sibling]["fd_count"]
            ), label

    def test_record_writes_the_document(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trajectory, "QUICK_WORKLOADS", TINY)
        out = tmp_path / "BENCH_T.json"
        code = trajectory.main(
            [
                "record",
                "--output",
                str(out),
                "--quick",
                "--repeats",
                "1",
                "--no-memory",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema"] == SCHEMA
        assert doc["bench"] == "BENCH_T"  # defaults to the output stem
        assert "fd-reduced-30[80x30]/eulerfd" in doc["workloads"]
        printed = capsys.readouterr().out
        assert "wrote" in printed
        assert "median" in printed


# -- the deprecated record_baseline shim ---------------------------------------


def load_shim():
    spec = importlib.util.spec_from_file_location(
        "record_baseline_shim", REPO_ROOT / "benchmarks" / "record_baseline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRecordBaselineShim:
    def test_warns_and_delegates(self, tmp_path, monkeypatch):
        shim = load_shim()
        forwarded = {}

        def fake_main(argv):
            forwarded["argv"] = argv
            return 0

        monkeypatch.setattr(shim.trajectory, "main", fake_main)
        out = tmp_path / "BENCH_X.json"
        with pytest.warns(DeprecationWarning, match="repro-bench record"):
            code = shim.main(
                ["--jobs", "process:2", "--output", str(out), "--quick"]
            )
        assert code == 0
        assert forwarded["argv"] == [
            "record",
            "--output",
            str(out),
            "--jobs",
            "process:2",
            "--quick",
        ]


def test_comparison_dataclass_is_frozen():
    comparison = Comparison("w", "ok")
    with pytest.raises(AttributeError):
        comparison.status = "regression"
