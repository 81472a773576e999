"""Tests for the CFG/dataflow layer, the rules built on it (RPR106-108),
the incremental lint cache, ``--explain``, and the sanitize probes."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import analyze, default_rules, explain_rule
from repro.analysis._contracts_runtime import ProbeViolation, probe
from repro.analysis.cache import LintCache, find_cache_dir
from repro.analysis.cfg import build_cfg
from repro.analysis.cli import main
from repro.analysis.dataflow import run_forward, statement_states
from repro.analysis.dataflow_rules import _WidthAnalysis, default_dataflow_rules
from repro.analysis.sanitize import sanitize_package

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "analysis_fixtures"


def _function(source: str) -> ast.FunctionDef:
    node = ast.parse(textwrap.dedent(source)).body[0]
    assert isinstance(node, ast.FunctionDef)
    return node


class TestCFG:
    """Golden renders: the block structure is part of the layer's contract."""

    def test_branch(self):
        cfg = build_cfg(
            _function(
                """
                def branch(x):
                    total = 0
                    if x > 0:
                        total = x
                    else:
                        total = -x
                    return total
                """
            )
        )
        assert cfg.render() == textwrap.dedent(
            """\
            B0: [total = 0; test x > 0] -> true:B1 false:B2
            B1: [total = x] -> B3
            B2: [total = -x] -> B3
            B3: [return total] -> B4
            B4: [<exit>]"""
        )

    def test_loop_with_back_edge(self):
        cfg = build_cfg(
            _function(
                """
                def loop(items):
                    total = 0
                    for item in items:
                        total += item
                    return total
                """
            )
        )
        assert cfg.render() == textwrap.dedent(
            """\
            B0: [total = 0] -> B1
            B1: [for item in items] -> true:B3 false:B2
            B2: [return total] -> B4
            B3: [total += item] -> back:B1
            B4: [<exit>]"""
        )

    def test_try_except_edges(self):
        cfg = build_cfg(
            _function(
                """
                def guarded(path):
                    try:
                        value = int(path)
                    except ValueError:
                        value = 0
                    return value
                """
            )
        )
        assert cfg.render() == textwrap.dedent(
            """\
            B0: [<empty>] -> B1
            B1: [value = int(path)] -> except:B2 B3
            B2: [except ValueError; value = 0] -> B3
            B3: [return value] -> B4
            B4: [<exit>]"""
        )

    def test_comprehension_stays_one_statement(self):
        # Comprehensions are expressions: they must not explode into
        # loop blocks of the enclosing function's CFG.
        cfg = build_cfg(
            _function(
                """
                def comp(rows):
                    return [row[0] for row in rows if row]
                """
            )
        )
        assert cfg.render() == textwrap.dedent(
            """\
            B0: [return [row[0] for row in rows if row]] -> B1
            B1: [<exit>]"""
        )


class TestFixpoint:
    def test_widening_terminates_growing_loop(self):
        """The width domain grows on every loop pass (keys * cardinality);
        without widening the fixpoint would climb forever."""
        function = _function(
            """
            def fold(matrix, columns):
                keys = matrix[:, 0]
                for column in columns:
                    cardinality = int(matrix[:, column].max(initial=0)) + 1
                    keys = keys * cardinality
                return keys
            """
        )
        cfg = build_cfg(function)
        analysis = _WidthAnalysis()
        states = run_forward(cfg, analysis)  # must terminate
        widths = [
            state["keys"].bits
            for node, state in statement_states(cfg, states, analysis)
            if isinstance(node, ast.Return)
        ]
        assert widths == [float("inf")]


class TestRuleFixtures:
    """The acceptance fixtures: positive flagged, clean/suppressed silent."""

    @pytest.fixture(scope="class")
    def findings(self):
        return analyze([FIXTURES], default_dataflow_rules()).findings

    def _rules_for(self, findings, relpath):
        return {finding.rule for finding in findings if finding.path == relpath}

    def test_62_column_fold_flagged_by_rpr108(self, findings):
        flagged = [
            finding
            for finding in findings
            if finding.path == "relation/rpr108_overflow.py"
        ]
        assert {finding.rule for finding in flagged} == {"RPR108"}
        assert any("wrap int64" in finding.message for finding in flagged)

    def test_unordered_merge_flagged_by_rpr107(self, findings):
        flagged = [
            finding
            for finding in findings
            if finding.path == "core/rpr107_unordered.py"
        ]
        assert {finding.rule for finding in flagged} == {"RPR107"}
        assert any("unordered provenance" in finding.message for finding in flagged)

    def test_mutable_capture_flagged_by_rpr106(self, findings):
        assert self._rules_for(findings, "core/rpr106_escape.py") == {"RPR106"}

    @pytest.mark.parametrize(
        "relpath",
        [
            "core/rpr106_escape_ok.py",
            "core/rpr106_escape_suppressed.py",
            "core/rpr107_unordered_ok.py",
            "core/rpr107_unordered_suppressed.py",
            "relation/rpr108_overflow_ok.py",
            "relation/rpr108_overflow_suppressed.py",
        ],
    )
    def test_clean_and_suppressed_variants_are_silent(self, findings, relpath):
        assert self._rules_for(findings, relpath) == set()


class TestFlowSensitivity:
    """Targeted behaviours of the three analyses on tiny trees."""

    def _scan(self, tmp_path: Path, relpath: str, source: str):
        module = tmp_path / relpath
        module.parent.mkdir(parents=True, exist_ok=True)
        for parent in module.relative_to(tmp_path).parents:
            if str(parent) != ".":
                (tmp_path / parent / "__init__.py").touch()
        module.write_text(textwrap.dedent(source))
        return analyze([tmp_path], default_dataflow_rules()).findings

    def test_rpr106_flags_bound_self_method(self, tmp_path):
        findings = self._scan(
            tmp_path,
            "core/runner.py",
            """\
            class Runner:
                def run(self, pool, tasks):
                    return pool.map_chunks(self._task, tasks)
            """,
        )
        assert [finding.rule for finding in findings] == ["RPR106"]
        assert "self._task" in findings[0].message

    def test_rpr107_interprocedural_summary(self, tmp_path):
        # helper()'s set-ordered return taints the caller's sink arg
        findings = self._scan(
            tmp_path,
            "core/pipeline.py",
            """\
            def helper(raw):
                return set(raw)


            def publish(raw):
                out = list(helper(raw))
                return make_result(out, "x")
            """,
        )
        assert [finding.rule for finding in findings] == ["RPR107"]
        assert "set-ordered" in findings[0].message

    def test_rpr108_guard_dominance_is_flow_sensitive(self, tmp_path):
        # same fold expression, different path facts: a raising
        # fold-limit guard means every path to the multiply crossed the
        # guard's safe edge, so the identical fold below stays silent
        guarded = self._scan(
            tmp_path,
            "relation/guarded.py",
            """\
            def fold(keys, labels, limit):
                cardinality = int(labels.max(initial=0)) + 1
                bound = int(keys.max(initial=0)) + 1
                if bound * cardinality >= limit:
                    raise OverflowError("fold limit")
                return keys * cardinality + labels
            """,
        )
        assert guarded == []
        unguarded = self._scan(
            tmp_path,
            "relation/unguarded.py",
            """\
            def fold(keys, labels):
                cardinality = int(labels.max(initial=0)) + 1
                return keys * cardinality + labels
            """,
        )
        assert [finding.rule for finding in unguarded] == ["RPR108"]
        assert "2^64" in unguarded[0].message


class TestLintCache:
    def _tree(self, tmp_path: Path) -> Path:
        (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
        core = tmp_path / "core"
        core.mkdir()
        (core / "__init__.py").write_text("")
        (core / "mod.py").write_text(
            "def masks(index: int) -> int:\n    return 1 << index\n"
        )
        return tmp_path

    def test_warm_hit_replays_identical_result(self, tmp_path):
        tree = self._tree(tmp_path)
        cache_dir = find_cache_dir(tree / "core")
        assert cache_dir == tree / ".repro-lint-cache"
        cold = analyze([tree / "core"], default_rules(), cache=LintCache(cache_dir))
        warm = analyze([tree / "core"], default_rules(), cache=LintCache(cache_dir))
        assert [f.format() for f in warm.findings] == [
            f.format() for f in cold.findings
        ]
        assert warm.findings  # the RPR002 finding survived the round-trip
        assert warm.files_scanned == cold.files_scanned
        assert warm.paths == cold.paths

    def test_edit_invalidates_stale_entry(self, tmp_path):
        tree = self._tree(tmp_path)
        cache_dir = find_cache_dir(tree)
        analyze([tree / "core"], default_rules(), cache=LintCache(cache_dir))
        (tree / "core" / "mod.py").write_text(
            "def masks(index: int) -> int:\n    return index\n"
        )
        warm = analyze([tree / "core"], default_rules(), cache=LintCache(cache_dir))
        assert warm.findings == []

    def test_no_repo_marker_means_no_cache_dir(self, tmp_path):
        assert find_cache_dir(tmp_path) is None

    def test_cli_no_cache_flag(self, tmp_path, capsys):
        tree = self._tree(tmp_path)
        code = main([str(tree / "core"), "--no-cache", "--no-fail-on-findings"])
        assert code == 0
        assert not (tree / ".repro-lint-cache").exists()
        code = main([str(tree / "core"), "--no-fail-on-findings"])
        assert code == 0
        assert (tree / ".repro-lint-cache" / "cache.json").exists()
        capsys.readouterr()


class TestExplain:
    @pytest.mark.parametrize("code", ["RPR106", "RPR107", "RPR108"])
    def test_documents_every_dataflow_rule(self, code):
        text = explain_rule(code)
        assert code in text
        assert "example:" in text
        assert f"# repro-lint: disable={code}" in text

    def test_rpr107_mentions_ordered_pragma(self):
        assert "# pragma: repro-lint ordered" in explain_rule("RPR107")

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError, match="RPR999"):
            explain_rule("RPR999")

    def test_cli_explain(self, capsys):
        assert main(["--explain", "rpr108"]) == 0
        out = capsys.readouterr().out
        assert "RPR108" in out and "fold" in out


class TestSanitizeProbes:
    def test_fold_overflow_probe_catches_wrap(self):
        @probe("fold_overflow")
        def bad_fold(keys, labels):
            return (keys * (1 << 62) + labels).astype(np.int64)

        keys = (np.arange(100) % 7).astype(np.int64)
        labels = (np.arange(100) % 5).astype(np.int64)
        with pytest.raises(ProbeViolation, match="wrapped"):
            bad_fold(keys, labels)

    def test_fold_overflow_probe_passes_exact_fold(self):
        @probe("fold_overflow")
        def good_fold(keys, labels):
            return keys * 5 + labels

        keys = (np.arange(100) % 7).astype(np.int64)
        labels = (np.arange(100) % 5).astype(np.int64)
        out = good_fold(keys, labels)
        assert len(np.unique(out)) == 35

    class _FakePool:
        is_serial = False
        busy_seconds = 0.0
        tasks_dispatched = 0
        chunks_dispatched = 0

    @staticmethod
    def _task_fn():
        def _distinct_masks_task(handle, start, stop):
            return ([start, stop], 0.0)

        return _distinct_masks_task

    def test_shard_permutation_probe_catches_order_dependence(self):
        @probe("shard_permutation")
        def bad_map(pool, fn, tasks):
            return sorted(fn(*task)[0] for task in tasks)

        tasks = [(None, 3, 4), (None, 1, 2), (None, 5, 6)]
        with pytest.raises(ProbeViolation, match="completion-order"):
            bad_map(self._FakePool(), self._task_fn(), tasks)

    def test_shard_permutation_probe_passes_indexed_merge(self):
        calls = []

        @probe("shard_permutation")
        def good_map(pool, fn, tasks):
            calls.append(list(tasks))
            return [fn(*task)[0] for task in tasks]

        tasks = [(None, 3, 4), (None, 1, 2)]
        result = good_map(self._FakePool(), self._task_fn(), tasks)
        assert result == [[3, 4], [1, 2]]
        # the probe replayed the reversed plan as a shadow dispatch
        assert calls == [tasks, list(reversed(tasks))]

    def test_shard_permutation_probe_skips_serial_and_wall_time_tasks(self):
        calls = []

        @probe("shard_permutation")
        def mapper(pool, fn, tasks):
            calls.append(list(tasks))
            return [fn(*task)[0] for task in tasks]

        def _call_task(fn, payload):  # wall-time payloads: not replayable
            return (payload, 0.0)

        tasks = [(None, 1, 2), (None, 3, 4)]
        mapper(self._FakePool(), _call_task, [(min, 1), (max, 2)])
        serial = self._FakePool()
        serial.is_serial = True
        mapper(serial, self._task_fn(), tasks)
        assert len(calls) == 2  # no shadow replays happened

    def test_probes_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROBES_DISABLE", "1")

        def original(pool, fn, tasks):
            return []

        assert probe("shard_permutation")(original) is original

    def test_sanitizer_attaches_probes_to_registry_sites(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "engine").mkdir(parents=True)
        (package / "relation").mkdir()
        (package / "__init__.py").write_text("")
        (package / "engine" / "__init__.py").write_text("")
        (package / "relation" / "__init__.py").write_text("")
        (package / "engine" / "parallel.py").write_text(
            textwrap.dedent(
                """\
                class WorkerPool:
                    def map_chunks(self, fn, tasks):
                        return [fn(*task)[0] for task in tasks]
                """
            )
        )
        (package / "relation" / "validate.py").write_text(
            textwrap.dedent(
                """\
                def fold_column(keys, labels, domain, cardinality):
                    return keys * cardinality + labels, domain * cardinality
                """
            )
        )
        report = sanitize_package(package, tmp_path / "out")
        assert report.functions_probed == 2
        shadow = tmp_path / "out" / "pkg"
        assert "_repro_probe__('shard_permutation')" in (
            shadow / "engine" / "parallel.py"
        ).read_text()
        assert "_repro_probe__('fold_overflow')" in (
            shadow / "relation" / "validate.py"
        ).read_text()
        assert (shadow / "_contracts_runtime.py").exists()
