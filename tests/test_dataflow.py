"""Tests for the CFG/dataflow layer, the rule built on it (RPR107),
``--explain``, and the sanitize probes."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze, default_rules, explain_rule
from repro.analysis._contracts_runtime import ProbeViolation, probe
from repro.analysis.cfg import build_cfg
from repro.analysis.cli import main
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

    def test_finally_lowered_once(self):
        # One copy of the finally body, entered by fall-through and by an
        # except edge; a try that always returns reaches it only by the
        # except edge, and it then re-raises to the exit.
        falls_through = build_cfg(
            _function(
                """
                def guarded(path):
                    try:
                        value = int(path)
                    finally:
                        close()
                    return value
                """
            )
        )
        assert falls_through.render() == textwrap.dedent(
            """\
            B0: [<empty>] -> B1
            B1: [value = int(path)] -> B2 except:B2
            B2: [close(); return value] -> B3
            B3: [<exit>]"""
        )
        returns = build_cfg(
            _function(
                """
                def early(path):
                    try:
                        return int(path)
                    finally:
                        close()
                """
            )
        )
        assert returns.render() == textwrap.dedent(
            """\
            B0: [<empty>] -> B1
            B1: [return int(path)] -> B3 except:B2
            B2: [close()] -> B3
            B3: [<exit>]"""
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


class TestRuleFixtures:
    """The acceptance fixtures: positive flagged, clean/suppressed silent."""

    @pytest.fixture(scope="class")
    def findings(self):
        return analyze([FIXTURES], default_rules(), select=["RPR107"]).findings

    def _rules_for(self, findings, relpath):
        return {finding.rule for finding in findings if finding.path == relpath}

    def test_unordered_merge_flagged_by_rpr107(self, findings):
        flagged = [
            finding
            for finding in findings
            if finding.path == "core/rpr107_unordered.py"
        ]
        assert {finding.rule for finding in flagged} == {"RPR107"}
        assert any("unordered provenance" in finding.message for finding in flagged)

    @pytest.mark.parametrize(
        "relpath",
        [
            "core/rpr107_unordered_ok.py",
            "core/rpr107_unordered_suppressed.py",
        ],
    )
    def test_clean_and_suppressed_variants_are_silent(self, findings, relpath):
        assert self._rules_for(findings, relpath) == set()


class TestFlowSensitivity:
    """Targeted behaviours of the taint analysis on tiny trees."""

    def _scan(self, tmp_path: Path, relpath: str, source: str):
        module = tmp_path / relpath
        module.parent.mkdir(parents=True, exist_ok=True)
        for parent in module.relative_to(tmp_path).parents:
            if str(parent) != ".":
                (tmp_path / parent / "__init__.py").touch()
        module.write_text(textwrap.dedent(source))
        return analyze([tmp_path], default_rules(), select=["RPR107"]).findings

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

class TestExplain:
    @pytest.mark.parametrize("code", ["RPR107"])
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
        assert main(["--explain", "rpr107"]) == 0
        out = capsys.readouterr().out
        assert "RPR107" in out and "sorted()" in out


class TestSanitizeProbes:
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

        def _wall_time_task(fn, payload):  # not on the replayable list
            return (payload, 0.0)

        tasks = [(None, 1, 2), (None, 3, 4)]
        mapper(self._FakePool(), _wall_time_task, [(min, 1), (max, 2)])
        serial = self._FakePool()
        serial.is_serial = True
        mapper(serial, self._task_fn(), tasks)
        assert len(calls) == 2  # no shadow replays happened

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

                    def close(self):
                        return None
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
        parallel = (shadow / "engine" / "parallel.py").read_text()
        assert "_repro_probe__('shard_permutation')" in parallel
        assert "_repro_probe__('live_resources')" in parallel
        # the fold is no probe site: its width guard has a plain test
        assert (shadow / "relation" / "validate.py").read_text() == (
            package / "relation" / "validate.py"
        ).read_text()
        assert (shadow / "_contracts_runtime.py").exists()
