"""Tests for the typestate resource-lifecycle layer (RPR109-RPR111):
the ``Owns:``/``Borrows:`` contract grammar, must/may path merging,
exception-edge and loop-carried leaks, interprocedural ownership
transfer, the deliberately-broken engine shapes from the issue, the
SARIF/``--changed`` CLI surface, and the ``live_resources`` probe."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

from repro.analysis import analyze, explain_rule
from repro.analysis import _contracts_runtime as runtime
from repro.analysis._contracts_runtime import ProbeViolation, probe
from repro.analysis.cli import main
from repro.analysis.contracts import parse_contract
from repro.analysis.lifecycle import PROTOCOLS, default_lifecycle_rules


def _scan(tmp_path: Path, source: str, relpath: str = "mod.py"):
    module = tmp_path / relpath
    module.parent.mkdir(parents=True, exist_ok=True)
    for parent in module.relative_to(tmp_path).parents:
        if str(parent) != ".":
            (tmp_path / parent / "__init__.py").touch()
    module.write_text(textwrap.dedent(source))
    return analyze([tmp_path], default_lifecycle_rules()).findings


def _codes(findings) -> list[str]:
    return sorted(finding.rule for finding in findings)


# -- contract grammar ----------------------------------------------------------


class TestOwnershipGrammar:
    def test_owns_return_plain_and_via_call(self):
        assert parse_contract("x\n\nOwns: return\n").owns_return == "plain"
        assert parse_contract("x\n\nOwns: return via call\n").owns_return == "call"

    def test_owns_self_and_params(self):
        contract = parse_contract("x\n\nOwns: self\nOwns: seg via mmap-matrix\n")
        assert contract.owns_self
        assert contract.owns_params == (("seg", "mmap-matrix"),)

    def test_borrows_list(self):
        contract = parse_contract("x\n\nBorrows: pool, data\n")
        assert contract.borrows == ("pool", "data")
        assert contract.declares_lifecycle_contract

    def test_pure_alone_is_not_a_lifecycle_contract(self):
        assert not parse_contract("x\n\nPure: data\n").declares_lifecycle_contract

    def test_every_protocol_is_well_formed(self):
        for name, protocol in PROTOCOLS.items():
            assert protocol.name == name
            assert protocol.steps, name
            assert protocol.description, name


# -- RPR109: leak on path ------------------------------------------------------


class TestLeakOnPath:
    def test_early_return_leaks(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def read(path, strict):
                handle = open(path)
                if strict:
                    return ""
                text = handle.read()
                handle.close()
                return text
            """,
        )
        assert _codes(findings) == ["RPR109"]

    def test_exception_edge_leaks(self, tmp_path):
        # parse() can raise while the handle is live and unprotected.
        findings = _scan(
            tmp_path,
            """
            def read(path, parse):
                handle = open(path)
                value = parse(handle.read())
                handle.close()
                return value
            """,
        )
        assert _codes(findings) == ["RPR109"]

    def test_try_finally_is_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def read(path, parse):
                handle = open(path)
                try:
                    return parse(handle.read())
                finally:
                    handle.close()
            """,
        )
        assert findings == []

    def test_with_statement_is_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def read(path):
                with open(path) as handle:
                    return handle.read()
            """,
        )
        assert findings == []

    def test_loop_carried_rebind_leaks(self, tmp_path):
        # The back edge carries last iteration's still-open handle into
        # the same acquisition line; rebinding kills it unreleased.
        findings = _scan(
            tmp_path,
            """
            def read_all(paths):
                texts = []
                for path in paths:
                    handle = open(path)
                    texts.append(handle.read())
                return texts
            """,
        )
        assert "RPR109" in _codes(findings)

    def test_loop_with_release_is_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def read_all(paths):
                texts = []
                for path in paths:
                    handle = open(path)
                    try:
                        texts.append(handle.read())
                    finally:
                        handle.close()
                return texts
            """,
        )
        assert findings == []

    def test_owns_return_declaration_is_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def acquire(path):
                '''Open the log.

                Owns: return
                '''
                return open(path)
            """,
        )
        assert findings == []

    def test_undeclared_return_is_flagged(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def acquire(path):
                return open(path)
            """,
        )
        assert _codes(findings) == ["RPR109"]

    def test_ownership_transfer_via_summary_is_clean(self, tmp_path):
        # closer() declares Owns: handle, so the caller's handle is
        # released interprocedurally — one-level summary, RPR107-style.
        findings = _scan(
            tmp_path,
            """
            def closer(handle):
                '''Release the handle.

                Owns: handle via file
                '''
                handle.close()

            def read(path):
                handle = open(path)
                text = handle.read()
                closer(handle)
                return text
            """,
        )
        assert findings == []

    def test_borrowing_callee_keeps_caller_responsible(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def peek(handle):
                '''Read without closing.

                Borrows: handle
                '''
                return handle.read()

            def read(path):
                handle = open(path)
                return peek(handle)
            """,
        )
        assert _codes(findings) == ["RPR109"]


# -- RPR110: use after release -------------------------------------------------


class TestUseAfterRelease:
    def test_read_after_close(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def read(path):
                handle = open(path)
                handle.close()
                return handle.read()
            """,
        )
        assert "RPR110" in _codes(findings)

    def test_may_released_is_not_flagged(self, tmp_path):
        # Close on one branch only: the resource *may* be live, so the
        # later use is not a must-use-after-release (the leak on the
        # closing branch is RPR109's to report, not RPR110's).
        findings = _scan(
            tmp_path,
            """
            def read(path, eager):
                handle = open(path)
                if eager:
                    handle.close()
                text = handle.read()
                handle.close()
                return text
            """,
        )
        assert "RPR110" not in _codes(findings)


# -- RPR111: release-protocol violations ---------------------------------------


def _with_segment(source: str) -> str:
    """Prefix a stub MmapSegment class (pre-dedented concatenation)."""
    preamble = textwrap.dedent(
        """
        class MmapSegment:
            def __init__(self, path):
                self.path = path
            def close(self):
                pass
            def unlink(self):
                pass
        """
    )
    return preamble + textwrap.dedent(source)


class TestReleaseProtocol:
    def test_unlink_before_close(self, tmp_path):
        findings = _scan(
            tmp_path,
            _with_segment("""
            def publish(path):
                segment = MmapSegment(path)
                segment.unlink()
                segment.close()
            """),
        )
        assert "RPR111" in _codes(findings)

    def test_double_close(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def read(path):
                handle = open(path)
                handle.close()
                handle.close()
            """,
        )
        assert "RPR111" in _codes(findings)

    def test_branch_merged_release_is_may_not_must(self, tmp_path):
        # After a one-branch close the state is {open, closed}: closing
        # again is legal on the open path, so no must-double-release.
        findings = _scan(
            tmp_path,
            """
            def read(path, eager):
                handle = open(path)
                if eager:
                    handle.close()
                else:
                    handle.close()
                return ""
            """,
        )
        assert "RPR111" not in _codes(findings)

    def test_releasing_a_borrowed_param(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def peek(handle):
                '''Read some bytes.

                Borrows: handle
                '''
                text = handle.read()
                handle.close()
                return text
            """,
        )
        assert "RPR111" in _codes(findings)

    def test_in_order_protocol_is_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            _with_segment("""
            def publish(path):
                segment = MmapSegment(path)
                segment.close()
                segment.unlink()
            """),
        )
        assert findings == []


# -- the issue's deliberately-broken engine shapes -----------------------------


class TestBrokenEngineShapes:
    def test_publish_matrix_missing_unlink_on_error_path(self, tmp_path):
        # A copy of publish_matrix whose error path forgets unlink: the
        # segment reaches the raise with only close applied.
        findings = _scan(
            tmp_path,
            _with_segment("""
            def broken_publish(matrix, path):
                '''Publish one matrix.

                Owns: return via call
                '''
                segment = MmapSegment(path)
                try:
                    fill(segment, matrix)
                except BaseException:
                    segment.close()
                    raise
                return segment, segment.close
            """),
        )
        assert "RPR109" in _codes(findings)

    def test_close_unlinks_before_closing(self, tmp_path):
        findings = _scan(
            tmp_path,
            _with_segment("""
            def broken_close(segment):
                '''Tear one segment down.

                Owns: segment via mmap-matrix
                '''
                segment.unlink()
                segment.close()
            """),
        )
        assert "RPR111" in _codes(findings)

    def test_fixed_shapes_are_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            _with_segment("""
            def discard(segment):
                '''Tear one segment down.

                Owns: segment via mmap-matrix
                '''
                segment.close()
                segment.unlink()

            def publish(matrix, path):
                '''Publish one matrix.

                Owns: return via call
                '''
                segment = MmapSegment(path)
                try:
                    fill(segment, matrix)
                except BaseException:
                    discard(segment)
                    raise
                return segment, segment.close
            """),
        )
        assert findings == []


# -- termination ---------------------------------------------------------------


class TestTermination:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("guarded", [False, True])
    def test_nested_loops_reach_a_fixpoint(self, tmp_path, depth, guarded):
        # Widening must bound the per-resource state sets: nested loops
        # that acquire, maybe release, and rebind converge quickly and
        # never hang the analysis (a diverging transfer would time out
        # the whole suite long before any assertion fired).
        body = "handle = open(str(i0))\n"
        for level in range(depth):
            indent = "    " * (level + 1)
            body += f"{indent}for i{level + 1} in range(i{level}):\n"
            inner = "    " * (level + 2)
            if guarded:
                body += f"{inner}if i{level + 1} > 1:\n"
                body += f"{inner}    handle.close()\n"
                body += f"{inner}    handle = open(str(i{level + 1}))\n"
            else:
                body += f"{inner}handle = open(str(i{level + 1}))\n"
        source = (
            "def churn(i0):\n    "
            + body
            + "    handle.close()\n    return i0\n"
        )
        findings = _scan(tmp_path, source)
        if guarded:
            # close-then-rebind keeps exactly one live handle per path
            # and the trailing close releases it: clean at any depth.
            assert findings == []
        else:
            # The back edge rebinds over a still-open handle: leak.
            assert "RPR109" in _codes(findings)


# -- fixture suppressions ------------------------------------------------------


class TestSuppression:
    @pytest.mark.parametrize("code", ["RPR109", "RPR110", "RPR111"])
    def test_suppressed_fixture_is_silent(self, code):
        fixtures = Path(__file__).resolve().parent / "analysis_fixtures"
        stem = {
            "RPR109": "rpr109_leak_suppressed.py",
            "RPR110": "rpr110_use_after_release_suppressed.py",
            "RPR111": "rpr111_release_order_suppressed.py",
        }[code]
        findings = analyze(
            [fixtures / "engine" / stem], default_lifecycle_rules()
        ).findings
        assert findings == []


# -- CLI: SARIF and --changed --------------------------------------------------


def _leaky_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "leak.py").write_text(
        textwrap.dedent(
            """
            def read(path, strict):
                handle = open(path)
                if strict:
                    return ""
                text = handle.read()
                handle.close()
                return text
            """
        )
    )
    return tree


class TestSarifOutput:
    def _log(self, tmp_path, capsys, monkeypatch) -> dict:
        tree = _leaky_tree(tmp_path)
        # Relative artifact uris require the scan root under the cwd,
        # exactly as in CI where the workspace root is the cwd.
        monkeypatch.chdir(tmp_path)
        code = main(
            ["tree", "--format", "sarif", "--no-cache", "--select", "RPR109"]
        )
        assert code == 1
        return json.loads(capsys.readouterr().out)

    def test_log_is_structurally_valid_sarif(self, tmp_path, capsys, monkeypatch):
        log = self._log(tmp_path, capsys, monkeypatch)
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-2.1.0.json")
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert len(rule_ids) == len(set(rule_ids))
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]

    def test_results_reference_rule_metadata(self, tmp_path, capsys, monkeypatch):
        log = self._log(tmp_path, capsys, monkeypatch)
        (run,) = log["runs"]
        rules = run["tool"]["driver"]["rules"]
        assert run["results"], "the leaky tree must produce a result"
        for sarif_result in run["results"]:
            index = sarif_result["ruleIndex"]
            assert rules[index]["id"] == sarif_result["ruleId"] == "RPR109"
            assert sarif_result["level"] == "error"
            (location,) = sarif_result["locations"]
            region = location["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1
            uri = location["physicalLocation"]["artifactLocation"]["uri"]
            assert not uri.startswith("/"), "uri must be relative"

    def test_baselined_findings_carry_suppressions(self, tmp_path, capsys):
        tree = _leaky_tree(tmp_path)
        baseline = tree / ".repro-lint-baseline.json"
        assert (
            main([str(tree), "--no-cache", "--update-baseline"]) == 0
        )
        capsys.readouterr()
        code = main(
            [
                str(tree),
                "--format",
                "sarif",
                "--no-cache",
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 0
        log = json.loads(capsys.readouterr().out)
        (run,) = log["runs"]
        assert run["results"]
        for sarif_result in run["results"]:
            assert sarif_result["level"] == "note"
            assert sarif_result["suppressions"] == [{"kind": "external"}]


class TestChangedScope:
    def _git(self, cwd: Path, *arguments: str) -> None:
        subprocess.run(
            ["git", *arguments],
            cwd=cwd,
            check=True,
            capture_output=True,
            env={
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@example.com",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@example.com",
                "HOME": str(cwd),
                "PATH": "/usr/bin:/bin",
            },
        )

    def test_changed_scopes_the_report(self, tmp_path, capsys, monkeypatch):
        tree = _leaky_tree(tmp_path)
        self._git(tree, "init", "-q")
        self._git(tree, "add", "leak.py")
        self._git(tree, "commit", "-qm", "seed")
        monkeypatch.chdir(tree)

        # Committed + unchanged: the finding exists but is out of scope.
        code = main(["--format", "json", "--no-cache", "--changed", "."])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["findings"] == []

        # An untracked leaky file is in scope; the committed one stays out.
        (tree / "fresh.py").write_text((tree / "leak.py").read_text())
        code = main(["--format", "json", "--no-cache", "--changed", "."])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert {finding["path"] for finding in report["findings"]} == {"fresh.py"}


class TestExplain:
    @pytest.mark.parametrize("code", ["RPR109", "RPR110", "RPR111"])
    def test_explain_shows_the_ownership_grammar(self, code):
        text = explain_rule(code)
        assert "Owns: return" in text
        assert "Borrows:" in text
        assert f"disable={code}" in text


# -- the live_resources probe --------------------------------------------------


class _FakePool:
    def __init__(self):
        self._published = {}
        self._executor = None

    def close(self):
        return None


class TestLiveResourcesProbe:
    @pytest.fixture
    def wrapped_close(self, monkeypatch):
        # Keep the decorate-time atexit registration out of the test
        # process; the exit check is exercised directly below.
        monkeypatch.setitem(runtime._EXIT_CHECK, "registered", True)
        monkeypatch.delenv("REPRO_PROBES_DISABLE", raising=False)
        monkeypatch.delenv("REPRO_PROBES_MAX_CHECKS", raising=False)

        def close(pool):
            return pool.close()

        return probe("live_resources")(close)

    def test_clean_close_passes(self, wrapped_close):
        assert wrapped_close(_FakePool()) is None

    def test_surviving_publication_violates(self, wrapped_close):
        pool = _FakePool()
        pool._published = {1: object()}
        with pytest.raises(ProbeViolation, match="publications survived"):
            wrapped_close(pool)

    def test_surviving_executor_violates(self, wrapped_close):
        pool = _FakePool()
        pool._executor = object()
        with pytest.raises(ProbeViolation, match="executor survived"):
            wrapped_close(pool)

    def test_exit_check_passes_when_clean(self, monkeypatch):
        exits: list[int] = []
        monkeypatch.setattr(runtime.os, "_exit", exits.append)
        runtime._exit_live_resources_check("nosuchpkg.parallel")
        assert exits == []

    def test_exit_check_flags_leaked_segments(self, monkeypatch, capsys):
        exits: list[int] = []
        monkeypatch.setattr(runtime.os, "_exit", exits.append)
        monkeypatch.setattr(
            runtime, "_own_segments", lambda prefix: {"repro_mmap_1_leak"}
        )
        runtime._exit_live_resources_check("nosuchpkg.parallel")
        assert exits == [70]
        assert "leaked past interpreter exit" in capsys.readouterr().err

    def test_exit_check_flags_unbalanced_contexts(self, monkeypatch, capsys):
        exits: list[int] = []
        monkeypatch.setattr(runtime.os, "_exit", exits.append)
        context = types.ModuleType("fakepkg.context")
        context._ACTIVE = types.SimpleNamespace(stack=[object()])
        monkeypatch.setitem(sys.modules, "fakepkg.context", context)
        runtime._exit_live_resources_check("fakepkg.parallel")
        assert exits == [70]
        assert "context stack unbalanced" in capsys.readouterr().err
