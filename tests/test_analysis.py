"""Tests for the repro.analysis lint engine, rules, and CLI.

The fixture snippets under ``tests/analysis_fixtures/`` are laid out as a
miniature source tree (``core/``, ``algorithms/``, ``metrics/``,
``relation/``) so the path-scoped rules fire exactly as they would on
``src/repro``; each fixture file triggers findings of exactly one rule.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import analyze, default_rules
from repro.analysis.cli import main

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "analysis_fixtures"
SRC_REPRO = Path(repro.__file__).resolve().parent

#: fixture file (relative to FIXTURES) -> the single rule it triggers
EXPECTED_FIXTURE_RULES = {
    "core/rpr001_unseeded.py": "RPR001",
    "core/rpr002_rawmask.py": "RPR002",
    "algorithms/rpr003_contract.py": "RPR003",
    "metrics/rpr004_mutable_default.py": "RPR004",
    "metrics/rpr005_unannotated.py": "RPR005",
    "relation/rpr006_dtype.py": "RPR006",
    "core/rpr104_clock.py": "RPR104",
    "core/rpr105_parallel.py": "RPR105",
    "metrics/rpr101_layering.py": "RPR101",
    "core/rpr101_cycle_a.py": "RPR101",
    "core/rpr101_cycle_b.py": "RPR101",
    "core/rpr102_contract.py": "RPR102",
    "deadpkg/__init__.py": "RPR103",
    "core/rpr107_unordered.py": "RPR107",
    "core/rpr112_metric_name.py": "RPR112",
    "core/rpr114_stream_encode.py": "RPR114",
}


@pytest.fixture(scope="module")
def fixture_findings():
    return analyze([FIXTURES], default_rules()).findings


class TestFixtures:
    def test_every_rule_has_a_triggering_fixture(self):
        codes = {rule.code for rule in default_rules()}
        assert set(EXPECTED_FIXTURE_RULES.values()) == codes

    @pytest.mark.parametrize("relpath,code", sorted(EXPECTED_FIXTURE_RULES.items()))
    def test_fixture_triggers_exactly_its_rule(self, fixture_findings, relpath, code):
        rules_hit = {
            finding.rule for finding in fixture_findings if finding.path == relpath
        }
        assert rules_hit == {code}

    def test_no_findings_outside_fixture_files(self, fixture_findings):
        unexpected = {
            finding.path
            for finding in fixture_findings
            if finding.path not in EXPECTED_FIXTURE_RULES
        }
        assert unexpected == set()

    def test_findings_carry_location_and_message(self, fixture_findings):
        assert fixture_findings, "fixtures must produce findings"
        for finding in fixture_findings:
            assert finding.line >= 1
            assert finding.col >= 1
            assert finding.message
            formatted = finding.format()
            assert finding.path in formatted and finding.rule in formatted


class TestSourceTreeIsClean:
    def test_src_tree_is_clean(self):
        """The shipped package has zero findings."""
        result = analyze([SRC_REPRO], default_rules())
        assert result.parse_errors == []
        assert result.files_scanned > 50
        assert [finding.format() for finding in result.findings] == []


class TestSuppressions:
    def _scan(self, tmp_path: Path, source: str) -> list:
        module = tmp_path / "core" / "snippet.py"
        module.parent.mkdir(exist_ok=True)
        module.write_text(textwrap.dedent(source))
        return analyze([tmp_path], default_rules()).findings

    def test_inline_disable_silences_one_line(self, tmp_path):
        findings = self._scan(
            tmp_path,
            """\
            def masks(index: int) -> tuple[int, int]:
                allowed = 1 << index  # repro-lint: disable=RPR002
                flagged = 1 << index
                return allowed, flagged
            """,
        )
        assert [finding.line for finding in findings] == [3]

    def test_file_level_disable_silences_module(self, tmp_path):
        findings = self._scan(
            tmp_path,
            """\
            # repro-lint: disable-file=RPR002
            def masks(index: int) -> int:
                return 1 << index
            """,
        )
        assert findings == []

    def test_file_level_disable_only_covers_listed_codes(self, tmp_path):
        findings = self._scan(
            tmp_path,
            """\
            # repro-lint: disable-file=RPR002
            import random

            def draw() -> float:
                return random.random()
            """,
        )
        assert [finding.rule for finding in findings] == ["RPR001"]


class TestProjectRules:
    """The whole-program passes on synthetic miniature trees."""

    def _write(self, tmp_path: Path, relpath: str, source: str) -> None:
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))

    def test_upward_import_is_a_layer_violation(self, tmp_path):
        self._write(tmp_path, "fd/low.py", "VALUE = 1\n")
        self._write(tmp_path, "fd/bad.py", "from ..core import driver as _d\n")
        self._write(tmp_path, "fd/rows.py", "from ..relation import table as _t\n")
        self._write(tmp_path, "core/driver.py", "from ..fd import low as _low\n")
        self._write(tmp_path, "relation/table.py", "from ..fd import low as _low\n")
        findings = analyze([tmp_path], default_rules(), select=["RPR101"]).findings
        assert [finding.path for finding in findings] == ["fd/bad.py", "fd/rows.py"]
        assert all("layer violation" in finding.message for finding in findings)

    def test_cycle_reported_on_every_member(self, tmp_path):
        self._write(tmp_path, "core/a.py", "from . import b as _b\n")
        self._write(tmp_path, "core/b.py", "from . import c as _c\n")
        self._write(tmp_path, "core/c.py", "from . import a as _a\n")
        findings = analyze([tmp_path], default_rules(), select=["RPR101"]).findings
        assert sorted(finding.path for finding in findings) == [
            "core/a.py",
            "core/b.py",
            "core/c.py",
        ]
        assert all("import cycle" in finding.message for finding in findings)

    def test_analysis_package_is_isolated(self, tmp_path):
        self._write(tmp_path, "analysis/engine.py", "VALUE = 1\n")
        self._write(tmp_path, "core/uses.py", "from ..analysis import engine\n")
        findings = analyze([tmp_path], default_rules(), select=["RPR101"]).findings
        assert [finding.path for finding in findings] == ["core/uses.py"]
        assert "isolated" in findings[0].message

    def test_contract_grammar_errors_are_reported(self, tmp_path):
        self._write(
            tmp_path,
            "core/kernels.py",
            """\
            def broken(values: list) -> None:
                '''Contradictory contract.

                Pure:
                Mutates: values
                '''
            """,
        )
        findings = analyze([tmp_path], default_rules(), select=["RPR102"]).findings
        assert len(findings) == 1
        assert "mutually exclusive" in findings[0].message

    def test_contract_naming_unknown_parameter(self, tmp_path):
        self._write(
            tmp_path,
            "core/kernels.py",
            """\
            def renamed(values: list) -> None:
                '''Mutates: old_name'''
                values.append(1)
            """,
        )
        findings = analyze([tmp_path], default_rules(), select=["RPR102"]).findings
        assert len(findings) == 1
        assert "not a parameter" in findings[0].message

    def test_inline_suppression_covers_purity_rule(self, tmp_path):
        self._write(
            tmp_path,
            "core/kernels.py",
            """\
            def renamed(values: list) -> None:  # repro-lint: disable=RPR102
                '''Mutates: old_name'''
                values.append(1)
            """,
        )
        assert analyze([tmp_path], default_rules()).findings == []

    def test_file_suppression_covers_cycle_rule(self, tmp_path):
        self._write(
            tmp_path,
            "core/a.py",
            "# repro-lint: disable-file=RPR101\nfrom . import b as _b\n",
        )
        self._write(tmp_path, "core/b.py", "from . import a as _a\n")
        findings = analyze([tmp_path], default_rules(), select=["RPR101"]).findings
        assert [finding.path for finding in findings] == ["core/b.py"]

    def test_dead_export_flagged_and_referenced_export_not(self, tmp_path):
        """RPR103 on a rootless tree falls back to the scanned modules."""
        self._write(
            tmp_path,
            "pkg/__init__.py",
            """\
            from .impl import alive, dead

            __all__ = ["alive", "dead"]
            """,
        )
        self._write(
            tmp_path,
            "pkg/impl.py",
            """\
            def alive() -> int:
                return 1


            def dead() -> int:
                return 2


            _USED = alive
            """,
        )
        findings = analyze([tmp_path], default_rules(), select=["RPR103"]).findings
        assert len(findings) == 1
        assert "'dead'" in findings[0].message
        assert findings[0].path == "pkg/__init__.py"


class TestCli:
    def test_exits_nonzero_on_each_rule_fixture(self, capsys):
        for code in sorted(set(EXPECTED_FIXTURE_RULES.values())):
            status = main([str(FIXTURES), "--select", code])
            out = capsys.readouterr().out
            assert status == 1, code
            assert code in out

    def test_exits_zero_on_shipped_tree(self, capsys):
        assert main([str(SRC_REPRO), "--fail-on-findings"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_json_output(self, capsys):
        status = main([str(FIXTURES), "--format", "json"])
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_scanned"] >= len(EXPECTED_FIXTURE_RULES)
        rules = {finding["rule"] for finding in payload["findings"]}
        assert rules == set(EXPECTED_FIXTURE_RULES.values())

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in sorted(set(EXPECTED_FIXTURE_RULES.values())):
            assert code in out

    def test_unknown_rule_code_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([str(FIXTURES), "--select", "RPR999"])
        assert excinfo.value.code == 2

    def test_github_format_emits_workflow_annotations(self, tmp_path, capsys, monkeypatch):
        module = tmp_path / "core" / "unseeded.py"
        module.parent.mkdir()
        module.write_text(
            "import random\n\n\ndef draw() -> float:\n    return random.random()\n"
        )
        monkeypatch.chdir(tmp_path)
        status = main([str(tmp_path), "--format", "github"])
        out = capsys.readouterr().out
        assert status == 1
        assert "::error file=core/unseeded.py,line=" in out
        assert "title=RPR001::" in out
        assert "1 finding" in out

    def test_github_format_escapes_newlines_and_percent(self):
        from repro.analysis.cli import _annotation_escape

        assert _annotation_escape("a%b\nc\rd") == "a%25b%0Ac%0Dd"

    def test_sanitize_requires_exactly_one_root(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    str(FIXTURES),
                    str(SRC_REPRO),
                    "--sanitize",
                    str(tmp_path / "out"),
                ]
            )
        assert excinfo.value.code == 2

    def test_module_entry_point(self):
        """``python -m repro.analysis`` works against a violating fixture."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_REPRO.parent) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(FIXTURES / "core")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert completed.returncode == 1
        assert "RPR001" in completed.stdout


def _unseeded_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "tree"
    (tree / "core").mkdir(parents=True)
    (tree / "core" / "unseeded.py").write_text(
        "import random\n\n\ndef draw() -> float:\n    return random.random()\n"
    )
    return tree


class TestSarifOutput:
    def _log(self, tmp_path, capsys, monkeypatch) -> dict:
        _unseeded_tree(tmp_path)
        # Relative artifact uris require the scan root under the cwd,
        # exactly as in CI where the workspace root is the cwd.
        monkeypatch.chdir(tmp_path)
        code = main(["tree", "--format", "sarif", "--select", "RPR001"])
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
        assert run["results"], "the unseeded tree must produce a result"
        for sarif_result in run["results"]:
            index = sarif_result["ruleIndex"]
            assert rules[index]["id"] == sarif_result["ruleId"] == "RPR001"
            assert sarif_result["level"] == "error"
            (location,) = sarif_result["locations"]
            region = location["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1
            uri = location["physicalLocation"]["artifactLocation"]["uri"]
            assert not uri.startswith("/"), "uri must be relative"
