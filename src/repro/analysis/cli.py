"""Command-line front end: ``repro-lint`` / ``python -m repro.analysis``.

Examples::

    repro-lint                        # lint the installed repro package
    repro-lint src/repro tests        # explicit roots
    repro-lint --format json          # machine-readable findings
    repro-lint --format github        # ::error workflow annotations (CI)
    repro-lint --format sarif         # SARIF 2.1.0 (code-scanning upload)
    repro-lint --select RPR001,RPR004 # subset of rules
    repro-lint --list-rules           # document every rule code
    repro-lint --explain RPR107       # one rule's rationale and example
    repro-lint src/repro --sanitize build/sanitized
                                      # emit the contract-asserting shadow
                                      # package (see analysis/sanitize.py)

Exit status: 0 when there are no findings, 1 when findings exist (or a
file does not parse), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from collections.abc import Sequence
from pathlib import Path

from .engine import AnalysisResult, Finding, analyze
from .rules import default_rules


def _default_root() -> Path:
    """The ``repro`` package this module is installed in."""
    return Path(__file__).resolve().parents[1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis for the EulerFD reproduction: per-file "
            "lint (RPR001-RPR006, RPR102 contract declarations, RPR104 "
            "clock, RPR105 parallelism, RPR112 metric names, RPR114 "
            "streaming encodes), whole-program import layering and "
            "dead exports (RPR101, RPR103), and the flow-sensitive "
            "merge-order rule (RPR107)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to scan (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github", "sarif"),
        default="text",
        help=(
            "output format (default: text); 'github' emits ::error "
            "workflow annotations plus the text summary, 'sarif' a "
            "SARIF 2.1.0 log for code-scanning upload"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--fail-on-findings",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exit 1 when findings exist (default: on; CI passes it explicitly)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every rule code and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        help="print one rule's rationale, example, and suppression syntax",
    )
    parser.add_argument(
        "--sanitize",
        type=Path,
        metavar="OUTDIR",
        help=(
            "instead of linting, write a shadow copy of the (single) "
            "package root with every docstring contract enforced as a "
            "runtime assertion; put OUTDIR on PYTHONPATH to test it"
        ),
    )
    return parser


def _summary_lines(result: AnalysisResult) -> list[str]:
    """Parse failures plus the closing count, shared by text and github."""
    lines = [f"{failed}: could not parse (skipped)" for failed in result.parse_errors]
    found = len(result.findings)
    lines.append(
        f"{result.files_scanned} files scanned, {found} finding"
        f"{'s' if found != 1 else ''}"
    )
    return lines


def _render_text(result: AnalysisResult) -> str:
    lines = [finding.format() for finding in result.findings]
    return "\n".join(lines + _summary_lines(result))


def _render_json(result: AnalysisResult) -> str:
    def encode(finding: Finding) -> dict[str, object]:
        return {
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "rule": finding.rule,
            "message": finding.message,
        }

    return json.dumps(
        {
            "files_scanned": result.files_scanned,
            "parse_errors": result.parse_errors,
            "findings": [encode(finding) for finding in result.findings],
        },
        indent=2,
    )


def _display_path(finding: Finding, result: AnalysisResult) -> str:
    """Map a scan-root-relative finding path back to a cwd-relative one.

    GitHub (annotations and SARIF alike) attaches findings to the diff
    only when paths are workspace-relative, so the absolute paths the
    engine recorded are preferred over the scan-relative spelling.
    """
    recorded = result.paths.get(finding.path)
    if recorded is None:
        return finding.path
    try:
        return Path(recorded).relative_to(Path.cwd()).as_posix()
    except ValueError:
        return recorded


def _render_sarif(result: AnalysisResult) -> str:
    """A SARIF 2.1.0 log: one run, rule metadata, one result per finding.

    Columns are 1-based in SARIF; findings carry ast's 0-based
    ``col_offset``.
    """
    rules = default_rules()
    rule_index = {rule.code: position for position, rule in enumerate(rules)}

    def encode(finding: Finding) -> dict[str, object]:
        return {
            "ruleId": finding.rule,
            "ruleIndex": rule_index.get(finding.rule, -1),
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _display_path(finding, result),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }

    log = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://github.com/repro/eulerfd-repro"
                        ),
                        "rules": [
                            {
                                "id": rule.code,
                                "name": rule.name,
                                "shortDescription": {"text": rule.name},
                                "fullDescription": {"text": rule.rationale},
                                "defaultConfiguration": {"level": "error"},
                            }
                            for rule in rules
                        ],
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": Path.cwd().as_uri() + "/"}
                },
                "results": [encode(finding) for finding in result.findings],
            }
        ],
    }
    return json.dumps(log, indent=2)


def _annotation_escape(text: str) -> str:
    """Escape a message for a GitHub workflow-command property/value."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _render_github(result: AnalysisResult) -> str:
    """``::error`` workflow annotations, one per finding.

    Annotation paths must be workspace-relative for GitHub to attach
    them to the diff, so the scan-root-relative finding paths are mapped
    back through the absolute paths the engine recorded.
    """
    lines = []
    for finding in result.findings:
        display = _display_path(finding, result)
        lines.append(
            f"::error file={_annotation_escape(display)},"
            f"line={finding.line},col={finding.col},"
            f"title={finding.rule}::{_annotation_escape(finding.message)}"
        )
    return "\n".join(lines + _summary_lines(result))


def _list_rules() -> str:
    lines = []
    for rule in default_rules():
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def explain_rule(code: str) -> str:
    """One rule's documentation: rationale, example, suppression syntax.

    Raises ``ValueError`` for an unknown code; the CLI surface is
    ``repro-lint --explain RPR107``.
    """
    normalized = code.strip().upper()
    for rule in default_rules():
        if rule.code != normalized:
            continue
        lines = [f"{rule.code} — {rule.name}", ""]
        lines.extend(textwrap.wrap(rule.rationale, width=72))
        if rule.example:
            lines.extend(["", "example:", textwrap.indent(rule.example, "  ")])
        lines.extend(
            [
                "",
                "suppress with:",
                f"  one line:    # repro-lint: disable={rule.code}",
                f"  whole file:  # repro-lint: disable-file={rule.code}"
                "   (in the first 30 lines)",
            ]
        )
        if rule.code == "RPR107":
            lines.append(
                "  proven order:  # pragma: repro-lint ordered"
                "   (site-level justification)"
            )
        if rule.code == "RPR112":
            lines.extend(
                [
                    "",
                    "the metric-name catalog lives in repro.obs.names; "
                    "add a constant",
                    "(plus a CATALOG help string) there and pass it at "
                    "the call site.",
                ]
            )
        return "\n".join(lines)
    known = ", ".join(rule.code for rule in default_rules())
    raise ValueError(f"unknown rule code: {code!r} (known: {known})")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # Output piped into e.g. `head`; the findings already printed
        # are all the consumer wanted.  Exit quietly via the devnull
        # dance so the interpreter's stream flush does not traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        print(_list_rules())
        return 0

    if options.explain:
        try:
            print(explain_rule(options.explain))
        except ValueError as error:
            parser.error(str(error))
        return 0

    roots = list(options.paths) or [_default_root()]
    for root in roots:
        if not root.exists():
            parser.error(f"path does not exist: {root}")

    if options.sanitize is not None:
        if len(roots) != 1:
            parser.error("--sanitize takes exactly one package root")
        from .sanitize import sanitize_package

        try:
            report = sanitize_package(roots[0], options.sanitize)
        except ValueError as error:
            parser.error(str(error))
        print(report.summary())
        return 0

    select = None
    if options.select:
        select = [code.strip() for code in options.select.split(",") if code.strip()]
        known = {rule.code for rule in default_rules()}
        unknown = sorted(set(select) - known)
        if unknown:
            parser.error(f"unknown rule code(s): {', '.join(unknown)}")

    result = analyze(roots, default_rules(), select=select)

    renderers = {
        "json": _render_json,
        "github": _render_github,
        "sarif": _render_sarif,
        "text": _render_text,
    }
    print(renderers[options.format](result))

    if result.parse_errors:
        return 1
    if result.findings and options.fail_on_findings:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
