"""Command-line front end: ``repro-lint`` / ``python -m repro.analysis``.

Examples::

    repro-lint                        # lint the installed repro package
    repro-lint src/repro tests        # explicit roots
    repro-lint --format json          # machine-readable findings
    repro-lint --format github        # ::error workflow annotations (CI)
    repro-lint --format sarif         # SARIF 2.1.0 (code-scanning upload)
    repro-lint --changed              # report only git-touched files
    repro-lint --select RPR001,RPR004 # subset of rules
    repro-lint --update-baseline      # grandfather the current findings
    repro-lint --list-rules           # document every rule code
    repro-lint src/repro --sanitize build/sanitized
                                      # emit the contract-asserting shadow
                                      # package (see analysis/sanitize.py)

Exit status: 0 when no *new* findings (baselined ones don't count),
1 when new findings exist, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from collections.abc import Sequence
from pathlib import Path

from . import baseline as baseline_io
from .engine import AnalysisResult, Finding, analyze
from .rules import default_rules

DEFAULT_BASELINE_NAME = ".repro-lint-baseline.json"


def _default_root() -> Path:
    """The ``repro`` package this module is installed in."""
    return Path(__file__).resolve().parents[1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis for the EulerFD reproduction: per-file "
            "lint (RPR001-RPR006), whole-program import-layering, "
            "purity-contract, and dead-export passes (RPR101-RPR103), "
            "flow-sensitive dataflow rules for parallel-state "
            "escape, merge-order sensitivity, and numeric-width "
            "overflow (RPR106-RPR108), and typestate resource-lifecycle "
            "rules for leaks, use-after-release, and release-protocol "
            "violations (RPR109-RPR111), plus metric-name discipline "
            "for the observability catalog (RPR112)."
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
        "--changed",
        action="store_true",
        help=(
            "report findings only for files the git working tree "
            "touches (diff against HEAD plus untracked files); the full "
            "scan still runs so cross-file rules stay sound, only the "
            "report is scoped"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        metavar="FILE",
        help=(
            "baseline file of grandfathered findings "
            f"(default: {DEFAULT_BASELINE_NAME} next to the first scan root, "
            "when present)"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to absorb every current finding, then exit 0",
    )
    parser.add_argument(
        "--fail-on-findings",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exit 1 when new findings exist (default: on; CI passes it explicitly)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable the incremental result cache (.repro-lint-cache/ at "
            "the repository root); caching never changes output, only "
            "skips re-analysis of unchanged files"
        ),
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


def _resolve_baseline_path(explicit: Path | None, roots: Sequence[Path]) -> Path | None:
    if explicit is not None:
        return explicit
    if not roots:
        return None
    anchor = roots[0].resolve()
    if anchor.is_file():
        anchor = anchor.parent
    for directory in (anchor, *anchor.parents):
        candidate = directory / DEFAULT_BASELINE_NAME
        if candidate.exists():
            return candidate
    return None


def _render_text(
    new: list[Finding], grandfathered: list[Finding], result: AnalysisResult
) -> str:
    lines = [finding.format() for finding in new]
    if grandfathered:
        lines.append(
            f"({len(grandfathered)} baselined finding"
            f"{'s' if len(grandfathered) != 1 else ''} suppressed)"
        )
    for failed in result.parse_errors:
        lines.append(f"{failed}: could not parse (skipped)")
    summary = (
        f"{result.files_scanned} files scanned, {len(new)} finding"
        f"{'s' if len(new) != 1 else ''}"
    )
    lines.append(summary)
    return "\n".join(lines)


def _render_json(
    new: list[Finding], grandfathered: list[Finding], result: AnalysisResult
) -> str:
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
            "findings": [encode(finding) for finding in new],
            "baselined": [encode(finding) for finding in grandfathered],
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


def _render_sarif(
    new: list[Finding], grandfathered: list[Finding], result: AnalysisResult
) -> str:
    """A SARIF 2.1.0 log: one run, rule metadata, one result per finding.

    Baselined findings are included with an external suppression rather
    than dropped, so code-scanning shows them as closed instead of
    re-opening them on every upload.  Columns are 1-based in SARIF;
    findings carry ast's 0-based ``col_offset``.
    """
    rules = default_rules()
    rule_index = {rule.code: position for position, rule in enumerate(rules)}

    def encode(finding: Finding, suppressed: bool) -> dict[str, object]:
        sarif_result: dict[str, object] = {
            "ruleId": finding.rule,
            "ruleIndex": rule_index.get(finding.rule, -1),
            "level": "note" if suppressed else "error",
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
        if suppressed:
            sarif_result["suppressions"] = [{"kind": "external"}]
        return sarif_result

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
                "results": [
                    *(encode(finding, False) for finding in new),
                    *(encode(finding, True) for finding in grandfathered),
                ],
            }
        ],
    }
    return json.dumps(log, indent=2)


def _changed_files(parser: argparse.ArgumentParser) -> set[str]:
    """Absolute paths the working tree touches: diff vs HEAD + untracked."""
    import subprocess

    def run(*arguments: str) -> list[str]:
        completed = subprocess.run(
            ["git", *arguments],
            capture_output=True,
            text=True,
        )
        if completed.returncode != 0:
            parser.error(
                "--changed requires a git checkout: "
                + completed.stderr.strip().splitlines()[-1]
            )
        return [line for line in completed.stdout.splitlines() if line]

    toplevel = Path(run("rev-parse", "--show-toplevel")[0])
    changed = run("diff", "--name-only", "HEAD")
    untracked = run("ls-files", "--others", "--exclude-standard")
    return {
        str((toplevel / relative).resolve())
        for relative in (*changed, *untracked)
    }


def _scope_to_changed(
    findings: list[Finding], result: AnalysisResult, changed: set[str]
) -> list[Finding]:
    return [
        finding
        for finding in findings
        if str(Path(result.paths.get(finding.path, finding.path)).resolve())
        in changed
    ]


def _annotation_escape(text: str) -> str:
    """Escape a message for a GitHub workflow-command property/value."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _render_github(
    new: list[Finding], grandfathered: list[Finding], result: AnalysisResult
) -> str:
    """``::error`` workflow annotations, one per new finding.

    Annotation paths must be workspace-relative for GitHub to attach
    them to the diff, so the scan-root-relative finding paths are mapped
    back through the absolute paths the engine recorded.
    """
    lines = []
    for finding in new:
        display = _display_path(finding, result)
        lines.append(
            f"::error file={_annotation_escape(display)},"
            f"line={finding.line},col={finding.col},"
            f"title={finding.rule}::{_annotation_escape(finding.message)}"
        )
    if grandfathered:
        lines.append(
            f"({len(grandfathered)} baselined finding"
            f"{'s' if len(grandfathered) != 1 else ''} suppressed)"
        )
    for failed in result.parse_errors:
        lines.append(f"{failed}: could not parse (skipped)")
    lines.append(
        f"{result.files_scanned} files scanned, {len(new)} finding"
        f"{'s' if len(new) != 1 else ''}"
    )
    return "\n".join(lines)


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
                "  repo-wide:   repro-lint --update-baseline",
            ]
        )
        if rule.code == "RPR107":
            lines.append(
                "  proven order:  # pragma: repro-lint ordered"
                "   (site-level justification)"
            )
        if rule.code in ("RPR109", "RPR110", "RPR111"):
            lines.extend(
                [
                    "",
                    "declare ownership in the docstring instead of "
                    "suppressing:",
                    "  Owns: return           (caller must release the "
                    "returned handle)",
                    "  Owns: return via call  ((handle, cleanup) pair; "
                    "caller calls cleanup)",
                    "  Owns: self             (a later method of the same "
                    "object releases it)",
                    "  Owns: p via <protocol> (function takes over "
                    "releasing parameter p)",
                    "  Borrows: p, q          (parameters used but never "
                    "released here)",
                ]
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

    cache = None
    if not options.no_cache:
        from .cache import LintCache, find_cache_dir

        cache_dir = find_cache_dir(roots[0])
        if cache_dir is not None:
            cache = LintCache(cache_dir)

    result = analyze(roots, default_rules(), select=select, cache=cache)

    baseline_path = _resolve_baseline_path(options.baseline, roots)
    if options.update_baseline:
        target = baseline_path or roots[0].resolve() / DEFAULT_BASELINE_NAME
        if target.is_dir():
            target = target / DEFAULT_BASELINE_NAME
        baseline_io.save(target, result.findings)
        print(f"baseline written: {target} ({len(result.findings)} findings)")
        return 0

    try:
        known_findings = baseline_io.load(baseline_path) if baseline_path else None
    except ValueError as error:
        parser.error(str(error))
    if known_findings:
        new, grandfathered = baseline_io.partition(result.findings, known_findings)
    else:
        new, grandfathered = result.findings, []

    if options.changed:
        changed = _changed_files(parser)
        new = _scope_to_changed(new, result, changed)
        grandfathered = _scope_to_changed(grandfathered, result, changed)

    if options.format == "json":
        print(_render_json(new, grandfathered, result))
    elif options.format == "github":
        print(_render_github(new, grandfathered, result))
    elif options.format == "sarif":
        print(_render_sarif(new, grandfathered, result))
    else:
        print(_render_text(new, grandfathered, result))

    if result.parse_errors:
        return 1
    if new and options.fail_on_findings:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
