"""The AST-walking lint engine behind ``repro-lint``.

The engine is deliberately tiny — a purpose-built checker for *this*
codebase's invariants, not a general linter.  It parses every Python file
under a root once, walks each syntax tree once, and dispatches nodes to
the registered :class:`Rule` instances by node type.  Rules emit
:class:`Finding` records carrying a stable rule code (``RPR001``…)
and a ``file:line`` location.

Two suppression layers keep the tool honest rather than noisy:

* **inline** — ``# repro-lint: disable=RPR002`` on the offending line
  silences the listed codes for that line only;
* **file-level** — a ``# repro-lint: disable-file=RPR002`` comment
  anywhere in a file's first 30 lines declares the whole module exempt
  from the listed codes (used by the bitmask tree kernels, which are
  allowed raw shift arithmetic for performance — see ``fd/attrset.py``).

Both are auditable in review: each is a literal string naming the rule
code it disables, next to the code it exempts.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

_INLINE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9, ]+)")
_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Z0-9, ]+)")
_FILE_PRAGMA_WINDOW = 30
"""File-level pragmas must appear in the first this-many lines."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    """Path relative to the scan root, with forward slashes."""
    line: int
    col: int
    rule: str
    """Rule code, e.g. ``"RPR001"``."""
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class Module:
    """One parsed source file handed to every rule."""

    path: Path
    """Absolute filesystem path."""
    relpath: str
    """Path relative to the scan root, forward slashes (rules match on this)."""
    tree: ast.Module
    lines: Sequence[str]
    file_suppressions: frozenset[str] = frozenset()

    @property
    def package_parts(self) -> tuple[str, ...]:
        """Directory components of :attr:`relpath` (no filename)."""
        return tuple(self.relpath.split("/")[:-1])

    def in_packages(self, *names: str) -> bool:
        """True if any directory component of the path matches a name.

        Matching on components (not just the first) keeps path-scoped
        rules working when the scan root is the package itself
        (``fd/attrset.py``), its parent (``repro/fd/attrset.py``), or a
        fixture tree mirroring the layout.
        """
        parts = self.package_parts
        return any(part in names for part in parts)


class Rule:
    """Base class for repo-specific lint rules.

    Subclasses set :attr:`code`/:attr:`name`/:attr:`rationale`, declare
    the AST node types they want via :attr:`interests`, and implement
    :meth:`visit`; the engine walks each tree exactly once and fans nodes
    out to every interested rule.  Rules needing whole-module context can
    instead (or additionally) override :meth:`check_module`, which runs
    before the walk.
    """

    code: str = "RPR000"
    name: str = "unnamed"
    rationale: str = ""
    example: str = ""
    """Optional short before/after snippet shown by ``--explain``."""
    interests: tuple[type[ast.AST], ...] = ()

    def check_module(self, module: Module) -> Iterator[Finding]:
        """Whole-file hook; default yields nothing."""
        return iter(())

    def visit(self, node: ast.AST, module: Module) -> Iterator[Finding]:
        """Per-node hook, called for every node matching :attr:`interests`."""
        return iter(())

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            message=message,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules (RPR101…).

    Unlike per-file rules, a project rule sees every module the scan
    loaded at once, after all roots were walked.  ``shared`` is a scratch
    dict with the lifetime of one ``analyze()`` call: rules use it to
    share expensive whole-program structures (the import graph, function
    CFGs) instead of recomputing them per rule.
    """

    def check_modules(
        self, modules: Sequence[Module], shared: dict
    ) -> Iterator[Finding]:
        """Whole-project hook; default yields nothing."""
        return iter(())


@dataclass
class AnalysisResult:
    """Everything one run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[str] = field(default_factory=list)
    paths: dict[str, str] = field(default_factory=dict)
    """Finding relpath -> absolute filesystem path (for annotations)."""


def _parse_suppressions(lines: Sequence[str]) -> tuple[frozenset[str], dict[int, frozenset[str]]]:
    """Extract file-level and per-line ``repro-lint`` pragmas."""
    file_codes: set[str] = set()
    line_codes: dict[int, frozenset[str]] = {}
    for number, text in enumerate(lines, start=1):
        inline = _INLINE_RE.search(text)
        if inline:
            codes = frozenset(
                code.strip() for code in inline.group(1).split(",") if code.strip()
            )
            line_codes[number] = codes
        if number <= _FILE_PRAGMA_WINDOW:
            whole = _FILE_RE.search(text)
            if whole:
                file_codes.update(
                    code.strip() for code in whole.group(1).split(",") if code.strip()
                )
    return frozenset(file_codes), line_codes


def load_module_bytes(path: Path, relpath: str, data: bytes) -> Module | None:
    """Parse already-read bytes into a :class:`Module` (None on error)."""
    try:
        encoding, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
        source = data.decode(encoding)
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, UnicodeDecodeError, ValueError):
        return None
    lines = source.splitlines()
    file_suppressions, _ = _parse_suppressions(lines)
    return Module(
        path=path,
        relpath=relpath,
        tree=tree,
        lines=lines,
        file_suppressions=file_suppressions,
    )


def iter_python_files(root: Path) -> Iterator[Path]:
    """Yield ``.py`` files under ``root`` (or ``root`` itself), sorted."""
    if root.is_file():
        yield root
        return
    yield from sorted(
        path
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts and ".egg-info" not in str(path)
    )


def _dispatch(rules: Sequence[Rule], module: Module) -> Iterator[Finding]:
    """Run every rule over one module: module hooks, then a single walk."""
    for rule in rules:
        yield from rule.check_module(module)
    interested: list[tuple[Rule, tuple[type[ast.AST], ...]]] = [
        (rule, rule.interests) for rule in rules if rule.interests
    ]
    for node in ast.walk(module.tree):
        for rule, types in interested:
            if isinstance(node, types):
                yield from rule.visit(node, module)


def _suppressed(finding: Finding, module: Module, line_codes: dict[int, frozenset[str]]) -> bool:
    if finding.rule in module.file_suppressions:
        return True
    codes = line_codes.get(finding.line)
    return codes is not None and finding.rule in codes


def analyze(
    roots: Iterable[Path],
    rules: Sequence[Rule],
    select: Iterable[str] | None = None,
) -> AnalysisResult:
    """Run ``rules`` over every Python file under each root.

    ``select`` optionally restricts to a subset of rule codes.  Findings
    come back sorted by (path, line, col, rule) with inline and
    file-level suppressions already applied.
    """
    if select is not None:
        wanted = set(select)
        rules = [rule for rule in rules if rule.code in wanted]
    per_module_rules = [rule for rule in rules if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    result = AnalysisResult()

    loaded: list[tuple[Module, dict[int, frozenset[str]]]] = []
    seen_paths: set[Path] = set()
    for root in roots:
        root = root.resolve()
        scan_base = root if root.is_dir() else root.parent
        # Anchor relpaths at the package root, not the scan argument:
        # ``repro-lint src/repro/relation`` must still see ``relation/``
        # in the path or the path-scoped rules silently switch off.
        while (scan_base / "__init__.py").exists():
            scan_base = scan_base.parent
        for path in iter_python_files(root):
            if path in seen_paths:
                continue  # overlapping roots: scan each file once
            seen_paths.add(path)
            try:
                data = path.read_bytes()
            except OSError:
                data = None
            relpath = path.relative_to(scan_base).as_posix()
            module = load_module_bytes(path, relpath, data) if data is not None else None
            if module is None:
                result.parse_errors.append(str(path))
                continue
            result.files_scanned += 1
            result.paths[module.relpath] = str(module.path)
            _, line_codes = _parse_suppressions(module.lines)
            loaded.append((module, line_codes))
            result.findings.extend(
                finding
                for finding in _dispatch(per_module_rules, module)
                if not _suppressed(finding, module, line_codes)
            )
    if project_rules and loaded:
        modules = [module for module, _ in loaded]
        by_relpath = {module.relpath: (module, codes) for module, codes in loaded}
        shared: dict = {}
        for rule in project_rules:
            for finding in rule.check_modules(modules, shared):
                entry = by_relpath.get(finding.path)
                if entry is not None and _suppressed(finding, entry[0], entry[1]):
                    continue
                result.findings.append(finding)
    result.findings.sort()
    return result
