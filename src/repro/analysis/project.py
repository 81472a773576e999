"""Whole-program context shared by the cross-module rules.

One :class:`Project` is built per ``analyze()`` run from every module the
scan loaded, regardless of how many roots the caller passed.  It exposes
the three views the project rules consume:

* the **module/import graph** — every intra-tree import resolved to the
  most specific scanned module it names (``from ..fd import attrset``
  resolves to ``fd/attrset.py``, not the package ``__init__``), so the
  graph captures logical dependencies rather than package-init side
  effects; strongly connected components of size > 1 are import cycles;
* the **symbol table** — per-module top-level functions, classes with
  their methods, and import aliases, which RPR107 uses to resolve a
  call to the function whose return-taint summary it reads;
* the **reference index** — every identifier referenced anywhere in the
  repo's source, test, benchmark, and example trees, used by the
  dead-export rule.  The repo root is discovered by walking up from the
  scan base to the nearest ``pyproject.toml``; fixture trees without one
  simply fall back to the scanned modules themselves.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .engine import Module

#: directories (relative to the repo root) scanned for export references
REFERENCE_DIRS = ("src", "tests", "benchmarks", "examples")

#: process-wide cache of reference identifiers, keyed by repo root
_REFERENCE_CACHE: dict[Path, frozenset[str]] = {}


def _type_checking_nodes(tree: ast.Module) -> set[int]:
    """ids of nodes inside ``if TYPE_CHECKING:`` bodies (erased at runtime).

    Imports guarded this way exist only for annotations, so they must not
    contribute edges to the runtime import graph — flagging them as
    cycles would force real imports where none exist.
    """
    erased: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_guard = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if not is_guard:
            continue
        for child in node.body:
            for sub in ast.walk(child):
                erased.add(id(sub))
    return erased


@dataclass(frozen=True)
class ImportEdge:
    """One resolved intra-project import."""

    source: str
    """Importing module relpath."""
    target: str
    """Imported module relpath."""
    line: int


@dataclass
class FunctionDef:
    """One function or method definition in the symbol table."""

    module: str
    """Defining module relpath."""
    qualname: str
    """``ClassName.method`` or bare function name."""
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.qualname)


@dataclass
class ModuleSymbols:
    """Top-level definitions and import aliases of one module."""

    functions: dict[str, FunctionDef] = field(default_factory=dict)
    classes: dict[str, dict[str, FunctionDef]] = field(default_factory=dict)
    imported_functions: dict[str, tuple[str, str]] = field(default_factory=dict)
    """Local alias -> (module relpath, original name), resolved in-tree."""


class Project:
    """Everything the whole-program rules need, computed once per run."""

    def __init__(self, modules: list[Module]) -> None:
        self.modules = modules
        self.by_relpath: dict[str, Module] = {
            module.relpath: module for module in modules
        }
        self._edges: list[ImportEdge] | None = None
        self._symbols: dict[str, ModuleSymbols] | None = None

    # -- module graph ------------------------------------------------------

    def import_edges(self) -> list[ImportEdge]:
        """Every intra-tree import, resolved to scanned module relpaths."""
        if self._edges is None:
            edges: list[ImportEdge] = []
            for module in self.modules:
                edges.extend(self._edges_of(module))
            self._edges = edges
        return self._edges

    def _edges_of(self, module: Module) -> list[ImportEdge]:
        edges: list[ImportEdge] = []
        package = list(module.package_parts)
        erased = _type_checking_nodes(module.tree)
        for node in ast.walk(module.tree):
            if id(node) in erased:
                continue  # under `if TYPE_CHECKING:` — no runtime import
            if isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    anchor: list[str] = []
                elif node.level - 1 <= len(package):
                    anchor = package[: len(package) - (node.level - 1)]
                else:
                    continue  # relative import escaping the scanned tree
                base = anchor + (node.module.split(".") if node.module else [])
                for alias in node.names:
                    if alias.name == "*":
                        target = self._resolve(base)
                    else:
                        target = self._resolve(base + [alias.name]) or self._resolve(
                            base
                        )
                    if target is not None and target != module.relpath:
                        edges.append(ImportEdge(module.relpath, target, node.lineno))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    target = self._resolve(alias.name.split("."))
                    if target is not None and target != module.relpath:
                        edges.append(ImportEdge(module.relpath, target, node.lineno))
        return edges

    def _resolve(self, parts: list[str]) -> str | None:
        """Map dotted-name parts to a scanned module relpath, or None."""
        if not parts:
            return None
        stem = "/".join(parts)
        for candidate in (f"{stem}.py", f"{stem}/__init__.py"):
            if candidate in self.by_relpath:
                return candidate
        return None

    def import_cycles(self) -> list[list[str]]:
        """Strongly connected components of size > 1, each sorted."""
        graph: dict[str, set[str]] = {m.relpath: set() for m in self.modules}
        for edge in self.import_edges():
            graph[edge.source].add(edge.target)
        # Tarjan's algorithm, iterative to survive deep trees.
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[list[str]] = []
        counter = 0
        for start in sorted(graph):
            if start in index:
                continue
            work: list[tuple[str, Iterator[str]]] = [
                (start, iter(sorted(graph[start])))
            ]
            index[start] = lowlink[start] = counter
            counter += 1
            stack.append(start)
            on_stack.add(start)
            while work:
                node, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in index:
                        index[successor] = lowlink[successor] = counter
                        counter += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append((successor, iter(sorted(graph[successor]))))
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlink[node] = min(lowlink[node], index[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        components.append(sorted(component))
        components.sort()
        return components

    # -- symbol table ------------------------------------------------------

    def symbols(self) -> dict[str, ModuleSymbols]:
        if self._symbols is None:
            self._symbols = {
                module.relpath: self._symbols_of(module) for module in self.modules
            }
        return self._symbols

    def _symbols_of(self, module: Module) -> ModuleSymbols:
        table = ModuleSymbols()
        package = list(module.package_parts)
        for statement in module.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                table.functions[statement.name] = FunctionDef(
                    module=module.relpath,
                    qualname=statement.name,
                    name=statement.name,
                    node=statement,
                )
            elif isinstance(statement, ast.ClassDef):
                methods: dict[str, FunctionDef] = {}
                for item in statement.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[item.name] = FunctionDef(
                            module=module.relpath,
                            qualname=f"{statement.name}.{item.name}",
                            name=item.name,
                            node=item,
                            class_name=statement.name,
                        )
                table.classes[statement.name] = methods
            elif isinstance(statement, ast.ImportFrom) and statement.level >= 1:
                if statement.level > len(package) + 1:
                    continue
                anchor = package[: len(package) - (statement.level - 1)]
                base = anchor + (
                    statement.module.split(".") if statement.module else []
                )
                target = self._resolve(base)
                if target is None:
                    continue
                for alias in statement.names:
                    if alias.name != "*":
                        table.imported_functions[alias.asname or alias.name] = (
                            target,
                            alias.name,
                        )
        return table

    def all_functions(self) -> list[FunctionDef]:
        """Every top-level function and class method, in path order."""
        functions: list[FunctionDef] = []
        for relpath in sorted(self.symbols()):
            table = self.symbols()[relpath]
            functions.extend(table.functions.values())
            for methods in table.classes.values():
                functions.extend(methods.values())
        return functions

    # -- reference index ---------------------------------------------------

    def reference_names(self) -> frozenset[str]:
        """Identifiers referenced anywhere in the repo's reference trees.

        References are collected from ``Name`` nodes, attribute accesses,
        and ``from``-import alias names — string literals deliberately do
        not count.  ``__init__.py`` files are excluded: a re-export chain
        is the export mechanism, not a use of the export.
        """
        root = self.repo_root()
        if root is not None:
            cached = _REFERENCE_CACHE.get(root)
            if cached is not None:
                return cached
        names: set[str] = set()
        seen_paths: set[Path] = set()
        for module in self.modules:
            if module.path.name != "__init__.py":
                seen_paths.add(module.path)
                _collect_references(module.tree, names)
        if root is not None:
            for directory in REFERENCE_DIRS:
                base = root / directory
                if not base.is_dir():
                    continue
                for path in sorted(base.rglob("*.py")):
                    if (
                        path.name == "__init__.py"
                        or "__pycache__" in path.parts
                        or path in seen_paths
                    ):
                        continue
                    try:
                        tree = ast.parse(path.read_text(encoding="utf-8"))
                    except (SyntaxError, OSError, UnicodeDecodeError):
                        continue
                    _collect_references(tree, names)
        frozen = frozenset(names)
        if root is not None:
            _REFERENCE_CACHE[root] = frozen
        return frozen

    def repo_root(self) -> Path | None:
        """The nearest ancestor of the scan base with a ``pyproject.toml``."""
        if not self.modules:
            return None
        anchor = self.modules[0].path.parent
        for directory in (anchor, *anchor.parents):
            if (directory / "pyproject.toml").exists():
                return directory
        return None


def _collect_references(tree: ast.Module, names: set[str]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.name)
