"""The whole-program rules: RPR101 (layering) and RPR103 (dead public
exports).

Unlike the per-file rules in :mod:`repro.analysis.rules`, these see the
entire scanned tree at once through a shared :class:`~repro.analysis
.project.Project` (module graph, symbol table, reference index) — the
cross-module properties PR 1's per-file lint could not express.

========  ============================================================
RPR101    import layering — the package layer diagram (DESIGN.md §6)
          is enforced: a module may import its own layer or below,
          ``analysis`` stays isolated, and the module graph is acyclic
RPR103    dead public exports — every ``__all__`` name is referenced
          somewhere in src/tests/benchmarks/examples
========  ============================================================
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence

from .engine import Finding, Module, ProjectRule
from .project import Project

#: package layers, bottom-up; a module may import its own layer or lower.
#: ``obs`` sits at the very bottom so every layer may emit telemetry
#: without creating upward edges.  ``engine`` covers the whole
#: execution layer including ``engine.parallel``/``engine.shm`` — the
#: worker pool imports only ``relation`` kernels and ``obs``, so the
#: samplers and algorithms above it may fan work out without an upward
#: edge (and RPR105 keeps the raw concurrency imports confined there).
PACKAGE_LAYERS: dict[str, int] = {
    "obs": 0,
    "fd": 1,
    "relation": 2,
    "metrics": 3,
    "datasets": 3,
    "engine": 3,
    "core": 4,
    "algorithms": 4,
    "bench": 5,
}

#: modules at the package root (cli.py, profile.py, __main__, __init__)
ROOT_LAYER = 5

#: the self-contained analysis package: imports nothing from the rest of
#: the package and nothing outside it may import it.
ISOLATED_PACKAGE = "analysis"

#: the runtime support shim the sanitizer copies to the package root;
#: layer-free by design so instrumented kernels at any layer may use it.
RUNTIME_SHIM = "_contracts_runtime.py"


def _project_for(modules: Sequence[Module], shared: dict) -> Project:
    project = shared.get("project")
    if project is None or project.modules is not modules:
        project = Project(list(modules))
        shared["project"] = project
    return project


def _subpackage(relpath: str) -> tuple[bool, str | None]:
    """(is under a ``repro`` root, subpackage name or None-for-root).

    Outside a ``repro`` root (fixture trees), the first path component is
    used when it names a known layer, so the rule stays testable on
    miniature trees mirroring the layout.
    """
    parts = relpath.split("/")[:-1]
    if "repro" in parts:
        rest = parts[parts.index("repro") + 1 :]
        return True, (rest[0] if rest else None)
    if parts and (parts[0] in PACKAGE_LAYERS or parts[0] == ISOLATED_PACKAGE):
        return False, parts[0]
    return False, None


class LayeringRule(ProjectRule):
    """RPR101 — the import-layer diagram holds and the graph is acyclic.

    The ROADMAP's refactor-heavy growth (sharding, caching, async) is
    only safe while dependencies stay one-directional; a single stray
    upward import quietly turns the next refactor into a cycle hunt.
    """

    code = "RPR101"
    name = "import-layering"
    rationale = (
        "imports must respect the package layering "
        "(obs < fd < relation < metrics/datasets/engine < core/algorithms "
        "< bench/cli) "
        "and the module graph must stay acyclic"
    )

    def check_modules(
        self, modules: Sequence[Module], shared: dict
    ) -> Iterator[Finding]:
        project = _project_for(modules, shared)
        yield from self._check_declared(project)
        yield from self._check_edges(project)
        yield from self._check_cycles(project)

    def _layer_of(self, relpath: str) -> int | None:
        under_repro, sub = _subpackage(relpath)
        if sub is None:
            return ROOT_LAYER if under_repro else None
        return PACKAGE_LAYERS.get(sub)

    def _check_declared(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            under_repro, sub = _subpackage(module.relpath)
            if (
                under_repro
                and sub is not None
                and sub != ISOLATED_PACKAGE
                and sub not in PACKAGE_LAYERS
            ):
                yield Finding(
                    path=module.relpath,
                    line=1,
                    col=1,
                    rule=self.code,
                    message=(
                        f"subpackage '{sub}' has no declared layer; add it "
                        "to PACKAGE_LAYERS (analysis/project_rules.py) and "
                        "the DESIGN.md §6 diagram"
                    ),
                )

    def _check_edges(self, project: Project) -> Iterator[Finding]:
        for edge in project.import_edges():
            if edge.target.rsplit("/", 1)[-1] == RUNTIME_SHIM:
                continue
            _, source_sub = _subpackage(edge.source)
            _, target_sub = _subpackage(edge.target)
            if source_sub == ISOLATED_PACKAGE or target_sub == ISOLATED_PACKAGE:
                if source_sub != target_sub:
                    inward = target_sub == ISOLATED_PACKAGE
                    yield Finding(
                        path=edge.source,
                        line=edge.line,
                        col=1,
                        rule=self.code,
                        message=(
                            f"'{ISOLATED_PACKAGE}' is an isolated package: "
                            + (
                                "nothing outside it may import it"
                                if inward
                                else "it may not import the rest of the package"
                            )
                        ),
                    )
                continue
            source_layer = self._layer_of(edge.source)
            target_layer = self._layer_of(edge.target)
            if source_layer is None or target_layer is None:
                continue
            if source_layer < target_layer:
                yield Finding(
                    path=edge.source,
                    line=edge.line,
                    col=1,
                    rule=self.code,
                    message=(
                        f"layer violation: '{source_sub or 'root'}' (layer "
                        f"{source_layer}) imports '{target_sub or 'root'}' "
                        f"(layer {target_layer}); only same-or-lower layers "
                        "may be imported"
                    ),
                )

    def _check_cycles(self, project: Project) -> Iterator[Finding]:
        edges_by_source: dict[str, list] = {}
        for edge in project.import_edges():
            edges_by_source.setdefault(edge.source, []).append(edge)
        for component in project.import_cycles():
            members = set(component)
            rendered = " -> ".join(component + [component[0]])
            for member in component:
                line = min(
                    (
                        edge.line
                        for edge in edges_by_source.get(member, [])
                        if edge.target in members
                    ),
                    default=1,
                )
                yield Finding(
                    path=member,
                    line=line,
                    col=1,
                    rule=self.code,
                    message=f"module participates in an import cycle: {rendered}",
                )


class DeadExportRule(ProjectRule):
    """RPR103 — ``__all__`` exports must be referenced somewhere.

    An export nobody in src/tests/benchmarks/examples references is
    either dead API surface (delete it) or missing its tests (write
    them); both are worth a loud signal before the next refactor carries
    the dead weight forward.
    """

    code = "RPR103"
    name = "dead-public-export"
    rationale = (
        "package __all__ exports that no source, test, benchmark, or "
        "example references are untested dead API surface"
    )

    def check_modules(
        self, modules: Sequence[Module], shared: dict
    ) -> Iterator[Finding]:
        project = _project_for(modules, shared)
        referenced: frozenset[str] | None = None
        for module in project.modules:
            if module.path.name != "__init__.py":
                continue
            exports = _all_entries(module.tree)
            if not exports:
                continue
            if referenced is None:
                referenced = project.reference_names()
            for name, line, col in exports:
                if name not in referenced:
                    yield Finding(
                        path=module.relpath,
                        line=line,
                        col=col,
                        rule=self.code,
                        message=(
                            f"__all__ exports {name!r} but nothing under "
                            "src/tests/benchmarks/examples references it"
                        ),
                    )


def _all_entries(tree: ast.Module) -> list[tuple[str, int, int]]:
    """The string entries of a module's ``__all__``, with locations."""
    entries: list[tuple[str, int, int]] = []
    for statement in tree.body:
        if not isinstance(statement, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in statement.targets
        ):
            continue
        if isinstance(statement.value, (ast.List, ast.Tuple)):
            for element in statement.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    entries.append(
                        (element.value, element.lineno, element.col_offset + 1)
                    )
    return entries
