"""Purity/mutation dataflow: which parameters can a function mutate?

The pass behind RPR102.  For every function in the project it computes a
*mutation summary* — the set of parameters the function may mutate — and
the rule then compares summaries against the ``Pure:``/``Mutates:``
contracts declared in docstrings (:mod:`repro.analysis.contracts`).

The analysis is region-based and deliberately coarse: each parameter
roots a *region*, and any value reached from a parameter by attribute
access, subscripting, or a method-call result is treated as part of that
parameter's region.  This is exactly the aliasing the kernels use
(``words = self._words[rhs]``, ``tree = self._trees[rhs]``,
``bucket = self._buckets.get(card)``) without the cost of a real
points-to analysis.  A region is *mutated* by

* an attribute/subscript store or delete rooted in it,
* a call of a known mutating method (``append``, ``add`` …) on it,
* a call of a project function/method whose own summary says the
  corresponding parameter is mutated — summaries are propagated to a
  fixpoint across the whole project, so ``Inverter.process`` inherits
  ``self`` from ``PositiveCover.specialize`` through ``pcover =
  self.pcover``.

Two sources of imprecision, both deliberate:

* **over-approximation** — method calls are resolved by *name* across
  the project, and call-result aliasing lumps everything reachable from
  a parameter into one region.  A spurious mutation report on a declared
  ``Pure:`` kernel is silenced with an inline pragma and a justification.
* **under-approximation** — objects that round-trip through a container
  the analysis did not see built from a parameter (``path.append(node);
  parent = path[-1]``) escape the region.  The ``--sanitize`` runtime
  assertions exist precisely to catch what this blind spot misses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .contracts import Contract, function_params, parse_contract
from .project import FunctionDef, Project

#: method names that mutate their receiver on the builtin containers
KNOWN_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "difference_update",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "intersection_update",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "symmetric_difference_update",
        "update",
        "write",
        "writelines",
    }
)

_MAX_FIXPOINT_ROUNDS = 12


@dataclass(frozen=True)
class MutationEvidence:
    """Why the analysis believes a parameter is mutated."""

    line: int
    reason: str


@dataclass
class FunctionSummary:
    """The analysis result for one function."""

    definition: FunctionDef
    params: tuple[str, ...]
    contract: Contract | None
    mutated: dict[str, MutationEvidence] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return self.definition.key

    def record(self, param: str, line: int, reason: str) -> bool:
        """Note a mutation; return True when it is new evidence."""
        if param in self.mutated:
            return False
        self.mutated[param] = MutationEvidence(line, reason)
        return True


def _root_names(expr: ast.expr) -> set[str]:
    """Names at the root of an alias chain (attribute/subscript/call/ifexp)."""
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, (ast.Attribute, ast.Starred)):
        return _root_names(expr.value)
    if isinstance(expr, ast.Subscript):
        return _root_names(expr.value)
    if isinstance(expr, ast.Call):
        # Only method-call results alias their receiver's region
        # (``self._buckets.get(card)``); a plain ``f(x)`` builds fresh state.
        if isinstance(expr.func, ast.Attribute):
            return _root_names(expr.func.value)
        return set()
    if isinstance(expr, ast.IfExp):
        return _root_names(expr.body) | _root_names(expr.orelse)
    if isinstance(expr, ast.NamedExpr):
        return _root_names(expr.value)
    if isinstance(expr, ast.Await):
        return _root_names(expr.value)
    return set()


class _FunctionAnalysis:
    """Single-function mutation collection against current summaries."""

    def __init__(
        self,
        summary: FunctionSummary,
        summaries: dict[tuple[str, str], FunctionSummary],
        project: Project,
    ) -> None:
        self.summary = summary
        self.summaries = summaries
        self.project = project
        self.regions: dict[str, set[str]] = {
            param: {param} for param in summary.params
        }

    # -- aliasing ----------------------------------------------------------

    def _region_params(self, expr: ast.expr) -> set[str]:
        params: set[str] = set()
        for name in _root_names(expr):
            params.update(self.regions.get(name, ()))
        return params

    def _grow_aliases(self) -> None:
        """Fixpoint the name -> parameter-region map (add-only)."""
        body = self.summary.definition.node
        changed = True
        while changed:
            changed = False
            for node in ast.walk(body):
                pairs: list[tuple[ast.expr, ast.expr]] = []
                if isinstance(node, ast.Assign):
                    pairs = [(target, node.value) for target in node.targets]
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    pairs = [(node.target, node.value)]
                elif isinstance(node, ast.For):
                    pairs = [(node.target, node.iter)]
                elif isinstance(node, ast.comprehension):
                    pairs = [(node.target, node.iter)]
                elif isinstance(node, ast.withitem) and node.optional_vars:
                    pairs = [(node.optional_vars, node.context_expr)]
                elif isinstance(node, ast.NamedExpr):
                    pairs = [(node.target, node.value)]
                for target, value in pairs:
                    if not isinstance(target, ast.Name):
                        continue
                    sources = self._region_params(value)
                    if not sources:
                        continue
                    known = self.regions.setdefault(target.id, set())
                    if not sources <= known:
                        known.update(sources)
                        changed = True

    # -- mutation collection ----------------------------------------------

    def run(self) -> bool:
        self._grow_aliases()
        changed = False
        for node in ast.walk(self.summary.definition.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        changed |= self._mutate(
                            target, node.lineno, "store through parameter"
                        )
                    elif isinstance(target, ast.Tuple):
                        for element in target.elts:
                            if isinstance(element, (ast.Attribute, ast.Subscript)):
                                changed |= self._mutate(
                                    element, node.lineno, "store through parameter"
                                )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        changed |= self._mutate(
                            target, node.lineno, "del through parameter"
                        )
            elif isinstance(node, ast.Call):
                changed |= self._check_call(node)
        return changed

    def _mutate(self, expr: ast.expr, line: int, reason: str) -> bool:
        changed = False
        for param in self._region_params(expr):
            changed |= self.summary.record(param, line, reason)
        return changed

    def _check_call(self, node: ast.Call) -> bool:
        changed = False
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver_params = self._region_params(func.value)
            candidates = self.project.methods_by_name().get(func.attr, [])
            mutates_receiver = False
            if candidates:
                mutates_receiver = any(
                    self._callee_mutates_position(candidate, 0)
                    for candidate in candidates
                )
            elif func.attr in KNOWN_MUTATORS:
                mutates_receiver = True
            if mutates_receiver and receiver_params:
                for param in receiver_params:
                    changed |= self.summary.record(
                        param, node.lineno, f"call of mutating method .{func.attr}()"
                    )
            # Arguments handed to a project method that mutates them.
            if candidates:
                changed |= self._check_arguments(node, candidates, skip_self=True)
        elif isinstance(func, ast.Name):
            callees = self._resolve_callable(func.id)
            if callees:
                skip_self = any(callee.is_method for callee in callees)
                changed |= self._check_arguments(node, callees, skip_self=skip_self)
        return changed

    def _check_arguments(
        self, node: ast.Call, callees: list[FunctionDef], skip_self: bool
    ) -> bool:
        changed = False
        for position, argument in enumerate(node.args):
            argument_params = self._region_params(argument)
            if not argument_params:
                continue
            offset = position + (1 if skip_self else 0)
            if any(
                self._callee_mutates_position(callee, offset) for callee in callees
            ):
                for param in argument_params:
                    changed |= self.summary.record(
                        param,
                        node.lineno,
                        f"passed to a function that mutates argument {position}",
                    )
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            argument_params = self._region_params(keyword.value)
            if not argument_params:
                continue
            if any(
                self._callee_mutates_name(callee, keyword.arg) for callee in callees
            ):
                for param in argument_params:
                    changed |= self.summary.record(
                        param,
                        node.lineno,
                        f"passed to a function that mutates parameter "
                        f"{keyword.arg!r}",
                    )
        return changed

    def _callee_mutates_position(self, callee: FunctionDef, position: int) -> bool:
        summary = self.summaries.get(callee.key)
        if summary is None:
            return False
        if position >= len(summary.params):
            return False
        return summary.params[position] in summary.mutated

    def _callee_mutates_name(self, callee: FunctionDef, name: str) -> bool:
        summary = self.summaries.get(callee.key)
        return summary is not None and name in summary.mutated

    def _resolve_callable(self, name: str) -> list[FunctionDef]:
        """Resolve a bare-name call to project functions or ``__init__``s."""
        table = self.project.symbols().get(self.summary.definition.module)
        if table is None:
            return []
        if name in table.functions:
            return [table.functions[name]]
        if name in table.classes:
            init = table.classes[name].get("__init__")
            return [init] if init is not None else []
        imported = table.imported_functions.get(name)
        if imported is not None:
            target_module, original = imported
            target_table = self.project.symbols().get(target_module)
            if target_table is not None:
                if original in target_table.functions:
                    return [target_table.functions[original]]
                if original in target_table.classes:
                    init = target_table.classes[original].get("__init__")
                    return [init] if init is not None else []
        return []


def analyze_project_mutations(
    project: Project,
) -> dict[tuple[str, str], FunctionSummary]:
    """Compute mutation summaries for every function, to a fixpoint."""
    summaries: dict[tuple[str, str], FunctionSummary] = {}
    for definition in project.all_functions():
        summaries[definition.key] = FunctionSummary(
            definition=definition,
            params=function_params(definition.node),
            contract=parse_contract(ast.get_docstring(definition.node, clean=False)),
        )
    for _ in range(_MAX_FIXPOINT_ROUNDS):
        changed = False
        for summary in summaries.values():
            changed |= _FunctionAnalysis(summary, summaries, project).run()
        if not changed:
            break
    return summaries
