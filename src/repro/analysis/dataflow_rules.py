"""RPR107 — merge-order sensitivity, the flow-sensitive rule.

Built on the CFG/dataflow layer (:mod:`repro.analysis.cfg`,
:mod:`repro.analysis.dataflow`) rather than a single AST walk: it tracks
an *unordered-provenance* taint through assignments, branches and loops
before judging a call site.  Values whose provenance includes unordered
iteration (``set``/``frozenset``, ``os.listdir``, ``glob``) may not
reach ``DiscoveryResult``/``make_result`` or the return value of a
sharded/merge kernel without a canonicalizing ``sorted()`` — the static
form of the parallel engine's first-occurrence-order merge invariant.
Justified sites carry ``# pragma: repro-lint ordered``.

The taint domain is documented in DESIGN.md §6 ("Dataflow layer").
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator, Sequence

from .cfg import CFG, build_cfg, shallow_exprs
from .dataflow import ForwardAnalysis, run_forward, statement_states
from .engine import Finding, Module, ProjectRule
from .project import FunctionDef, Project
from .project_rules import _project_for

_ORDERED_PRAGMA_RE = re.compile(r"#\s*pragma:\s*repro-lint\s+ordered\b")


def _has_ordered_pragma(module: Module, lineno: int) -> bool:
    if 1 <= lineno <= len(module.lines):
        return bool(_ORDERED_PRAGMA_RE.search(module.lines[lineno - 1]))
    return False


def _root_name(expr: ast.expr) -> str | None:
    """The variable at the root of an attribute/subscript chain."""
    while isinstance(expr, (ast.Attribute, ast.Subscript, ast.Starred)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _target_names(elt)]
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _cfg_of(shared: dict, function: FunctionDef) -> CFG:
    cache = shared.setdefault("dataflow_cfgs", {})
    cfg = cache.get(function.key)
    if cfg is None:
        cfg = build_cfg(function.node)
        cache[function.key] = cfg
    return cfg


_CLEAN_BUILTINS = frozenset(
    {"len", "min", "max", "sum", "any", "all", "sorted", "range", "zip",
     "abs", "repr", "str", "int", "float", "bool", "print", "isinstance",
     "hasattr", "getattr", "id", "type"}
)
_PASSTHROUGH_BUILTINS = frozenset(
    {"list", "tuple", "iter", "enumerate", "reversed", "next", "dict"}
)
#: attribute calls yielding unordered iterables regardless of receiver
_UNORDERED_ATTR_CALLS = {
    "listdir": "os.listdir()",
    "glob": "glob.glob()",
    "iglob": "glob.iglob()",
    "iterdir": ".iterdir()",
    "scandir": "os.scandir()",
}
#: dict views are insertion-ordered in CPython >= 3.7 — deliberately
#: clean; set semantics (and the filesystem calls above) are the hazard.
_ORDERED_ATTR_CALLS = frozenset({"keys", "values", "items"})

_RESULT_SINKS = frozenset({"DiscoveryResult", "make_result"})


def _is_sink_function(function: FunctionDef) -> bool:
    return function.name.endswith("_sharded") or function.name.startswith("merge_")


def _is_set_valued(expr: ast.expr) -> bool:
    """True for expressions that *are* a set — order never materialized."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
    )


class _OrderTaintAnalysis(ForwardAnalysis):
    """Environment: name -> frozenset[(origin line, origin description)].

    A non-empty taint means the value's content or ordering was derived
    from an unordered iteration; ``sorted()`` (or an order-insensitive
    reduction) clears it, and a ``# pragma: repro-lint ordered`` comment
    on the source line suppresses the origin with a reviewable marker.
    """

    def __init__(
        self,
        module: Module,
        function: FunctionDef,
        project: Project,
        summaries: dict[tuple[str, str], frozenset],
    ) -> None:
        self.module = module
        self.function = function
        self.project = project
        self.summaries = summaries

    def join(self, left: dict, right: dict) -> dict:
        out = dict(left)
        for name, taint in right.items():
            out[name] = out.get(name, frozenset()) | taint
        return out

    def transfer(self, state: dict, node: ast.AST) -> dict:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            if node.value is None:
                return state
            taint = self.taint_of(node.value, state)
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            new = dict(state)
            for target in targets:
                names = _target_names(target)
                if names:
                    for name in names:
                        if taint:
                            new[name] = taint
                        else:
                            new.pop(name, None)
                else:
                    # attribute/subscript target: taint the root object
                    root = _root_name(target)
                    if root is not None and taint:
                        new[root] = new.get(root, frozenset()) | taint
            return new
        if isinstance(node, ast.AugAssign):
            taint = self.taint_of(node.value, state)
            root = _root_name(node.target)
            if root is not None and taint:
                new = dict(state)
                new[root] = new.get(root, frozenset()) | taint
                return new
            return state
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            if isinstance(call.func, ast.Attribute):
                root = _root_name(call.func)
                if root is not None:
                    if call.func.attr in ("sort", "clear"):
                        new = dict(state)
                        new.pop(root, None)
                        return new
                    taint = frozenset().union(
                        *(
                            self.taint_of(arg, state)
                            for arg in self._call_inputs(call)
                        ),
                        self.taint_of(call.func.value, state),
                    )
                    if taint:
                        new = dict(state)
                        new[root] = new.get(root, frozenset()) | taint
                        return new
            return state
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            new = dict(state)
            new.pop(node.name, None)
            return new
        if isinstance(node, ast.withitem) and node.optional_vars is not None:
            taint = self.taint_of(node.context_expr, state)
            new = dict(state)
            for name in _target_names(node.optional_vars):
                if taint:
                    new[name] = taint
                else:
                    new.pop(name, None)
            return new
        return state

    def transfer_loop(self, state: dict, node: ast.For) -> dict:
        taint = self.taint_of(node.iter, state)
        new = dict(state)
        for name in _target_names(node.target):
            if taint:
                new[name] = taint
            else:
                new.pop(name, None)
        return new

    @staticmethod
    def _call_inputs(call: ast.Call) -> list[ast.expr]:
        inputs: list[ast.expr] = []
        for arg in call.args:
            inputs.append(arg.value if isinstance(arg, ast.Starred) else arg)
        inputs.extend(kw.value for kw in call.keywords)
        return inputs

    def taint_of(self, expr: ast.expr, env: dict) -> frozenset:
        if _has_ordered_pragma(self.module, getattr(expr, "lineno", 0)):
            return frozenset()
        if isinstance(expr, ast.Name):
            return env.get(expr.id, frozenset())
        if isinstance(expr, (ast.Set, ast.SetComp)):
            kind = "set literal" if isinstance(expr, ast.Set) else "set comprehension"
            return frozenset({(expr.lineno, kind)})
        if isinstance(expr, ast.Call):
            return self._taint_of_call(expr, env)
        if isinstance(expr, ast.Attribute):
            return self.taint_of(expr.value, env)
        if isinstance(expr, ast.Subscript):
            return self.taint_of(expr.value, env)
        if isinstance(expr, ast.Starred):
            return self.taint_of(expr.value, env)
        if isinstance(expr, ast.BinOp):
            return self.taint_of(expr.left, env) | self.taint_of(expr.right, env)
        if isinstance(expr, ast.BoolOp):
            return frozenset().union(*(self.taint_of(v, env) for v in expr.values))
        if isinstance(expr, ast.IfExp):
            return self.taint_of(expr.body, env) | self.taint_of(expr.orelse, env)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return frozenset().union(*(self.taint_of(e, env) for e in expr.elts))
        if isinstance(expr, ast.Dict):
            parts = [self.taint_of(v, env) for v in expr.values]
            parts.extend(self.taint_of(k, env) for k in expr.keys if k is not None)
            return frozenset().union(*parts) if parts else frozenset()
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            taint = self.taint_of(expr.elt, env)
            for generator in expr.generators:
                taint |= self.taint_of(generator.iter, env)
            return taint
        if isinstance(expr, ast.DictComp):
            taint = self.taint_of(expr.key, env) | self.taint_of(expr.value, env)
            for generator in expr.generators:
                taint |= self.taint_of(generator.iter, env)
            return taint
        if isinstance(expr, ast.Compare):
            return frozenset()  # a bool carries no ordering
        if isinstance(expr, ast.UnaryOp):
            return self.taint_of(expr.operand, env)
        return frozenset()

    def _taint_of_call(self, call: ast.Call, env: dict) -> frozenset:
        func = call.func
        inputs = self._call_inputs(call)
        if isinstance(func, ast.Name):
            name = func.id
            if name in ("set", "frozenset"):
                return frozenset({(call.lineno, f"{name}(...)")})
            if name in _CLEAN_BUILTINS:
                return frozenset()
            if name in _PASSTHROUGH_BUILTINS:
                return frozenset().union(
                    *(self.taint_of(arg, env) for arg in inputs)
                ) if inputs else frozenset()
            summary = self._resolve_name(name)
            if summary:
                return frozenset(
                    {(call.lineno, f"{name}() (returns set-ordered data)")}
                )
            # unresolved constructor/helper: conservatively pass taint through
            return frozenset().union(
                *(self.taint_of(arg, env) for arg in inputs)
            ) if inputs else frozenset()
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in _UNORDERED_ATTR_CALLS:
                return frozenset({(call.lineno, _UNORDERED_ATTR_CALLS[attr])})
            if attr in _ORDERED_ATTR_CALLS:
                return self.taint_of(func.value, env)
            if attr == "sort":
                return frozenset()
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and self.function.class_name is not None
            ):
                summary = self._resolve_method(attr)
                if summary:
                    return frozenset(
                        {(call.lineno, f"self.{attr}() (returns set-ordered data)")}
                    )
            # result of a method call inherits the receiver's taint
            receiver = self.taint_of(func.value, env)
            arguments = (
                frozenset().union(*(self.taint_of(arg, env) for arg in inputs))
                if inputs
                else frozenset()
            )
            return receiver | arguments
        return frozenset()

    def _resolve_name(self, name: str) -> frozenset:
        table = self.project.symbols().get(self.function.module)
        if table is None:
            return frozenset()
        local = table.functions.get(name)
        if local is not None:
            return self.summaries.get(local.key, frozenset())
        imported = table.imported_functions.get(name)
        if imported is not None:
            target_module, original = imported
            target_table = self.project.symbols().get(target_module)
            if target_table is not None:
                target = target_table.functions.get(original)
                if target is not None:
                    return self.summaries.get(target.key, frozenset())
        return frozenset()

    def _resolve_method(self, name: str) -> frozenset:
        table = self.project.symbols().get(self.function.module)
        if table is None or self.function.class_name is None:
            return frozenset()
        methods = table.classes.get(self.function.class_name, {})
        method = methods.get(name)
        if method is not None:
            return self.summaries.get(method.key, frozenset())
        return frozenset()


class MergeOrderRule(ProjectRule):
    """RPR107 — unordered provenance may not reach result assembly.

    The parallel engine's determinism proof (PR 5) hinges on merges
    happening in chunk-index or first-occurrence order; any value that
    iterated a set (or the filesystem) on the way to a
    ``DiscoveryResult`` field or a sharded-kernel return reintroduces
    ``PYTHONHASHSEED`` order into the output.  ``sorted()`` launders the
    taint; sites whose order is proven elsewhere carry a
    ``# pragma: repro-lint ordered`` justification.
    """

    code = "RPR107"
    name = "merge-order-sensitivity"
    rationale = (
        "values derived from unordered iteration (set/frozenset, "
        "os.listdir, glob) must be canonicalized with sorted() before "
        "reaching DiscoveryResult/make_result or a sharded/merge "
        "kernel's return value"
    )
    example = (
        "    masks = compute_agree_masks(data)   # returns a set\n"
        "    for mask in masks:                  # hash order escapes\n"
        "        fds.append(expand(mask))\n"
        "    return make_result(fds, ...)        # RPR107\n"
        "fix: `for mask in sorted(masks)` or justify the site with\n"
        "`# pragma: repro-lint ordered`"
    )

    _MAX_ROUNDS = 5

    def check_modules(
        self, modules: Sequence[Module], shared: dict
    ) -> Iterator[Finding]:
        project = _project_for(modules, shared)
        summaries = self._summaries(project, shared)
        for function in project.all_functions():
            module = project.by_relpath[function.module]
            analysis = _OrderTaintAnalysis(module, function, project, summaries)
            cfg = _cfg_of(shared, function)
            states = run_forward(cfg, analysis)
            yield from self._scan_sinks(function, module, cfg, states, analysis)

    def _summaries(
        self, project: Project, shared: dict
    ) -> dict[tuple[str, str], frozenset]:
        cached = shared.get("order_summaries")
        if cached is not None:
            return cached
        summaries: dict[tuple[str, str], frozenset] = {}
        functions = project.all_functions()
        for _ in range(self._MAX_ROUNDS):
            next_round: dict[tuple[str, str], frozenset] = {}
            for function in functions:
                module = project.by_relpath[function.module]
                analysis = _OrderTaintAnalysis(module, function, project, summaries)
                cfg = _cfg_of(shared, function)
                states = run_forward(cfg, analysis)
                returned: frozenset = frozenset()
                for node, state in statement_states(cfg, states, analysis):
                    if isinstance(node, ast.Return) and node.value is not None:
                        if _has_ordered_pragma(module, node.lineno):
                            continue
                        returned |= analysis.taint_of(node.value, state)
                next_round[function.key] = returned
            if next_round == summaries:
                break
            summaries = next_round
        shared["order_summaries"] = summaries
        return summaries

    def _scan_sinks(
        self,
        function: FunctionDef,
        module: Module,
        cfg: CFG,
        states: list,
        analysis: _OrderTaintAnalysis,
    ) -> Iterator[Finding]:
        seen: set[tuple[int, int, str]] = set()
        sink_return = _is_sink_function(function)
        for node, state in statement_states(cfg, states, analysis):
            if isinstance(node, ast.Return) and sink_return and node.value is not None:
                if _has_ordered_pragma(module, node.lineno):
                    continue
                taint = analysis.taint_of(node.value, state)
                if taint:
                    line, description = min(taint)
                    message = (
                        f"{function.qualname}: merge/sharded-kernel output "
                        f"has unordered provenance ({description}, line "
                        f"{line}); merge in chunk-index order, sort before "
                        "returning, or justify with "
                        "`# pragma: repro-lint ordered`"
                    )
                    yield from self._emit(module, node, message, seen)
            for expr in shallow_exprs(node):
                for call in ast.walk(expr):
                    if not isinstance(call, ast.Call):
                        continue
                    callee = self._sink_name(call)
                    if callee is None:
                        continue
                    if _has_ordered_pragma(module, call.lineno):
                        continue
                    for arg in analysis._call_inputs(call):
                        if _is_set_valued(arg):
                            # a set handed to a set-typed field keeps set
                            # semantics; no iteration order materializes
                            continue
                        taint = analysis.taint_of(arg, state)
                        if not taint:
                            continue
                        line, description = min(taint)
                        message = (
                            f"{function.qualname}: value reaching "
                            f"{callee}() has unordered provenance "
                            f"({description}, line {line}); canonicalize "
                            "with sorted(...) or justify with "
                            "`# pragma: repro-lint ordered`"
                        )
                        yield from self._emit(module, call, message, seen)

    @staticmethod
    def _sink_name(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in _RESULT_SINKS:
            return func.id
        if isinstance(func, ast.Attribute) and func.attr in _RESULT_SINKS:
            return func.attr
        return None

    def _emit(
        self,
        module: Module,
        node: ast.AST,
        message: str,
        seen: set[tuple[int, int, str]],
    ) -> Iterator[Finding]:
        key = (node.lineno, node.col_offset, message)
        if key in seen:
            return
        seen.add(key)
        yield Finding(
            path=module.relpath,
            line=node.lineno,
            col=node.col_offset + 1,
            rule=self.code,
            message=message,
        )
