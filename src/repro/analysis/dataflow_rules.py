"""The flow-sensitive whole-program rules: RPR106–RPR108.

These are the first rules built on the CFG/dataflow layer
(:mod:`repro.analysis.cfg`, :mod:`repro.analysis.dataflow`) rather than
single AST walks — each tracks an abstract property through assignments
and branches before judging a call site:

========  ============================================================
RPR106    parallel-state escape — a task function handed to the worker
          pool (``pool.map_chunks``/``run_cells_sharded``) must not
          capture mutable coordinator state (dict/list/set, Recorder,
          PartitionStore, ``self``): process workers mutate a pickled
          copy and silently diverge from thread workers
RPR107    merge-order sensitivity — values whose provenance includes
          unordered iteration (``set``/``frozenset``, ``os.listdir``,
          ``glob``) may not reach ``DiscoveryResult``/``make_result``
          or the return value of a sharded/merge kernel without a
          canonicalizing ``sorted()`` (the static form of the parallel
          engine's first-occurrence-order merge invariant); justified
          sites carry ``# pragma: repro-lint ordered``
RPR108    numeric-width overflow — an abstract bit-width domain bounds
          every group-key fold (``keys * cardinality + labels``); a
          multiply whose worst case reaches 2^64 without a dominating
          fold-limit guard is the historical silently-wrapping RHS
          fold (fixed in ``relation/validate.fold_column``)
========  ============================================================

The RPR107 taint and RPR108 width domains are documented in DESIGN.md
§6 ("Dataflow layer").
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

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


def _iter_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function/class scopes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _param_names(args: ast.arguments) -> set[str]:
    names = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    for variadic in (args.vararg, args.kwarg):
        if variadic is not None:
            names.add(variadic.arg)
    return names


def _local_names(function: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameters plus every name the function's own scope binds."""
    names = _param_names(function.args)
    for node in _iter_scope(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _free_names(function: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names a task function reads but does not bind itself (approximate:
    bindings anywhere inside count, so this under- rather than
    over-reports captures)."""
    bound = _param_names(function.args)
    loads: set[str] = set()
    body = function.body if isinstance(function.body, list) else [function.body]
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
                else:
                    bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(node.name)
                bound.update(_param_names(node.args))
            elif isinstance(node, ast.Lambda):
                bound.update(_param_names(node.args))
    return loads - bound


# ---------------------------------------------------------------------------
# RPR106 — parallel-state escape
# ---------------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
     "OrderedDict", "sorted"}
)
#: project classes that are mutable shared state by design
_MUTABLE_CLASSES = frozenset({"Recorder", "PartitionStore"})
_IMMUTABLE_CONSTRUCTORS = frozenset(
    {"tuple", "frozenset", "int", "float", "str", "bytes", "bool", "range"}
)


class _MutabilityAnalysis(ForwardAnalysis):
    """Environment: name -> ("mutable" | "immutable", defining line).

    Only *definitely* mutable bindings are kept across joins (both
    branches must agree), so the escape rule flags provable captures and
    stays silent on merge ambiguity.
    """

    def join(self, left: dict, right: dict) -> dict:
        out = {}
        for name, (kind, line) in left.items():
            other = right.get(name)
            if other is not None and other[0] == kind:
                out[name] = (kind, min(line, other[1]))
        return out

    def transfer(self, state: dict, node: ast.AST) -> dict:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if value is None:
                return state
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            new = dict(state)
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                kind = self.classify(value, state)
                name = targets[0].id
                if kind is None:
                    new.pop(name, None)
                else:
                    new[name] = (kind, value.lineno)
            else:
                for target in targets:
                    for name in _target_names(target):
                        new.pop(name, None)
            return new
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            new = dict(state)
            new.pop(node.name, None)
            return new
        if isinstance(node, ast.withitem) and node.optional_vars is not None:
            new = dict(state)
            for name in _target_names(node.optional_vars):
                new.pop(name, None)
            return new
        return state

    def transfer_loop(self, state: dict, node: ast.For) -> dict:
        new = dict(state)
        for name in _target_names(node.target):
            new.pop(name, None)
        return new

    def classify(self, expr: ast.expr, env: dict) -> str | None:
        if isinstance(
            expr,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
        ):
            return "mutable"
        if isinstance(expr, ast.Constant):
            return "immutable"
        if isinstance(expr, ast.Tuple):
            kinds = [self.classify(element, env) for element in expr.elts]
            if any(kind == "mutable" for kind in kinds):
                return "mutable"
            if all(kind == "immutable" for kind in kinds):
                return "immutable"
            return None
        if isinstance(expr, ast.Name):
            entry = env.get(expr.id)
            return entry[0] if entry is not None else None
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            name = expr.func.id
            if name in _MUTABLE_CONSTRUCTORS or name in _MUTABLE_CLASSES:
                return "mutable"
            if name in _IMMUTABLE_CONSTRUCTORS:
                return "immutable"
        return None


class ParallelStateEscapeRule(ProjectRule):
    """RPR106 — task functions must not close over mutable shared state.

    The worker pool pickles task functions into process workers; a
    captured dict/list/Recorder is then a *private copy* whose mutations
    never return to the coordinator, so ``REPRO_JOBS=process:N`` quietly
    computes something different from ``thread:N`` and serial.  State
    must travel in task payloads and come back in return values, merged
    on the coordinator (the PR-5 discipline).
    """

    code = "RPR106"
    name = "parallel-state-escape"
    rationale = (
        "task functions fanned out through the worker pool must not "
        "capture mutable coordinator state (closures over dict/list/"
        "Recorder/PartitionStore or bound self); process workers mutate "
        "a pickled copy and diverge from thread workers"
    )
    example = (
        "    seen: dict[int, int] = {}\n"
        "    def task(chunk):\n"
        "        seen[chunk[0]] = 1        # mutates a worker-local copy\n"
        "        return chunk\n"
        "    pool.map_chunks(task, tasks)  # RPR106\n"
        "fix: return per-chunk data and merge on the coordinator"
    )

    _ALLOWED_FILES = ("engine/parallel.py", "engine/shm.py")
    #: fan-out entry points -> index of the task-function argument
    _FAN_OUT = {"map_chunks": 0, "run_cells_sharded": 1}

    def check_modules(
        self, modules: Sequence[Module], shared: dict
    ) -> Iterator[Finding]:
        project = _project_for(modules, shared)
        analysis = _MutabilityAnalysis()
        for function in project.all_functions():
            module = project.by_relpath[function.module]
            if module.relpath.endswith(self._ALLOWED_FILES):
                continue
            if not self._mentions_fan_out(function.node):
                continue
            yield from self._check_function(function, module, shared, analysis)

    def _mentions_fan_out(self, node: ast.AST) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute) and child.attr in self._FAN_OUT:
                return True
            if isinstance(child, ast.Name) and child.id in self._FAN_OUT:
                return True
        return False

    def _check_function(
        self,
        function: FunctionDef,
        module: Module,
        shared: dict,
        analysis: _MutabilityAnalysis,
    ) -> Iterator[Finding]:
        cfg = _cfg_of(shared, function)
        states = run_forward(cfg, analysis)
        fn_locals = _local_names(function.node)
        nested = {
            node.name: node
            for node in _iter_scope(function.node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        is_method = function.is_method
        seen: set[tuple[int, int, str]] = set()
        for node, state in statement_states(cfg, states, analysis):
            for expr in shallow_exprs(node):
                for call in ast.walk(expr):
                    if not isinstance(call, ast.Call):
                        continue
                    found = self._fan_out_task(call)
                    if found is None:
                        continue
                    api, task = found
                    for message in self._escapes(
                        task, state, fn_locals, nested, is_method, api
                    ):
                        key = (call.lineno, call.col_offset, message)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield Finding(
                            path=module.relpath,
                            line=call.lineno,
                            col=call.col_offset + 1,
                            rule=self.code,
                            message=message,
                        )

    def _fan_out_task(self, call: ast.Call) -> tuple[str, ast.expr] | None:
        func = call.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            return None
        index = self._FAN_OUT.get(name)
        if index is None or len(call.args) <= index:
            return None
        # pool.map_chunks(fn, tasks) is a method; run_cells_sharded is a
        # module-level kernel — accept both spellings for each.
        return name, call.args[index]

    def _escapes(
        self,
        task: ast.expr,
        env: dict,
        fn_locals: set[str],
        nested: dict[str, ast.FunctionDef],
        is_method: bool,
        api: str,
    ) -> Iterator[str]:
        if isinstance(task, ast.Lambda):
            yield from self._capture_messages(
                _free_names(task), env, fn_locals, is_method, api, "lambda"
            )
            return
        if isinstance(task, ast.Name):
            definition = nested.get(task.id)
            if definition is not None:
                yield from self._capture_messages(
                    _free_names(definition),
                    env,
                    fn_locals,
                    is_method,
                    api,
                    f"local function {task.id}()",
                )
            return
        if isinstance(task, ast.Attribute):
            root = _root_name(task)
            if root == "self":
                yield (
                    f"bound method self.{task.attr} passed to {api}() "
                    "captures the whole instance; process workers mutate "
                    "a pickled copy — use a module-level task function "
                    "and pass state through the payload"
                )
            elif root is not None and env.get(root, ("", 0))[0] == "mutable":
                line = env[root][1]
                yield (
                    f"bound method {root}.{task.attr} passed to {api}() "
                    f"captures mutable {root!r} (line {line}); workers "
                    "mutate a private copy — pass state through the "
                    "payload and merge on the coordinator"
                )

    def _capture_messages(
        self,
        free: set[str],
        env: dict,
        fn_locals: set[str],
        is_method: bool,
        api: str,
        what: str,
    ) -> Iterator[str]:
        for name in sorted(free & fn_locals):
            if name == "self" and is_method:
                yield (
                    f"{what} passed to {api}() captures `self`; process "
                    "workers mutate a pickled copy of the instance — use "
                    "a module-level task function with explicit payloads"
                )
                continue
            entry = env.get(name)
            if entry is not None and entry[0] == "mutable":
                yield (
                    f"{what} passed to {api}() captures mutable {name!r} "
                    f"(line {entry[1]}); process workers mutate a private "
                    "copy and diverge from thread workers — pass it "
                    "through the task payload and merge on the coordinator"
                )


# ---------------------------------------------------------------------------
# RPR107 — merge-order sensitivity
# ---------------------------------------------------------------------------

#: taint = frozenset of (line, description) origins
_Taint = frozenset

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


# ---------------------------------------------------------------------------
# RPR108 — numeric-width overflow
# ---------------------------------------------------------------------------

DATA_BITS = 32
"""Assumed bit width of a single label column's values: label codes are
dense row indices, so 2^32 distinct values per column is the modelling
bound (documented in DESIGN.md §6)."""

_INT64_BITS = 64


@dataclass(frozen=True)
class _Width:
    """Abstract magnitude: an upper bound on a value's bit length.

    ``card`` marks cardinality values (the ``x.max(...) + 1`` pattern) —
    the multiplier of a group-key fold.  ``safe`` marks values dominated
    by a fold-limit guard (the false edge of ``if bound * card >=
    LIMIT``) or freshly re-densified via ``np.unique``.  ``origins``
    carries the variable names a value was derived from, so marking
    ``bound`` safe also marks the ``keys`` it bounds.
    """

    bits: float
    card: bool = False
    safe: bool = False
    origins: frozenset = frozenset()


def _join_width(left: _Width, right: _Width) -> _Width:
    return _Width(
        bits=max(left.bits, right.bits),
        card=left.card or right.card,
        safe=left.safe and right.safe,
        origins=left.origins | right.origins,
    )


class _WidthAnalysis(ForwardAnalysis):
    """Environment: name -> :class:`_Width`."""

    def join(self, left: dict, right: dict) -> dict:
        out = dict(left)
        for name, width in right.items():
            existing = out.get(name)
            out[name] = width if existing is None else _join_width(existing, width)
        return out

    def widen(self, previous: dict, incoming: dict) -> dict:
        out = self.join(previous, incoming)
        for name, width in out.items():
            before = previous.get(name)
            if before is not None and width.bits > before.bits:
                out[name] = replace(width, bits=float("inf"))
        return out

    def transfer(self, state: dict, node: ast.AST) -> dict:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            if node.value is None:
                return state
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            new = dict(state)
            densified = self._densify_target(node.value, targets)
            if densified is not None:
                name, origins = densified
                new[name] = _Width(DATA_BITS, origins=origins)
                return new
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                new[targets[0].id] = self.classify(node.value, state)
            else:
                for target in targets:
                    for name in _target_names(target):
                        new.pop(name, None)
            return new
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
            current = state.get(name, _Width(DATA_BITS, origins=frozenset({name})))
            operand = self.classify(node.value, state)
            new = dict(state)
            if isinstance(node.op, ast.Mult):
                new[name] = _Width(
                    current.bits + operand.bits,
                    safe=current.safe and operand.safe,
                    origins=current.origins | operand.origins,
                )
            else:
                new[name] = _Width(
                    max(current.bits, operand.bits) + 1,
                    safe=current.safe and operand.safe,
                    origins=current.origins | operand.origins,
                )
            return new
        return state

    def transfer_loop(self, state: dict, node: ast.For) -> dict:
        new = dict(state)
        for name in _target_names(node.target):
            new[name] = _Width(DATA_BITS, origins=frozenset({name}))
        return new

    @staticmethod
    def _densify_target(
        value: ast.expr, targets: list[ast.expr]
    ) -> tuple[str, frozenset] | None:
        """Match ``_, keys = np.unique(x, return_inverse=True)``."""
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "unique"
            and any(kw.arg == "return_inverse" for kw in value.keywords)
        ):
            return None
        if len(targets) == 1 and isinstance(targets[0], ast.Tuple):
            elements = targets[0].elts
            if len(elements) == 2 and isinstance(elements[1], ast.Name):
                origin = _root_name(value.args[0]) if value.args else None
                origins = frozenset({origin}) if origin else frozenset()
                return elements[1].id, origins
        return None

    def classify(self, expr: ast.expr, env: dict) -> _Width:
        if (
            isinstance(expr, ast.Constant)
            and isinstance(expr.value, int)
            and not isinstance(expr.value, bool)
        ):
            return _Width(max(1, int(expr.value).bit_length()))
        if isinstance(expr, ast.Name):
            got = env.get(expr.id)
            if got is not None:
                return got
            return _Width(DATA_BITS, origins=frozenset({expr.id}))
        if isinstance(expr, ast.BinOp):
            left = self.classify(expr.left, env)
            right = self.classify(expr.right, env)
            if (
                isinstance(expr.op, ast.Add)
                and isinstance(expr.right, ast.Constant)
                and expr.right.value == 1
                and _mentions_max_call(expr.left)
            ):
                return _Width(DATA_BITS, card=True, origins=left.origins)
            if isinstance(expr.op, ast.Mult):
                return _Width(
                    left.bits + right.bits,
                    safe=left.safe and right.safe,
                    origins=left.origins | right.origins,
                )
            if isinstance(expr.op, (ast.Add, ast.Sub, ast.BitOr, ast.BitXor)):
                return _Width(
                    max(left.bits, right.bits) + 1,
                    safe=left.safe and right.safe,
                    origins=left.origins | right.origins,
                )
            if isinstance(expr.op, (ast.FloorDiv, ast.Mod, ast.RShift, ast.BitAnd)):
                return _Width(left.bits, safe=left.safe, origins=left.origins)
            return _Width(
                max(left.bits, right.bits), origins=left.origins | right.origins
            )
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id == "int" and expr.args:
                return self.classify(expr.args[0], env)
            if isinstance(func, ast.Attribute):
                root = _root_name(func)
                origins = frozenset({root}) if root else frozenset()
                return _Width(DATA_BITS, origins=origins)
            return _Width(DATA_BITS)
        if isinstance(expr, ast.Subscript):
            root = _root_name(expr)
            origins = frozenset({root}) if root else frozenset()
            return _Width(DATA_BITS, origins=origins)
        if isinstance(expr, ast.UnaryOp):
            return self.classify(expr.operand, env)
        if isinstance(expr, ast.IfExp):
            return _join_width(
                self.classify(expr.body, env), self.classify(expr.orelse, env)
            )
        if isinstance(expr, ast.Attribute):
            root = _root_name(expr)
            origins = frozenset({root}) if root else frozenset()
            return _Width(DATA_BITS, origins=origins)
        return _Width(DATA_BITS)

    def refine(self, state: dict, test: ast.expr, branch: bool) -> dict:
        guard = _fold_guard(test)
        if guard is None:
            return state
        left, right, safe_branch = guard
        if branch != safe_branch:
            return state
        marked: set[str] = set()
        for operand in (left, right):
            for node in ast.walk(operand):
                if isinstance(node, ast.Name):
                    marked.add(node.id)
        # derivation closure: a guard on `bound` (= max(keys)+1) proves
        # `keys` itself small, so follow origins one step.
        for name in list(marked):
            width = state.get(name)
            if width is not None:
                marked.update(width.origins)
        new = dict(state)
        for name in marked:
            width = new.get(name)
            if width is None:
                new[name] = _Width(DATA_BITS, safe=True, origins=frozenset({name}))
            else:
                new[name] = replace(width, safe=True)
        return new


def _mentions_max_call(expr: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "max"
        for node in ast.walk(expr)
    )


def _fold_guard(test: ast.expr) -> tuple[ast.expr, ast.expr, bool] | None:
    """Recognize ``a * b >= LIMIT``-shaped guards.

    Returns the multiply's operands plus which branch proves safety:
    the false edge for ``a * b >= LIMIT`` / ``a * b > LIMIT``, the true
    edge for ``a * b < LIMIT`` / ``a * b <= LIMIT`` (and mirrored
    comparisons).
    """
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
        return None
    op = test.ops[0]
    left, right = test.left, test.comparators[0]
    if isinstance(left, ast.BinOp) and isinstance(left.op, ast.Mult):
        if isinstance(op, (ast.GtE, ast.Gt)):
            return left.left, left.right, False
        if isinstance(op, (ast.LtE, ast.Lt)):
            return left.left, left.right, True
    if isinstance(right, ast.BinOp) and isinstance(right.op, ast.Mult):
        if isinstance(op, (ast.GtE, ast.Gt)):
            return right.left, right.right, True
        if isinstance(op, (ast.LtE, ast.Lt)):
            return right.left, right.right, False
    return None


class NumericWidthRule(ProjectRule):
    """RPR108 — group-key folds must not be able to wrap int64.

    The historical bug class: ``keys * cardinality + labels`` with 61
    folded columns reaches 2^61 keys; one more 8-label fold crosses
    2^64, wraps, and a violated FD can silently collide into "valid".
    The width domain bounds every multiply; a fold whose worst case
    reaches 2^64 is flagged unless a fold-limit guard dominates it or
    the keys were just re-densified (both recognized flow-sensitively,
    so ``relation/validate.fold_column`` itself is clean).
    """

    code = "RPR108"
    name = "numeric-width-overflow"
    rationale = (
        "a group-key fold (multiply by a label cardinality) whose "
        "worst-case magnitude reaches 2^64 can silently wrap int64 and "
        "collide distinct groups; guard with a fold limit and "
        "re-densify via np.unique first"
    )
    example = (
        "    cardinality = int(labels.max(initial=0)) + 1\n"
        "    keys = keys * cardinality + labels   # RPR108: may reach 2^64\n"
        "fix: check `bound * cardinality >= FOLD_LIMIT` first and\n"
        "re-densify keys via np.unique(keys, return_inverse=True)"
    )

    #: packages whose arithmetic can touch group-key folds
    _SCOPED_PACKAGES = ("relation", "engine", "core", "algorithms", "fd")

    def check_modules(
        self, modules: Sequence[Module], shared: dict
    ) -> Iterator[Finding]:
        project = _project_for(modules, shared)
        analysis = _WidthAnalysis()
        for function in project.all_functions():
            module = project.by_relpath[function.module]
            if not module.in_packages(*self._SCOPED_PACKAGES):
                continue
            if not self._mentions_multiply(function.node):
                continue
            yield from self._check_function(function, module, shared, analysis)

    @staticmethod
    def _mentions_multiply(node: ast.AST) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult):
                return True
            if isinstance(child, ast.AugAssign) and isinstance(child.op, ast.Mult):
                return True
        return False

    def _check_function(
        self,
        function: FunctionDef,
        module: Module,
        shared: dict,
        analysis: _WidthAnalysis,
    ) -> Iterator[Finding]:
        cfg = _cfg_of(shared, function)
        states = run_forward(cfg, analysis)
        seen: set[tuple[int, int]] = set()
        for node, state in statement_states(cfg, states, analysis):
            if isinstance(node, ast.expr):
                continue  # branch tests are guards, not folds
            if isinstance(node, (ast.Assert,)):
                continue
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
                left = self._width_of_target(node.target, state, analysis)
                right = analysis.classify(node.value, state)
                yield from self._judge(
                    function, module, node, left, right, state, seen
                )
            for expr in shallow_exprs(node):
                excluded = _guard_mults(expr)
                for child in ast.walk(expr):
                    if (
                        isinstance(child, ast.BinOp)
                        and isinstance(child.op, ast.Mult)
                        and id(child) not in excluded
                    ):
                        left = analysis.classify(child.left, state)
                        right = analysis.classify(child.right, state)
                        yield from self._judge(
                            function, module, child, left, right, state, seen
                        )

    @staticmethod
    def _width_of_target(
        target: ast.expr, state: dict, analysis: _WidthAnalysis
    ) -> _Width:
        if isinstance(target, ast.Name):
            return state.get(
                target.id, _Width(DATA_BITS, origins=frozenset({target.id}))
            )
        return analysis.classify(target, state)

    def _judge(
        self,
        function: FunctionDef,
        module: Module,
        node: ast.AST,
        left: _Width,
        right: _Width,
        state: dict,
        seen: set[tuple[int, int]],
    ) -> Iterator[Finding]:
        if left.safe or right.safe:
            return
        if not (left.card or right.card):
            return
        worst = left.bits + right.bits
        if worst < _INT64_BITS:
            return
        key = (node.lineno, node.col_offset)
        if key in seen:
            return
        seen.add(key)
        magnitude = (
            "unbounded (loop-accumulated fold)"
            if worst == float("inf")
            else f"2^{int(worst)}"
        )
        yield Finding(
            path=module.relpath,
            line=node.lineno,
            col=node.col_offset + 1,
            rule=self.code,
            message=(
                f"{function.qualname}: group-key fold multiplies by a "
                f"label cardinality with worst case {magnitude} — this "
                "can wrap int64 and collide distinct groups; guard with "
                "a fold limit and re-densify via np.unique "
                "(cf. relation/validate.fold_column)"
            ),
        )


def _guard_mults(expr: ast.expr) -> set[int]:
    """ids of multiply nodes appearing inside comparisons (guards)."""
    excluded: set[int] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                for child in ast.walk(operand):
                    if isinstance(child, ast.BinOp) and isinstance(
                        child.op, ast.Mult
                    ):
                        excluded.add(id(child))
    return excluded


def default_dataflow_rules() -> list[ProjectRule]:
    """One fresh instance of every dataflow-backed rule, in code order."""
    return [ParallelStateEscapeRule(), MergeOrderRule(), NumericWidthRule()]
