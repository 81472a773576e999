"""The typestate (resource-lifecycle) rules: RPR109–RPR111.

The engine manages half a dozen acquire/release protocols by convention:
a published matrix file must be closed *and then* unlinked, a
:class:`WorkerPool` must be closed, ``obs`` spans and ``use_context``
frames must exit as many times as they enter.  Once the engine serves
long-lived processes those conventions stop being self-healing — a
leaked temp file no longer dies with the interpreter — so this module
checks them statically on PR 6's CFG/dataflow layer:

========  ============================================================
RPR109    leak-on-path — some path (exception edges, early returns,
          loop-carried rebinding, a discarded acquisition) reaches
          function exit with an owned resource still allocated and
          unescaped; undeclared ownership transfer (returning or
          storing an owned resource without ``Owns:``) reports here too
RPR110    use-after-release — attribute access or re-dispatch on a
          resource that is released on *every* path reaching the site
RPR111    release-protocol violation — a release step applied twice,
          out of order (``unlink`` before ``close``), or to a
          parameter the contract says is only borrowed
========  ============================================================

Each resource follows a declarative :class:`Protocol` from
:data:`PROTOCOLS` — an ordered tuple of release steps.  The abstract
domain maps local names to a :class:`Resource` whose ``states`` set
holds every step index reachable on some path (``-1`` = escaped to a
new owner); uniform singleton sets are *must* facts (RPR110/111 fire
only on those), any live member is a *may* fact (RPR109 fires on
those).  Ownership transfer is declared, not guessed, with the
``Owns:``/``Borrows:`` docstring grammar of
:mod:`repro.analysis.contracts`; one-level interprocedural summaries
(in the style of RPR107) propagate the release steps a callee applies
to the arguments it is handed.

The runtime mirror of RPR109 is the ``live_resources`` probe installed
by ``--sanitize`` (zero live ``repro_mmap_*`` files and a balanced
context stack at exit); the state machines and grammar are documented
in DESIGN.md ("Typestate layer").
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

from .cfg import CFG
from .cfg import shallow_exprs
from .contracts import Contract, parse_contract
from .dataflow import ForwardAnalysis, run_forward
from .dataflow_rules import (
    _cfg_of,
    _free_names,
    _param_names,
    _root_name,
    _target_names,
)
from .engine import Finding, Module, ProjectRule
from .project import FunctionDef, Project
from .project_rules import _project_for

ESCAPED = -1
"""Pseudo-state: ownership moved to another owner on this path."""


@dataclass(frozen=True)
class Protocol:
    """One resource kind's state machine: ordered release steps."""

    name: str
    steps: tuple[str, ...]
    """Release method names in required order; ``"()"`` means the
    resource itself is called to release it (cleanup callables)."""
    description: str


#: The declarative protocol registry (DESIGN.md "Typestate layer").
PROTOCOLS: dict[str, Protocol] = {
    "mmap-matrix": Protocol(
        "mmap-matrix",
        ("close", "unlink"),
        "mmap-backed label-matrix file: close the write handle, then "
        "unlink the temp file",
    ),
    "worker-pool": Protocol(
        "worker-pool",
        ("close",),
        "engine WorkerPool: close() shuts the executor down and unlinks "
        "published matrix files",
    ),
    "executor": Protocol(
        "executor", ("shutdown",), "concurrent.futures executor"
    ),
    "file": Protocol(
        "file",
        ("close",),
        "open()/Path.open()/NamedTemporaryFile handle",
    ),
    "tempdir": Protocol(
        "tempdir", ("cleanup",), "tempfile.TemporaryDirectory"
    ),
    "frame": Protocol(
        "frame",
        ("__exit__",),
        "obs phase/recording and use_context stack frames: enter/exit "
        "via `with`",
    ),
    "cleanup": Protocol(
        "cleanup",
        ("()",),
        "release callable from an `Owns: return via call` publisher",
    ),
    "resource": Protocol(
        "resource",
        ("close",),
        "generic owned resource (plain `Owns: return`)",
    ),
}

#: Constructor names that acquire a resource unconditionally.
_CONSTRUCTOR_PROTOCOLS = {
    "MmapSegment": "mmap-matrix",
    "WorkerPool": "worker-pool",
    "ThreadPoolExecutor": "executor",
    "ProcessPoolExecutor": "executor",
    "NamedTemporaryFile": "file",
    "TemporaryFile": "file",
    "TemporaryDirectory": "tempdir",
    "phase": "frame",
    "recording": "frame",
    "use_context": "frame",
}

#: Every release-step name of any protocol; releasing a `Borrows:`
#: parameter through one of these is an RPR111 finding.
_ALL_STEP_NAMES = frozenset(
    step
    for protocol in PROTOCOLS.values()
    for step in protocol.steps
    if step != "()"
)

_NO_CONTRACT = Contract()


def acquired_protocol(call: ast.Call) -> str | None:
    """The protocol a call acquires, or None for ordinary calls."""
    func = call.func
    if isinstance(func, ast.Name):
        name, root = func.id, None
    elif isinstance(func, ast.Attribute):
        name, root = func.attr, _root_name(func.value)
    else:
        return None
    if name == "open":
        # os.open returns a raw fd managed elsewhere (dup2 piping etc.)
        return None if root == "os" else "file"
    return _CONSTRUCTOR_PROTOCOLS.get(name)


@dataclass(frozen=True)
class Resource:
    """Abstract state of one tracked resource binding."""

    protocol: str
    line: int
    """Acquisition line (the leak message anchor)."""
    states: frozenset[int]
    """Reachable release-step indices; ``len(steps)`` = fully released,
    :data:`ESCAPED` = ownership transferred on that path."""
    maybe_unbound: bool = False
    """True when the name is unbound on some path (must-checks off)."""
    borrowed: bool = False
    """A ``Borrows:`` parameter: this function must not release it."""
    poisoned: bool = False
    """A violation was already reported; silence the cascade."""

    @property
    def full(self) -> int:
        return len(PROTOCOLS[self.protocol].steps)

    @property
    def may_live(self) -> bool:
        """Some path still holds the resource short of fully released."""
        return any(0 <= state < self.full for state in self.states)

    @property
    def is_must(self) -> bool:
        """The state set is a single definite fact on every path."""
        return len(self.states) == 1 and not self.maybe_unbound


def _escaped(resource: Resource) -> Resource:
    return replace(resource, states=frozenset({ESCAPED}))


def _stmt_calls(node: ast.AST) -> list[ast.Call]:
    """Every call a block statement evaluates, in source order."""
    calls = [
        child
        for expr in shallow_exprs(node)
        for child in ast.walk(expr)
        if isinstance(child, ast.Call)
    ]
    calls.sort(key=lambda call: (call.lineno, call.col_offset))
    return calls


def _returned_names(value: ast.expr) -> list[str]:
    if isinstance(value, ast.Name):
        return [value.id]
    if isinstance(value, ast.Tuple):
        return [elt.id for elt in value.elts if isinstance(elt, ast.Name)]
    return []


def _none_test(test: ast.expr) -> tuple[str, bool] | None:
    """``(name, is_none)`` for an ``x is None`` / ``x is not None`` test."""
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and len(test.ops) == 1
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        if isinstance(test.ops[0], ast.Is):
            return test.left.id, True
        if isinstance(test.ops[0], ast.IsNot):
            return test.left.id, False
    return None


def _contract_of(function: FunctionDef | None) -> Contract:
    if function is None:
        return _NO_CONTRACT
    parsed = parse_contract(ast.get_docstring(function.node, clean=False))
    if parsed is None or parsed.errors:
        return _NO_CONTRACT
    return parsed


def _lifecycle_summaries(
    project: Project, shared: dict
) -> dict[tuple[str, str], dict[str, tuple[str, ...]]]:
    """Per function: the release steps its body applies to each parameter.

    One-level and flow-insensitive by design (the RPR107 pattern): a
    helper like ``_discard_segment(segment)`` is summarized as applying
    ``("close", "unlink")`` to ``segment``, so callers see the handoff
    release its resource instead of conservatively escaping it.
    """
    cached = shared.get("lifecycle_summaries")
    if cached is not None:
        return cached
    summaries: dict[tuple[str, str], dict[str, tuple[str, ...]]] = {}
    for function in project.all_functions():
        params = _param_names(function.node.args)
        applied: dict[str, list[str]] = {}
        calls = [
            node
            for node in ast.walk(function.node)
            if isinstance(node, ast.Call)
        ]
        calls.sort(key=lambda call: (call.lineno, call.col_offset))
        for node in calls:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in params
                and func.attr in _ALL_STEP_NAMES
            ):
                applied.setdefault(func.value.id, []).append(func.attr)
            elif isinstance(func, ast.Name) and func.id in params:
                applied.setdefault(func.id, []).append("()")
        summaries[function.key] = {
            name: tuple(steps) for name, steps in applied.items()
        }
    shared["lifecycle_summaries"] = summaries
    return summaries


@dataclass(frozen=True)
class _StepApplication:
    """One release-step application site found in a statement."""

    name: str
    step: int
    step_name: str
    line: int
    col: int
    via_summary: str | None = None
    """Callee name when the step is applied through a summarized call."""


class _LifecycleAnalysis(ForwardAnalysis):
    """Forward environment: local name -> :class:`Resource`."""

    def __init__(
        self,
        module: Module,
        function: FunctionDef,
        project: Project,
        summaries: dict[tuple[str, str], dict[str, tuple[str, ...]]],
    ) -> None:
        self.module = module
        self.function = function
        self.project = project
        self.summaries = summaries
        self.contract = _contract_of(function)

    # -- domain -----------------------------------------------------------

    def initial(self, cfg: CFG) -> dict:
        env: dict[str, Resource] = {}
        params = _param_names(self.function.node.args)
        line = self.function.node.lineno
        for name, protocol in self.contract.owns_params:
            if name in params:
                env[name] = Resource(
                    protocol=protocol if protocol in PROTOCOLS else "resource",
                    line=line,
                    states=frozenset({0}),
                )
        for name in self.contract.borrows:
            if name in params and name not in env:
                env[name] = Resource(
                    protocol="resource",
                    line=line,
                    states=frozenset({0}),
                    borrowed=True,
                )
        return env

    def join(self, left: dict, right: dict) -> dict:
        merged: dict[str, Resource] = {}
        for name in left.keys() | right.keys():
            first, second = left.get(name), right.get(name)
            if first is None or second is None:
                present = first if first is not None else second
                merged[name] = replace(present, maybe_unbound=True)
            else:
                merged[name] = replace(
                    first,
                    states=first.states | second.states,
                    maybe_unbound=first.maybe_unbound or second.maybe_unbound,
                    poisoned=first.poisoned or second.poisoned,
                )
        return merged

    def exceptional(self, entry: dict, exit_state: dict, block) -> dict:
        """Handler state: a raise may predate any binding the block made.

        A resource acquired *inside* the raising block may not exist on
        the exception path (the acquisition itself raised), so it is
        dropped.  A release step that raised still counts as applied —
        the engine's own protocols never retry ``close()`` after
        ``BufferError``, and claiming the step "may not have run" would
        turn every guarded release into a phantom leak.  An *escape* the
        block performed (``return segment``) is NOT committed, though:
        the raise preempted it, so the entry states fold back in and the
        handler still owes the release.  (A block that both acquires and
        then raises past the acquisition is coarsely treated as not
        having acquired; the triad fixtures and the engine keep
        acquisitions in their own ``try``.)
        """
        lines = [
            (node.lineno, getattr(node, "end_lineno", None) or node.lineno)
            for node in block.statements
            if hasattr(node, "lineno")
        ]
        if not lines:
            return exit_state
        low = min(start for start, _ in lines)
        high = max(end for _, end in lines)
        env: dict[str, Resource] = {}
        for name, resource in exit_state.items():
            before = entry.get(name)
            if before is None:
                if low <= resource.line <= high:
                    continue
            elif ESCAPED in resource.states and ESCAPED not in before.states:
                resource = replace(
                    resource, states=resource.states | before.states
                )
            env[name] = resource
        return env

    def refine(self, state: dict, test: ast.expr, branch: bool) -> dict:
        parsed = _none_test(test)
        if parsed is None:
            return state
        name, is_none = parsed
        if name not in state:
            return state
        env = dict(state)
        if is_none == branch:
            # on this edge the name is None — not a live resource
            del env[name]
        else:
            # provably bound here: must-facts become available
            env[name] = replace(env[name], maybe_unbound=False)
        return env

    # -- transfer ---------------------------------------------------------

    def transfer(self, state: dict, node: ast.AST) -> dict:
        env = dict(state)
        if isinstance(node, ast.withitem):
            self._transfer_withitem(env, node)
            return env
        for application in self.step_applications(env, node):
            self._fold_step(env, application)
        self._escape_via_calls(env, node)
        self._escape_closures(env, node)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            self._transfer_assign(env, node)
        elif isinstance(node, ast.Return) and node.value is not None:
            for name in _returned_names(node.value):
                resource = env.get(name)
                if resource is not None and not resource.borrowed:
                    env[name] = _escaped(resource)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        return env

    def transfer_loop(self, state: dict, node: ast.For) -> dict:
        env = dict(state)
        for name in _target_names(node.target):
            env.pop(name, None)
        return env

    def _transfer_withitem(self, env: dict, item: ast.withitem) -> None:
        """``with`` owns its context expression: entry/exit are paired by
        construction, so acquisitions here are never tracked and tracked
        resources entering a ``with`` are released by it."""
        expr = item.context_expr
        if isinstance(expr, ast.Name) and expr.id in env:
            if not env[expr.id].borrowed:
                env[expr.id] = _escaped(env[expr.id])
            return
        if isinstance(expr, ast.Call):
            if acquired_protocol(expr) is None:
                self._escape_via_calls(env, item)

    def _transfer_assign(
        self, env: dict, node: ast.Assign | ast.AnnAssign
    ) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        # container / attribute stores escape the stored resource: some
        # longer-lived owner (a registry dict, self) holds it now
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                if isinstance(value, ast.Name) and value.id in env:
                    if not env[value.id].borrowed:
                        env[value.id] = _escaped(env[value.id])
        # plain rebinding kills the old binding (leak checked in replay)
        for target in targets:
            for name in _target_names(target):
                env.pop(name, None)
        if value is None or len(targets) != 1:
            return
        target = targets[0]
        if isinstance(value, ast.Call):
            protocol = acquired_protocol(value)
            if protocol is not None and isinstance(target, ast.Name):
                env[target.id] = Resource(
                    protocol=protocol,
                    line=value.lineno,
                    states=frozenset({0}),
                )
                return
            callee = self.resolve_callee(value)
            owned = _contract_of(callee).owns_return
            if owned == "call" and isinstance(target, ast.Tuple):
                names = [
                    elt.id
                    for elt in target.elts
                    if isinstance(elt, ast.Name)
                ]
                if names:
                    # (handle, cleanup) convention: the last unpack
                    # target is the release callable
                    env[names[-1]] = Resource(
                        protocol="cleanup",
                        line=value.lineno,
                        states=frozenset({0}),
                    )
            elif owned == "plain" and isinstance(target, ast.Name):
                env[target.id] = Resource(
                    protocol="resource",
                    line=value.lineno,
                    states=frozenset({0}),
                )
        elif isinstance(value, ast.Name) and value.id in env:
            if isinstance(target, ast.Name):
                # move semantics: the new name owns, the old aliases
                env[target.id] = env[value.id]
                if not env[value.id].borrowed:
                    env[value.id] = _escaped(env[value.id])

    # -- step application -------------------------------------------------

    def step_applications(
        self, env: dict, node: ast.AST
    ) -> list[_StepApplication]:
        """Release-step sites in one statement: direct ``x.close()`` /
        ``cleanup()`` calls plus steps applied through summarized
        callees (``_discard_segment(segment)``)."""
        found: list[_StepApplication] = []
        for call in _stmt_calls(node):
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in env
            ):
                resource = env[func.value.id]
                steps = PROTOCOLS[resource.protocol].steps
                if func.attr in steps:
                    found.append(
                        _StepApplication(
                            name=func.value.id,
                            step=steps.index(func.attr),
                            step_name=func.attr,
                            line=call.lineno,
                            col=call.col_offset,
                        )
                    )
                continue
            if isinstance(func, ast.Name) and func.id in env:
                resource = env[func.id]
                steps = PROTOCOLS[resource.protocol].steps
                if "()" in steps:
                    found.append(
                        _StepApplication(
                            name=func.id,
                            step=steps.index("()"),
                            step_name="calling it",
                            line=call.lineno,
                            col=call.col_offset,
                        )
                    )
                continue
            for argument, parameter, callee in self._bound_arguments(call):
                if not (
                    isinstance(argument, ast.Name) and argument.id in env
                ):
                    continue
                resource = env[argument.id]
                if resource.borrowed:
                    continue
                summary = self.summaries.get(callee.key, {})
                steps = PROTOCOLS[resource.protocol].steps
                for step_name in summary.get(parameter, ()):
                    if step_name in steps:
                        found.append(
                            _StepApplication(
                                name=argument.id,
                                step=steps.index(step_name),
                                step_name=step_name,
                                line=call.lineno,
                                col=call.col_offset,
                                via_summary=callee.qualname,
                            )
                        )
        return found

    def _fold_step(self, env: dict, application: _StepApplication) -> None:
        resource = env.get(application.name)
        if resource is None or resource.borrowed:
            return
        if application.step in resource.states:
            env[application.name] = replace(
                resource,
                states=frozenset(
                    state + 1 if state == application.step else state
                    for state in resource.states
                ),
            )
        elif ESCAPED in resource.states:
            pass  # another owner's resource: no protocol claim here
        else:
            # illegal on every path: the replay reports it once, then
            # the saturated/poisoned state silences the cascade
            env[application.name] = replace(
                resource,
                states=frozenset({resource.full}),
                poisoned=True,
            )

    # -- escapes ----------------------------------------------------------

    def _escape_via_calls(self, env: dict, node: ast.AST) -> None:
        """A tracked resource passed to a call escapes unless the callee
        is summarized in-tree or declares ``Borrows:`` on the slot."""
        for call in _stmt_calls(node):
            func = call.func
            receiver = (
                func.value.id
                if isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                else None
            )
            callee = self.resolve_callee(call)
            contract = _contract_of(callee)
            bound = dict()
            if callee is not None:
                bound = {
                    id(argument): parameter
                    for argument, parameter, _ in self._bound_arguments(call)
                }
            for argument in [*call.args, *[k.value for k in call.keywords]]:
                if not (
                    isinstance(argument, ast.Name) and argument.id in env
                ):
                    continue
                if argument.id == receiver:
                    continue
                resource = env[argument.id]
                if resource.borrowed or ESCAPED in resource.states:
                    continue
                if callee is not None:
                    parameter = bound.get(id(argument))
                    if parameter in contract.borrows:
                        continue
                    owned = {name for name, _ in contract.owns_params}
                    if parameter in owned:
                        env[argument.id] = _escaped(env[argument.id])
                        continue
                    # in-tree callee without an ownership claim: keep
                    # tracking (its summary already applied its steps)
                    continue
                env[argument.id] = _escaped(resource)

    def _escape_closures(self, env: dict, node: ast.AST) -> None:
        """Free names of a nested def/lambda escape: the closure is the
        new owner (the ``cleanup`` callable pattern)."""
        closures: list[ast.AST] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            closures.append(node)
        for expr in shallow_exprs(node):
            closures.extend(
                child
                for child in ast.walk(expr)
                if isinstance(child, ast.Lambda)
            )
        for closure in closures:
            for name in _free_names(closure):
                resource = env.get(name)
                if resource is not None and not resource.borrowed:
                    env[name] = _escaped(resource)

    # -- callee resolution -------------------------------------------------

    def resolve_callee(self, call: ast.Call) -> FunctionDef | None:
        func = call.func
        table = self.project.symbols().get(self.function.module)
        if table is None:
            return None
        if isinstance(func, ast.Name):
            local = table.functions.get(func.id)
            if local is not None:
                return local
            imported = table.imported_functions.get(func.id)
            if imported is not None:
                target_module, original = imported
                target_table = self.project.symbols().get(target_module)
                if target_table is not None:
                    return target_table.functions.get(original)
            return None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.function.class_name is not None
        ):
            methods = table.classes.get(self.function.class_name, {})
            return methods.get(func.attr)
        return None

    def _bound_arguments(
        self, call: ast.Call
    ) -> list[tuple[ast.expr, str, FunctionDef]]:
        """(argument expression, callee parameter name, callee) triples."""
        callee = self.resolve_callee(call)
        if callee is None:
            return []
        parameters = [
            arg.arg
            for arg in (
                *callee.node.args.posonlyargs,
                *callee.node.args.args,
            )
        ]
        offset = 0
        if callee.is_method and isinstance(call.func, ast.Attribute):
            offset = 1  # `self` is bound by the attribute access
        bound: list[tuple[ast.expr, str, FunctionDef]] = []
        for index, argument in enumerate(call.args):
            slot = index + offset
            if slot < len(parameters):
                bound.append((argument, parameters[slot], callee))
        names = set(parameters) | {
            arg.arg for arg in callee.node.args.kwonlyargs
        }
        for keyword in call.keywords:
            if keyword.arg in names:
                bound.append((keyword.value, keyword.arg, callee))
        return bound


# ---------------------------------------------------------------------------
# the replay: walking the fixpoint and emitting findings
# ---------------------------------------------------------------------------


def _remaining_steps(resource: Resource) -> str:
    steps = PROTOCOLS[resource.protocol].steps
    minimum = min(
        (state for state in resource.states if 0 <= state < resource.full),
        default=0,
    )
    pending = [step if step != "()" else "call it" for step in steps[minimum:]]
    return " -> ".join(pending)


def _check_function(
    module: Module,
    function: FunctionDef,
    project: Project,
    summaries: dict,
    shared: dict,
    sink: dict[str, list[Finding]],
) -> None:
    analysis = _LifecycleAnalysis(module, function, project, summaries)
    cfg = _cfg_of(shared, function)
    states = run_forward(cfg, analysis)
    contract = analysis.contract
    leaked: set[int] = set()
    reported_uses: set[tuple[str, int]] = set()
    emitted: set[tuple[str, int, int, str]] = set()

    def emit(code: str, line: int, col: int, message: str) -> None:
        # finally bodies are lowered twice (abort + normal copies), so
        # the same statement can replay in two blocks — dedupe by site
        key = (code, line, col, message)
        if key in emitted:
            return
        emitted.add(key)
        sink[code].append(
            Finding(
                path=module.relpath,
                line=line,
                col=col + 1,
                rule=code,
                message=f"{function.qualname}: {message}",
            )
        )

    def leak(resource: Resource, line: int, col: int, message: str) -> None:
        if resource.line in leaked:
            return
        leaked.add(resource.line)
        emit("RPR109", line, col, message)

    for block in cfg.blocks:
        state = states[block.index]
        if state is None:
            continue
        for node in block.statements:
            _check_statement(
                analysis, contract, state, node, block.protected, emit, leak,
                reported_uses,
            )
            state = analysis.transfer(state, node)
        if block.loop is not None:
            for name in _target_names(block.loop.target):
                resource = state.get(name)
                if (
                    resource is not None
                    and not resource.borrowed
                    and resource.may_live
                ):
                    leak(
                        resource,
                        block.loop.lineno,
                        block.loop.col_offset,
                        f"loop target {name!r} rebinds a "
                        f"{resource.protocol} acquired at line "
                        f"{resource.line} while a path still holds it "
                        f"unreleased ({_remaining_steps(resource)} first)",
                    )

    exit_state = states[cfg.exit]
    if exit_state:
        for name in sorted(exit_state, key=lambda n: exit_state[n].line):
            resource = exit_state[name]
            if (
                resource.borrowed
                or resource.poisoned
                or not resource.may_live
                or resource.line in leaked
            ):
                continue
            leaked.add(resource.line)
            emit(
                "RPR109",
                resource.line,
                0,
                f"{resource.protocol} {name!r} acquired here can reach "
                f"function exit unreleased on some path; release it "
                f"({_remaining_steps(resource)}) on every path, or "
                "transfer ownership and declare it with `Owns:`",
            )


def _check_statement(
    analysis: _LifecycleAnalysis,
    contract: Contract,
    state: dict,
    node: ast.AST,
    protected: bool,
    emit,
    leak,
    reported_uses: set[tuple[str, int]],
) -> None:
    env = dict(state)
    # RPR111: illegal step applications (must-facts only), folding
    # sequentially so `x.close(); x.close()` on one line still reports
    for application in analysis.step_applications(env, node):
        resource = env.get(application.name)
        if resource is not None and not resource.borrowed:
            if (
                application.step not in resource.states
                and ESCAPED not in resource.states
                and resource.is_must
                and not resource.poisoned
            ):
                steps = PROTOCOLS[resource.protocol].steps
                via = (
                    f" (via {application.via_summary})"
                    if application.via_summary
                    else ""
                )
                if min(resource.states) > application.step:
                    emit(
                        "RPR111",
                        application.line,
                        application.col,
                        f"{resource.protocol} {application.name!r} is "
                        f"already past {application.step_name!r}{via}: "
                        "double release",
                    )
                else:
                    expected = steps[min(resource.states)]
                    expected = "calling it" if expected == "()" else repr(expected)
                    emit(
                        "RPR111",
                        application.line,
                        application.col,
                        f"{resource.protocol} {application.name!r}: "
                        f"{application.step_name!r} applied before "
                        f"{expected}{via} — release steps are ordered "
                        f"({_remaining_steps(resource)})",
                    )
        analysis._fold_step(env, application)
    # RPR111: releasing a borrowed parameter
    for call in _stmt_calls(node):
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.attr in _ALL_STEP_NAMES
        ):
            resource = state.get(func.value.id)
            if resource is not None and resource.borrowed:
                emit(
                    "RPR111",
                    call.lineno,
                    call.col_offset,
                    f"parameter {func.value.id!r} is declared "
                    f"`Borrows:` but {func.attr!r} releases it — the "
                    "caller keeps ownership; drop the call or declare "
                    f"`Owns: {func.value.id} via <protocol>`",
                )
    # RPR110: attribute access / re-dispatch on a must-released resource
    if not isinstance(node, ast.withitem):
        for expr in shallow_exprs(node):
            for attribute in ast.walk(expr):
                if not (
                    isinstance(attribute, ast.Attribute)
                    and isinstance(attribute.value, ast.Name)
                ):
                    continue
                resource = state.get(attribute.value.id)
                if (
                    resource is None
                    or resource.borrowed
                    or resource.poisoned
                    or not resource.is_must
                    or resource.states != frozenset({resource.full})
                ):
                    continue
                if attribute.attr in PROTOCOLS[resource.protocol].steps:
                    continue  # double release is RPR111's finding
                key = (attribute.value.id, attribute.lineno)
                if key in reported_uses:
                    continue
                reported_uses.add(key)
                emit(
                    "RPR110",
                    attribute.lineno,
                    attribute.col_offset,
                    f"{resource.protocol} {attribute.value.id!r} is "
                    f"released on every path reaching this use of "
                    f".{attribute.attr}; re-acquire it or move the use "
                    "before the release",
                )
    # RPR109 shapes that need the statement, not just the exit state
    if (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and acquired_protocol(node.value) is not None
    ):
        protocol = acquired_protocol(node.value)
        emit(
            "RPR109",
            node.value.lineno,
            node.value.col_offset,
            f"{protocol} acquired and immediately discarded — bind it "
            "and release it, or use a `with` block",
        )
        return
    if isinstance(node, ast.Return) and node.value is not None:
        for name in _returned_names(node.value):
            resource = state.get(name)
            if (
                resource is not None
                and not resource.borrowed
                and resource.may_live
                and contract.owns_return is None
            ):
                leak(
                    resource,
                    node.lineno,
                    node.col_offset,
                    f"returns the live {resource.protocol} {name!r} "
                    "without declaring `Owns: return` — ownership "
                    "transfer must be declared, not guessed",
                )
        if (
            isinstance(node.value, ast.Call)
            and acquired_protocol(node.value) is not None
            and contract.owns_return is None
        ):
            emit(
                "RPR109",
                node.lineno,
                node.col_offset,
                f"returns a fresh {acquired_protocol(node.value)} "
                "without declaring `Owns: return` — the caller cannot "
                "know it must release this",
            )
        # other live resources at an early return are caught by the
        # exit-state check (the return edge flows there)
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        value = node.value
        stores_self = any(
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            for target in targets
        )
        if stores_self and not contract.owns_self and value is not None:
            acquired = (
                isinstance(value, ast.Call)
                and acquired_protocol(value) is not None
            )
            moved = (
                isinstance(value, ast.Name)
                and value.id in state
                and state[value.id].may_live
                and not state[value.id].borrowed
            )
            if acquired or moved:
                emit(
                    "RPR109",
                    node.lineno,
                    node.col_offset,
                    "stores an owned resource on `self` without "
                    "declaring `Owns: self` — ownership transfer must "
                    "be declared, not guessed",
                )
        for target in targets:
            for name in _target_names(target):
                resource = state.get(name)
                if (
                    resource is not None
                    and not resource.borrowed
                    and resource.may_live
                ):
                    # a pre-state holding a binding made *at this line*
                    # is the loop-carried case: the back edge brought
                    # last iteration's still-live resource here
                    leak(
                        resource,
                        node.lineno,
                        node.col_offset,
                        f"rebinds {name!r} while a path still holds the "
                        f"{resource.protocol} acquired at line "
                        f"{resource.line} unreleased "
                        f"({_remaining_steps(resource)} first)",
                    )
    # RPR109: a call that may raise while an owned resource is live and
    # no handler/finally protects it (the exception-edge leak)
    if not protected:
        live = [
            (name, resource)
            for name, resource in state.items()
            if not resource.borrowed
            and not resource.poisoned
            and resource.may_live
        ]
        if live:
            release_sites = {
                (application.line, application.col)
                for application in analysis.step_applications(
                    dict(state), node
                )
            }
            for call in _stmt_calls(node):
                if (call.lineno, call.col_offset) in release_sites:
                    continue  # the release itself is not a leak risk
                func = call.func
                receiver = (
                    _root_name(func.value)
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else None
                )
                if receiver in state:
                    continue  # releases/uses of tracked resources
                if acquired_protocol(call) is not None:
                    continue  # the acquisition itself
                name, resource = min(live, key=lambda item: item[1].line)
                leak(
                    resource,
                    call.lineno,
                    call.col_offset,
                    f"this call can raise while the {resource.protocol} "
                    f"{name!r} (acquired line {resource.line}) is "
                    "unreleased and no try/finally protects it — an "
                    "exception here leaks the resource",
                )
                break


# ---------------------------------------------------------------------------
# the rules
# ---------------------------------------------------------------------------


def _lifecycle_findings(
    modules: Sequence[Module], shared: dict
) -> dict[str, list[Finding]]:
    cached = shared.get("lifecycle_findings")
    if cached is not None:
        return cached
    project = _project_for(modules, shared)
    summaries = _lifecycle_summaries(project, shared)
    sink: dict[str, list[Finding]] = {
        "RPR109": [],
        "RPR110": [],
        "RPR111": [],
    }
    for function in project.all_functions():
        module = project.by_relpath[function.module]
        _check_function(module, function, project, summaries, shared, sink)
    shared["lifecycle_findings"] = sink
    return sink


class _LifecycleRule(ProjectRule):
    """Shared driver: one typestate pass serves all three rules."""

    def check_modules(
        self, modules: Sequence[Module], shared: dict
    ) -> Iterator[Finding]:
        yield from _lifecycle_findings(modules, shared)[self.code]


class ResourceLeakRule(_LifecycleRule):
    code = "RPR109"
    name = "resource-leak-on-path"
    rationale = (
        "an owned resource (mmap matrix file, WorkerPool, executor, file, "
        "span/context frame, cleanup callable) must be released or have "
        "its ownership transfer declared (`Owns:`/`Borrows:`) on every "
        "path — including exception edges, early returns, and "
        "loop-carried rebinding; a long-lived serving process never "
        "gets the interpreter-exit amnesty"
    )
    example = (
        "    segment = MmapSegment(path)\n"
        "    segment.write(matrix.tobytes())   # RPR109\n"
        "    # a raise above leaks the temp file\n"
        "fix: wrap the write in try/except that closes+unlinks and\n"
        "re-raises, or hand the segment to a declared `Owns:` sink"
    )


class UseAfterReleaseRule(_LifecycleRule):
    code = "RPR110"
    name = "use-after-release"
    rationale = (
        "attribute access or re-dispatch on a resource that every path "
        "has already fully released (closed pool, unlinked file, "
        "called cleanup) raises at best and touches recycled state at "
        "worst; the check fires only on must-released facts, never on "
        "may-paths"
    )
    example = (
        "    pool.close()\n"
        "    pool.map_chunks(task, chunks)   # RPR110\n"
        "fix: dispatch before closing, or re-acquire via get_pool()"
    )


class ReleaseProtocolRule(_LifecycleRule):
    code = "RPR111"
    name = "release-protocol-violation"
    rationale = (
        "release steps are ordered state machines: a matrix file is "
        "close-then-unlink, never unlink-first and never twice; a "
        "`Borrows:` parameter must not be released at all — the caller "
        "still owns it"
    )
    example = (
        "    segment.unlink()   # RPR111: unlink before close\n"
        "    segment.close()\n"
        "fix: apply the protocol's steps in order (close -> unlink)"
    )


def default_lifecycle_rules() -> list[ProjectRule]:
    """Fresh instances of the typestate rules, in code order."""
    return [ResourceLeakRule(), UseAfterReleaseRule(), ReleaseProtocolRule()]
