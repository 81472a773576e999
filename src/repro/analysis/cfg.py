"""Intraprocedural control-flow graphs for the dataflow rules.

:func:`build_cfg` lowers one function body into basic blocks connected
by labelled edges.  The graph is deliberately simple — the dataflow
rule (RPR107) needs branch-sensitive statement order, not an
optimizing compiler's IR:

* **simple statements** (assignments, calls, returns …) accumulate in a
  block's ``statements`` list in source order;
* a block ending in a **conditional** carries the test expression in
  ``test`` and two outgoing edges labelled ``"true"``/``"false"``;
* a **loop head** block carries the ``ast.For`` node in ``loop`` (the
  target/iter binding, *not* the body — the body is its own region of
  blocks with a back edge), so transfer functions bind the loop variable
  without double-walking the body;
* ``try`` bodies get a coarse ``"except"`` edge from every block in the
  protected region to each handler — any statement may raise, so the
  handler entry state is the join of the whole region;
* a ``finally`` body is lowered once, entered from the try's normal
  exits and by an ``"except"`` edge from every block of the region;
* ``return``/``raise``/``break``/``continue`` terminate their block with
  an edge to the function exit or the enclosing loop's head/after block
  (all four skip pending ``finally`` bodies — a documented coarseness).

Comprehensions stay expressions: their internal iteration is atomic from
the rules' point of view (the provenance domains classify the whole
expression), so they never become blocks.

The synthetic exit block is always last and carries no statements;
:meth:`CFG.render` prints a stable textual form the golden tests pin.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: symbolic edge target for "function exit" while the graph is being
#: built; patched to the real exit block index at the end.
_EXIT = -1


@dataclass
class Block:
    """One basic block: straight-line statements plus labelled edges."""

    index: int
    statements: list[ast.AST] = field(default_factory=list)
    """Simple statements in source order (may include ``ast.withitem``
    and ``ast.ExceptHandler`` binder nodes for ``with``/``except``)."""
    test: ast.expr | None = None
    """Branch condition when the block ends in ``if``/``while``."""
    loop: ast.For | None = None
    """The ``for`` node when this block is a for-loop head."""
    successors: list[tuple[int, str]] = field(default_factory=list)
    """(target block index, edge label) pairs; labels are ``""`` for
    unconditional fall-through, ``"true"``/``"false"`` for branches,
    ``"back"`` for loop back edges, ``"except"`` for handler entry."""


@dataclass
class CFG:
    """A function's control-flow graph; ``blocks[-1]`` is the exit."""

    name: str
    blocks: list[Block]

    @property
    def entry(self) -> int:
        return 0

    @property
    def exit(self) -> int:
        return len(self.blocks) - 1

    def render(self) -> str:
        """Deterministic textual form, pinned by the golden tests."""
        lines = []
        for block in self.blocks:
            parts = [_describe(node) for node in block.statements]
            if block.loop is not None:
                parts.append(
                    f"for {ast.unparse(block.loop.target)} "
                    f"in {ast.unparse(block.loop.iter)}"
                )
            if block.test is not None:
                parts.append(f"test {ast.unparse(block.test)}")
            body = "; ".join(parts) if parts else "<empty>"
            if block.index == self.exit:
                body = "<exit>"
            edges = " ".join(
                f"{label}:B{target}" if label else f"B{target}"
                for target, label in block.successors
            )
            arrow = f" -> {edges}" if edges else ""
            lines.append(f"B{block.index}: [{body}]{arrow}")
        return "\n".join(lines)


def _describe(node: ast.AST) -> str:
    if isinstance(node, ast.withitem):
        rendered = f"with {ast.unparse(node.context_expr)}"
        if node.optional_vars is not None:
            rendered += f" as {ast.unparse(node.optional_vars)}"
        return rendered
    if isinstance(node, ast.ExceptHandler):
        rendered = "except"
        if node.type is not None:
            rendered += f" {ast.unparse(node.type)}"
        if node.name:
            rendered += f" as {node.name}"
        return rendered
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return f"def {node.name}"
    if isinstance(node, ast.ClassDef):
        return f"class {node.name}"
    return ast.unparse(node)


def shallow_exprs(node: ast.AST) -> list[ast.expr]:
    """The expressions a block statement evaluates *in this block*.

    Compound regions already lowered elsewhere are skipped: a stored
    ``ast.For`` loop head contributes only its iterable and target, a
    nested ``def`` only its decorators and defaults (its body is a
    different scope), a ``with`` binder only the context expression.
    Everything else is a genuinely simple statement whose whole subtree
    belongs to the block.
    """
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, ast.withitem):
        return [node.context_expr]
    if isinstance(node, ast.ExceptHandler):
        return [node.type] if node.type is not None else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        out: list[ast.expr] = list(node.decorator_list)
        out.extend(d for d in node.args.defaults)
        out.extend(d for d in node.args.kw_defaults if d is not None)
        return out
    if isinstance(node, ast.ClassDef):
        return list(node.decorator_list) + list(node.bases)
    if isinstance(node, ast.expr):
        return [node]
    return [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.expr)]


class _Builder:
    def __init__(self) -> None:
        self.blocks: list[Block] = []
        # (loop head index, loop after index) for break/continue targets
        self.loop_stack: list[tuple[int, int]] = []
        # blocks belonging to open try regions, outermost first
        self.try_regions: list[list[int]] = []

    def new_block(self) -> int:
        block = Block(index=len(self.blocks))
        self.blocks.append(block)
        for region in self.try_regions:
            region.append(block.index)
        return block.index

    def edge(self, source: int, target: int, label: str = "") -> None:
        pair = (target, label)
        if pair not in self.blocks[source].successors:
            self.blocks[source].successors.append(pair)

    def build_body(self, statements: list[ast.stmt], current: int | None) -> int | None:
        """Lower a statement list; returns the live exit block or None."""
        for statement in statements:
            if current is None:
                # unreachable code after return/raise/break; still lower
                # it (rules should see it) into a predecessor-less block.
                current = self.new_block()
            current = self._lower(statement, current)
        return current

    def _lower(self, statement: ast.stmt, current: int) -> int | None:
        if isinstance(statement, ast.If):
            return self._lower_if(statement, current)
        if isinstance(statement, ast.While):
            return self._lower_while(statement, current)
        if isinstance(statement, ast.For):
            return self._lower_for(statement, current)
        if isinstance(statement, ast.AsyncFor):
            return self._lower_for(statement, current)  # same shape
        if isinstance(statement, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._lower_try(statement, current)
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            return self._lower_with(statement, current)
        if isinstance(statement, ast.Match):
            return self._lower_match(statement, current)
        if isinstance(statement, (ast.Return, ast.Raise)):
            self.blocks[current].statements.append(statement)
            self.edge(current, _EXIT)
            return None
        if isinstance(statement, ast.Break):
            if self.loop_stack:
                self.edge(current, self.loop_stack[-1][1])
            return None
        if isinstance(statement, ast.Continue):
            if self.loop_stack:
                self.edge(current, self.loop_stack[-1][0], "back")
            return None
        self.blocks[current].statements.append(statement)
        return current

    def _lower_if(self, statement: ast.If, current: int) -> int | None:
        self.blocks[current].test = statement.test
        then_entry = self.new_block()
        self.edge(current, then_entry, "true")
        then_exit = self.build_body(statement.body, then_entry)
        else_exit: int | None
        if statement.orelse:
            else_entry = self.new_block()
            self.edge(current, else_entry, "false")
            else_exit = self.build_body(statement.orelse, else_entry)
        else:
            else_exit = current  # false edge added to the join below
        if then_exit is None and else_exit is None:
            return None
        join = self.new_block()
        if then_exit is not None:
            self.edge(then_exit, join)
        if else_exit is not None:
            label = "false" if else_exit is current else ""
            self.edge(else_exit, join, label)
        return join

    def _lower_while(self, statement: ast.While, current: int) -> int:
        head = self.new_block()
        self.edge(current, head)
        self.blocks[head].test = statement.test
        after = self.new_block()
        body_entry = self.new_block()
        self.edge(head, body_entry, "true")
        self.loop_stack.append((head, after))
        body_exit = self.build_body(statement.body, body_entry)
        self.loop_stack.pop()
        if body_exit is not None:
            self.edge(body_exit, head, "back")
        if statement.orelse:
            else_entry = self.new_block()
            self.edge(head, else_entry, "false")
            else_exit = self.build_body(statement.orelse, else_entry)
            if else_exit is not None:
                self.edge(else_exit, after)
        else:
            self.edge(head, after, "false")
        return after

    def _lower_for(self, statement: ast.For | ast.AsyncFor, current: int) -> int:
        head = self.new_block()
        self.edge(current, head)
        self.blocks[head].loop = statement  # type: ignore[assignment]
        after = self.new_block()
        body_entry = self.new_block()
        self.edge(head, body_entry, "true")
        self.loop_stack.append((head, after))
        body_exit = self.build_body(statement.body, body_entry)
        self.loop_stack.pop()
        if body_exit is not None:
            self.edge(body_exit, head, "back")
        if statement.orelse:
            else_entry = self.new_block()
            self.edge(head, else_entry, "false")
            else_exit = self.build_body(statement.orelse, else_entry)
            if else_exit is not None:
                self.edge(else_exit, after)
        else:
            self.edge(head, after, "false")
        return after

    def _lower_try(self, statement: ast.Try, current: int) -> int | None:
        body_entry = self.new_block()
        self.edge(current, body_entry)
        region: list[int] = [body_entry]
        self.try_regions.append(region)
        body_exit = self.build_body(statement.body, body_entry)
        if body_exit is not None and statement.orelse:
            body_exit = self.build_body(statement.orelse, body_exit)
        self.try_regions.pop()
        handler_exits: list[int | None] = []
        handler_entries: list[int] = []
        for handler in statement.handlers:
            handler_entry = self.new_block()
            handler_entries.append(handler_entry)
            self.blocks[handler_entry].statements.append(handler)
            handler_exits.append(self.build_body(handler.body, handler_entry))
        for block_index in region:
            for handler_entry in handler_entries:
                self.edge(block_index, handler_entry, "except")
        exits = [body_exit, *handler_exits]
        live = [index for index in exits if index is not None]
        if statement.finalbody:
            final_entry = self.new_block()
            for index in live:
                self.edge(index, final_entry)
            # any statement of the region may raise into the finally
            for block_index in region:
                self.edge(block_index, final_entry, "except")
            final_exit = self.build_body(statement.finalbody, final_entry)
            if live:
                return final_exit
            # only the exceptional path runs it: it re-raises to the exit
            if final_exit is not None:
                self.edge(final_exit, _EXIT)
            return None
        if not live:
            return None
        if len(live) == 1:
            return live[0]
        join = self.new_block()
        for index in live:
            self.edge(index, join)
        return join

    def _lower_with(self, statement: ast.With | ast.AsyncWith, current: int) -> int | None:
        for item in statement.items:
            self.blocks[current].statements.append(item)
        return self.build_body(statement.body, current)

    def _lower_match(self, statement: ast.Match, current: int) -> int | None:
        self.blocks[current].statements.append(
            ast.Expr(value=statement.subject)
        )
        exits: list[int] = []
        fell_through = False
        for case in statement.cases:
            case_entry = self.new_block()
            self.edge(current, case_entry, "true")
            case_exit = self.build_body(case.body, case_entry)
            if case_exit is not None:
                exits.append(case_exit)
            if case.pattern is not None and _is_wildcard(case.pattern):
                fell_through = True
        join = self.new_block()
        if not fell_through:
            self.edge(current, join, "false")
        for index in exits:
            self.edge(index, join)
        return join


def _is_wildcard(pattern: ast.pattern) -> bool:
    return isinstance(pattern, ast.MatchAs) and pattern.pattern is None


def build_cfg(function: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> CFG:
    """Lower one function definition (or lambda) into a :class:`CFG`."""
    builder = _Builder()
    entry = builder.new_block()
    if isinstance(function, ast.Lambda):
        body: list[ast.stmt] = [ast.Return(value=function.body)]
        name = "<lambda>"
    else:
        body = function.body
        name = function.name
    last = builder.build_body(body, entry)
    exit_index = builder.new_block()
    if last is not None:
        builder.edge(last, exit_index)
    for block in builder.blocks:
        block.successors = [
            (exit_index if target == _EXIT else target, label)
            for target, label in block.successors
        ]
    # drop the duplicate the exit-patch may have introduced
    for block in builder.blocks:
        seen: list[tuple[int, str]] = []
        for pair in block.successors:
            if pair not in seen:
                seen.append(pair)
        block.successors = seen
    return CFG(name=name, blocks=builder.blocks)
