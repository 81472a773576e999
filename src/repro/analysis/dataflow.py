"""Generic forward dataflow over :mod:`repro.analysis.cfg` graphs.

A :class:`ForwardAnalysis` supplies the abstract domain — initial state,
join, equality, per-statement transfer — and :func:`run_forward` computes
the least fixpoint with a worklist.  The domain must have finite ascent
(RPR107's taint sets only grow toward the origins a function contains),
so plain joins terminate without widening.

States must be treated as immutable: transfer functions return fresh
values and never mutate their argument, otherwise the fixpoint's
convergence test lies.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterator

from .cfg import CFG

_MAX_SWEEPS = 64
"""Hard per-block visit bound; a backstop, not a tuning knob — any
monotone finite-ascent domain converges far earlier."""


class ForwardAnalysis:
    """Abstract domain + transfer functions for :func:`run_forward`.

    The default state shape is a ``dict`` environment; subclasses may use
    anything as long as ``join``/``equals``/``transfer`` agree on it.
    """

    def initial(self, cfg: CFG) -> object:
        """Entry state (conventionally an empty environment)."""
        return {}

    def join(self, left: object, right: object) -> object:
        raise NotImplementedError

    def equals(self, left: object, right: object) -> bool:
        return left == right

    def transfer(self, state: object, node: ast.AST) -> object:
        """State after one simple statement; must not mutate ``state``."""
        return state

    def transfer_loop(self, state: object, node: ast.For) -> object:
        """State after binding a for-loop target on the ``true`` edge."""
        return state


def block_output(analysis: ForwardAnalysis, state: object, block) -> object:
    """Push a block input state through every statement of the block."""
    for node in block.statements:
        state = analysis.transfer(state, node)
    return state


def run_forward(cfg: CFG, analysis: ForwardAnalysis) -> list[object]:
    """Input state of every block at the fixpoint (None = unreachable)."""
    count = len(cfg.blocks)
    in_states: list[object] = [None] * count
    in_states[cfg.entry] = analysis.initial(cfg)
    visits = [0] * count
    work: deque[int] = deque([cfg.entry])
    queued = {cfg.entry}
    while work:
        index = work.popleft()
        queued.discard(index)
        state = in_states[index]
        if state is None:
            continue
        visits[index] += 1
        if visits[index] > _MAX_SWEEPS:
            continue
        block = cfg.blocks[index]
        out = block_output(analysis, state, block)
        for target, label in block.successors:
            edge_state = out
            if block.loop is not None and label == "true":
                edge_state = analysis.transfer_loop(out, block.loop)
            existing = in_states[target]
            if existing is None:
                merged = edge_state
            else:
                merged = analysis.join(existing, edge_state)
            if existing is None or not analysis.equals(merged, existing):
                in_states[target] = merged
                if target not in queued:
                    work.append(target)
                    queued.add(target)
    return in_states


def statement_states(
    cfg: CFG, in_states: list[object], analysis: ForwardAnalysis
) -> Iterator[tuple[ast.AST, object]]:
    """(node, state-before-node) for every reachable statement site.

    Loop heads yield their ``ast.For`` node (state before the target
    binding) and branch blocks yield their test expression, so rules can
    inspect every expression the function evaluates exactly once, each
    under the state that actually reaches it.
    """
    for block in cfg.blocks:
        state = in_states[block.index]
        if state is None:
            continue
        for node in block.statements:
            yield node, state
            state = analysis.transfer(state, node)
        if block.loop is not None:
            yield block.loop, state
        if block.test is not None:
            yield block.test, state
