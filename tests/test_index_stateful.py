"""Stateful property testing of the two LHS trees.

A hypothesis rule-based machine drives random add/remove/query sequences
against the extended binary tree and the FD-tree simultaneously and a
plain-set model; any divergence in any operation is a bug in one of them.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.fd import BinaryLhsTree, FDTreeIndex

MASKS = st.integers(min_value=0, max_value=(1 << 8) - 1)


class IndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model: set[int] = set()
        self.indexes = {
            "binary": BinaryLhsTree(),
            "trie": FDTreeIndex(),
        }

    @rule(mask=MASKS)
    def add(self, mask):
        expected = mask not in self.model
        self.model.add(mask)
        for name, index in self.indexes.items():
            assert index.add(mask) == expected, name

    @rule(mask=MASKS)
    def remove(self, mask):
        expected = mask in self.model
        self.model.discard(mask)
        for name, index in self.indexes.items():
            assert index.remove(mask) == expected, name

    @rule(query=MASKS)
    def query_supersets(self, query):
        expected = sorted(m for m in self.model if query & ~m == 0)
        for name, index in self.indexes.items():
            assert index.find_supersets(query) == expected, name
            assert index.contains_superset(query) == bool(expected), name

    @rule(query=MASKS)
    def query_subsets(self, query):
        expected = sorted(m for m in self.model if m & ~query == 0)
        for name, index in self.indexes.items():
            assert index.find_subsets(query) == expected, name
            assert index.contains_subset(query) == bool(expected), name

    @invariant()
    def sizes_and_contents_agree(self):
        expected = sorted(self.model)
        for name, index in self.indexes.items():
            assert len(index) == len(self.model), name
            assert list(index) == expected, name
        tree = self.indexes["binary"]
        tree.check_invariants()


IndexMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
TestIndexes = IndexMachine.TestCase
