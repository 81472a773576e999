"""Tests for the extended binary LHS tree (Section IV-D)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.binary_tree import BinaryLhsTree

masks = st.integers(min_value=0, max_value=(1 << 10) - 1)


def supersets(stored: list[int], query: int) -> list[int]:
    return sorted(mask for mask in set(stored) if query & ~mask == 0)


def subsets(stored: list[int], query: int) -> list[int]:
    return sorted(mask for mask in set(stored) if mask & ~query == 0)


class TestStructure:
    def test_empty_tree(self):
        tree = BinaryLhsTree()
        assert len(tree) == 0
        assert list(tree) == []
        assert tree.depth() == 0
        assert not tree.contains_superset(0)
        assert not tree.contains_subset(0b1)

    def test_single_leaf(self):
        tree = BinaryLhsTree([0b101])
        assert len(tree) == 1
        assert tree.depth() == 1
        assert 0b101 in tree

    def test_split_on_insert(self):
        tree = BinaryLhsTree([0b101, 0b100])
        assert len(tree) == 2
        assert tree.depth() == 2
        assert 0b101 in tree and 0b100 in tree

    def test_duplicate_insert_is_noop(self):
        tree = BinaryLhsTree([0b11])
        assert not tree.add(0b11)
        assert len(tree) == 1

    def test_remove_leaf_collapses_parent(self):
        tree = BinaryLhsTree([0b01, 0b10, 0b11])
        assert tree.remove(0b10)
        assert len(tree) == 2
        tree.check_invariants()

    def test_remove_root_leaf(self):
        tree = BinaryLhsTree([0b1])
        assert tree.remove(0b1)
        assert len(tree) == 0
        assert tree.depth() == 0

    def test_remove_absent(self):
        tree = BinaryLhsTree([0b01, 0b10])
        assert not tree.remove(0b11)
        assert len(tree) == 2

    def test_empty_mask_lives_alongside_others(self):
        tree = BinaryLhsTree([0, 0b111])
        assert 0 in tree
        assert tree.contains_subset(0b1)
        tree.check_invariants()

    def test_invariants_after_mixed_operations(self):
        tree = BinaryLhsTree()
        for mask in (0b0011, 0b0101, 0b1001, 0b1111, 0b0000, 0b0110):
            tree.add(mask)
        tree.check_invariants()
        tree.remove(0b0101)
        tree.remove(0b1111)
        tree.check_invariants()
        assert sorted(tree) == sorted({0b0011, 0b1001, 0b0000, 0b0110})


class TestAttributePriority:
    def test_default_priority_uses_lowest_index(self):
        tree = BinaryLhsTree()
        tree.add(0b001)
        tree.add(0b100)
        assert tree._root is not None and tree._root.attr == 0


class TestPaperExample:
    """Figure 4: Ncover-tree construction for RHS N.

    LHS masks over attributes (N=0, A=1, B=2, G=3, M=4); the stored
    non-FD LHSs are AMB, MBG, AG.
    """

    AMB = 0b10110  # {A, M, B}
    MBG = 0b11100  # {M, B, G}
    AG = 0b01010  # {A, G}
    BG = 0b01100  # {B, G}

    def build(self) -> BinaryLhsTree:
        return BinaryLhsTree([self.AMB, self.MBG, self.AG])

    def test_bg_is_specialized_by_mbg(self):
        tree = self.build()
        assert tree.contains_superset(self.BG)

    def test_ag_not_specialized_before_insert(self):
        tree = BinaryLhsTree([self.AMB, self.MBG])
        assert not tree.contains_superset(self.AG)

    def test_contents(self):
        assert sorted(self.build()) == sorted([self.AMB, self.MBG, self.AG])

    def test_invariants(self):
        self.build().check_invariants()


class TestEquivalenceWithBitsetIndex:
    """The tree must agree with a plain list of the stored masks."""

    @given(st.lists(masks, max_size=40), masks)
    @settings(max_examples=200)
    def test_same_query_results(self, stored, query):
        tree = BinaryLhsTree(iter(stored))
        assert len(tree) == len(set(stored))
        assert list(tree) == sorted(set(stored))
        assert tree.find_supersets(query) == supersets(stored, query)
        assert tree.find_subsets(query) == subsets(stored, query)
        assert tree.contains_superset(query) == bool(supersets(stored, query))
        assert tree.contains_subset(query) == bool(subsets(stored, query))
        tree.check_invariants()

    @given(
        st.lists(st.tuples(st.booleans(), masks), max_size=60),
        masks,
    )
    @settings(max_examples=200)
    def test_same_results_under_interleaved_removal(self, operations, query):
        tree = BinaryLhsTree()
        reference: list[int] = []
        for is_add, mask in operations:
            present = mask in reference
            if is_add:
                assert tree.add(mask) == (not present)
                if not present:
                    reference.append(mask)
            else:
                assert tree.remove(mask) == present
                if present:
                    reference.remove(mask)
        tree.check_invariants()
        assert list(tree) == sorted(reference)
        assert tree.find_supersets(query) == supersets(reference, query)
        assert tree.find_subsets(query) == subsets(reference, query)

    @given(st.lists(masks, min_size=1, max_size=40))
    def test_membership(self, stored):
        tree = BinaryLhsTree(iter(stored))
        for mask in stored:
            assert mask in tree
        absent = max(stored) + 1
        assert (absent in tree) == (absent in set(stored))


class TestDepthBound:
    def test_depth_bounded_by_attribute_count(self):
        # Path attributes are distinct, so depth <= attributes + 1.
        tree = BinaryLhsTree(iter(range(256)))
        assert tree.depth() <= 9
