"""Tests for the classic FD-tree (set-trie) index."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd import FD, FDTreeIndex, NegativeCover
from repro.fd.lhs_index import BitsetLhsIndex

masks = st.integers(min_value=0, max_value=(1 << 10) - 1)


class TestBasics:
    def test_empty(self):
        trie = FDTreeIndex()
        assert len(trie) == 0
        assert not trie.contains_subset(0b111)
        assert not trie.contains_superset(0)
        assert list(trie) == []

    def test_add_contains(self):
        trie = FDTreeIndex([0b101])
        assert 0b101 in trie
        assert 0b111 not in trie
        assert len(trie) == 1

    def test_duplicate_add(self):
        trie = FDTreeIndex([0b11])
        assert not trie.add(0b11)
        assert len(trie) == 1

    def test_prefix_sets_coexist(self):
        trie = FDTreeIndex([0b001, 0b011])
        assert 0b001 in trie
        assert 0b011 in trie
        assert len(trie) == 2

    def test_remove_keeps_prefix(self):
        trie = FDTreeIndex([0b001, 0b011])
        assert trie.remove(0b011)
        assert 0b001 in trie
        assert 0b011 not in trie

    def test_remove_absent(self):
        trie = FDTreeIndex([0b001])
        assert not trie.remove(0b011)
        assert not trie.remove(0b010)

    def test_empty_mask(self):
        trie = FDTreeIndex([0])
        assert 0 in trie
        assert trie.contains_subset(0b101)
        assert trie.contains_superset(0)


class TestQueries:
    def test_superset_and_subset(self):
        trie = FDTreeIndex([0b0110, 0b1001])
        assert trie.contains_superset(0b0010)
        assert not trie.contains_superset(0b0011)
        assert trie.contains_subset(0b1111)
        assert trie.contains_subset(0b1011)
        assert not trie.contains_subset(0b0011)

    def test_find_queries(self):
        trie = FDTreeIndex([0b001, 0b011, 0b110])
        assert trie.find_subsets(0b011) == [0b001, 0b011]
        assert trie.find_supersets(0b010) == [0b011, 0b110]


class TestEquivalenceWithReference:
    @given(st.lists(masks, max_size=40), masks)
    @settings(max_examples=200)
    def test_queries_match_bitset_index(self, stored, query):
        trie = FDTreeIndex(iter(stored))
        reference = BitsetLhsIndex(iter(stored))
        assert len(trie) == len(reference)
        assert list(trie) == list(reference)
        assert trie.find_supersets(query) == reference.find_supersets(query)
        assert trie.find_subsets(query) == reference.find_subsets(query)
        assert trie.contains_superset(query) == reference.contains_superset(query)
        assert trie.contains_subset(query) == reference.contains_subset(query)

    @given(st.lists(st.tuples(st.booleans(), masks), max_size=50))
    @settings(max_examples=150)
    def test_mutation_matches_bitset_index(self, operations):
        trie = FDTreeIndex()
        reference = BitsetLhsIndex()
        for is_add, mask in operations:
            if is_add:
                assert trie.add(mask) == reference.add(mask)
            else:
                assert trie.remove(mask) == reference.remove(mask)
        assert list(trie) == list(reference)


class TestAsCoverIndex:
    def test_negative_cover_index_swapped_to_fdtree(self, patient_relation):
        """The negative cover is index-agnostic: EulerFD's result is
        identical when its index is the classic FD-tree."""
        from repro.core import EulerFD
        from repro.fd import covers

        baseline = EulerFD().discover(patient_relation).fds
        original = covers.default_index_factory
        covers.default_index_factory = FDTreeIndex
        try:
            with_fdtree = EulerFD().discover(patient_relation).fds
        finally:
            covers.default_index_factory = original
        assert with_fdtree == baseline

    def test_direct_cover_usage(self):
        cover = NegativeCover(3, index_factory=FDTreeIndex)
        assert cover.add(FD.of([0], 2))
        assert not cover.add(FD(0, 2))  # generalizes the stored {0}
        assert cover.covers(FD(0, 2)) and len(cover) == 1
