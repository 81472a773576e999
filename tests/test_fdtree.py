"""Tests for the classic FD-tree (set-trie) index."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd import FDTreeIndex

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
    """The trie must agree with a plain list of the stored masks."""

    @given(st.lists(masks, max_size=40), masks)
    @settings(max_examples=200)
    def test_queries_match_bitset_index(self, stored, query):
        trie = FDTreeIndex(iter(stored))
        supersets = sorted(mask for mask in set(stored) if query & ~mask == 0)
        subsets = sorted(mask for mask in set(stored) if mask & ~query == 0)
        assert len(trie) == len(set(stored))
        assert list(trie) == sorted(set(stored))
        assert trie.find_supersets(query) == supersets
        assert trie.find_subsets(query) == subsets
        assert trie.contains_superset(query) == bool(supersets)
        assert trie.contains_subset(query) == bool(subsets)

    @given(st.lists(st.tuples(st.booleans(), masks), max_size=50))
    @settings(max_examples=150)
    def test_mutation_matches_bitset_index(self, operations):
        trie = FDTreeIndex()
        reference: list[int] = []
        for is_add, mask in operations:
            present = mask in reference
            if is_add:
                assert trie.add(mask) == (not present)
                if not present:
                    reference.append(mask)
            else:
                assert trie.remove(mask) == present
                if present:
                    reference.remove(mask)
        assert list(trie) == sorted(reference)
