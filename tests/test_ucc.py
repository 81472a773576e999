"""Tests for minimal unique column combination discovery."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.ucc import discover_uccs, minimal_transversals_levelwise
from repro.fd import attrset
from repro.relation import Relation


def naive_minimal_uccs(rows: list[tuple], num_columns: int) -> set[int]:
    universe = attrset.universe(num_columns)
    unique_masks = []
    for mask in attrset.all_subsets(universe):
        columns = list(attrset.to_indices(mask))
        projections = [tuple(row[c] for c in columns) for row in rows]
        if len(set(projections)) == len(projections):
            unique_masks.append(mask)
    minimal: set[int] = set()
    for mask in sorted(unique_masks, key=attrset.size):
        if not any(attrset.is_subset(kept, mask) for kept in minimal):
            minimal.add(mask)
    return minimal


def naive_minimal_hitting_sets(edges: list[int], vertices: int) -> set[int]:
    if any(edge == 0 for edge in edges):
        return set()
    hitting = [
        mask
        for mask in attrset.all_subsets(vertices)
        if all(edge & mask for edge in edges)
    ]
    minimal: set[int] = set()
    for mask in sorted(hitting, key=attrset.size):
        if not any(attrset.is_subset(kept, mask) for kept in minimal):
            minimal.add(mask)
    return minimal


class TestMinimalTransversals:
    def test_no_edges_means_empty_transversal(self):
        assert minimal_transversals_levelwise([], 0b111) == [0]

    def test_unhittable_edge(self):
        assert minimal_transversals_levelwise([0], 0b111) == []

    def test_textbook_instance(self):
        # Edges {a,b}, {b,c}: minimal hitting sets {b}, {a,c}.
        edges = [0b011, 0b110]
        expected = {0b010, 0b101}
        assert set(minimal_transversals_levelwise(edges, 0b111)) == expected

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 7) - 1), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive(self, edges):
        vertices = (1 << 7) - 1
        expected = naive_minimal_hitting_sets(edges, vertices) if edges else {0}
        assert set(minimal_transversals_levelwise(edges, vertices)) == expected


class TestPatients:
    def test_candidate_keys(self, patient_relation):
        result = discover_uccs(patient_relation)
        expected = {
            attrset.from_indices([0]),           # Name
            attrset.from_indices([1, 2, 3]),     # Age, Blood, Gender
            attrset.from_indices([1, 3, 4]),     # Age, Gender, Medicine
        }
        assert set(result.uccs) == expected

    def test_formatting(self, patient_relation):
        formatted = discover_uccs(patient_relation).format()
        assert "{Name}" in formatted

    def test_metadata(self, patient_relation):
        result = discover_uccs(patient_relation)
        assert result.num_rows == 9
        assert result.runtime_seconds >= 0
        assert len(result) == 3


class TestDegenerate:
    def test_empty_relation_trivially_unique(self):
        result = discover_uccs(Relation.from_rows([], ["a", "b"]))
        assert set(result.uccs) == {attrset.EMPTY}

    def test_single_row(self):
        result = discover_uccs(Relation.from_rows([(1, 2)], ["a", "b"]))
        assert set(result.uccs) == {attrset.EMPTY}

    def test_duplicate_rows_have_no_ucc(self):
        result = discover_uccs(Relation.from_rows([(1, 2), (1, 2)], ["a", "b"]))
        assert set(result.uccs) == set()

    def test_key_column(self):
        result = discover_uccs(
            Relation.from_rows([(1, "x"), (2, "x"), (3, "x")], ["k", "c"])
        )
        assert set(result.uccs) == {attrset.singleton(0)}

    def test_null_semantics(self):
        relation = Relation.from_rows([(None,), (None,)], ["a"])
        equal = discover_uccs(relation, null_equals_null=True)
        distinct = discover_uccs(relation, null_equals_null=False)
        assert set(equal.uccs) == set()  # the NULLs collide
        assert set(distinct.uccs) == {attrset.singleton(0)}


class TestAgainstNaive:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=2,
            max_size=18,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_exhaustive(self, rows):
        relation = Relation.from_rows(rows, ["a", "b", "c", "d"])
        result = discover_uccs(relation)
        assert set(result.uccs) == naive_minimal_uccs(rows, 4)
