"""Tests for the g1/g2/g3 violation measures."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd import FD, attrset
from repro.metrics import violation_profile
from repro.relation import Relation, fd_holds, preprocess


def data_of(rows):
    return preprocess(Relation.from_rows(rows))


class TestHandComputed:
    def test_exact_fd_has_zero_errors(self):
        data = data_of([(1, "a"), (2, "b"), (1, "a")])
        profile = violation_profile(data, FD.of([0], 1))
        assert profile.holds
        assert profile.g1 == profile.g2 == profile.g3 == 0.0

    def test_single_violation(self):
        # Group {rows 0, 1} under lhs value 1: values a, b -> one bad pair.
        data = data_of([(1, "a"), (1, "b"), (2, "c")])
        profile = violation_profile(data, FD.of([0], 1))
        assert profile.violating_pairs == 1
        assert profile.violating_tuples == 2
        assert profile.tuples_to_remove == 1
        assert profile.g1 == 1 / 3  # 3 total pairs
        assert profile.g2 == 2 / 3
        assert profile.g3 == 1 / 3

    def test_majority_value_kept_for_g3(self):
        # Group of 5: values a, a, a, b, c -> remove 2 tuples.
        rows = [(1, v) for v in "aaabc"]
        data = data_of(rows)
        profile = violation_profile(data, FD.of([0], 1))
        assert profile.tuples_to_remove == 2
        assert profile.violating_pairs == 3 * 1 + 3 * 1 + 1  # ab*3, ac*3, bc

    def test_multiple_groups(self):
        rows = [(1, "x"), (1, "y"), (2, "x"), (2, "x"), (3, "z")]
        data = data_of(rows)
        profile = violation_profile(data, FD.of([0], 1))
        assert profile.violating_pairs == 1
        assert profile.violating_tuples == 2
        assert profile.tuples_to_remove == 1

    def test_empty_lhs(self):
        data = data_of([(1, "a"), (2, "a"), (3, "b")])
        profile = violation_profile(data, FD(0, 1))
        assert profile.violating_pairs == 2  # (a,b) twice
        assert profile.tuples_to_remove == 1

    def test_empty_relation(self):
        data = preprocess(Relation.from_rows([], ["a", "b"]))
        profile = violation_profile(data, FD.of([0], 1))
        assert profile.g1 == profile.g2 == profile.g3 == 0.0

    def test_paper_g_not_m(self):
        """G -/-> M on the patient data (Example 1)."""
        from repro.datasets import patients

        data = preprocess(patients())
        profile = violation_profile(data, FD.of([3], 4))
        assert not profile.holds
        assert profile.g3 > 0


class TestConsistencyProperties:
    small_rows = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=20,
    )

    @given(small_rows, st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=120)
    def test_holds_iff_fd_holds(self, rows, lhs, rhs):
        relation = Relation.from_rows(rows, ["a", "b", "c"])
        data = preprocess(relation)
        fd = FD(lhs & ~attrset.singleton(rhs), rhs)
        profile = violation_profile(data, fd)
        assert profile.holds == fd_holds(data, fd)
        assert (profile.g3 == 0.0) == profile.holds

    @given(small_rows, st.integers(min_value=0, max_value=2))
    @settings(max_examples=120)
    def test_g3_matches_naive(self, rows, rhs):
        relation = Relation.from_rows(rows, ["a", "b", "c"])
        data = preprocess(relation)
        lhs = attrset.universe(3) & ~attrset.singleton(rhs) & 0b011
        fd = FD(lhs & ~attrset.singleton(rhs), rhs)
        groups: dict[tuple, dict[int, int]] = {}
        columns = list(attrset.to_indices(fd.lhs))
        for row in rows:
            key = tuple(row[c] for c in columns)
            counter = groups.setdefault(key, {})
            counter[row[rhs]] = counter.get(row[rhs], 0) + 1
        expected = sum(
            sum(counts.values()) - max(counts.values())
            for counts in groups.values()
        )
        assert violation_profile(data, fd).tuples_to_remove == expected

    @given(small_rows, st.integers(min_value=0, max_value=2))
    @settings(max_examples=100)
    def test_g3_shrinks_with_larger_lhs(self, rows, rhs):
        """Adding attributes to the LHS can only reduce violations."""
        relation = Relation.from_rows(rows, ["a", "b", "c"])
        data = preprocess(relation)
        others = [i for i in range(3) if i != rhs]
        small = FD(attrset.singleton(others[0]), rhs)
        large = FD(attrset.from_indices(others), rhs)
        assert (
            violation_profile(data, large).g3
            <= violation_profile(data, small).g3
        )
