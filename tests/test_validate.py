"""Tests for vectorized FD validation (group keys, violations)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import registry
from repro.engine import get_backend
from repro.fd import FD, attrset
from repro.metrics.error import violation_profile
from repro.relation import Relation, fd_holds, find_violation, group_keys, preprocess


def rel_of(rows):
    return preprocess(Relation.from_rows(rows))


class TestGroupKeys:
    def test_single_column(self):
        data = rel_of([(1,), (2,), (1,)])
        keys = group_keys(data, 0b1)
        assert keys[0] == keys[2] != keys[1]

    def test_multi_column(self):
        data = rel_of([(1, "a"), (1, "b"), (1, "a")])
        keys = group_keys(data, 0b11)
        assert keys[0] == keys[2] != keys[1]

    def test_empty_lhs_groups_everything(self):
        data = rel_of([(1,), (2,)])
        assert list(group_keys(data, 0)) == [0, 0]

    def test_empty_relation(self):
        data = preprocess(Relation.from_rows([], ["a"]))
        assert group_keys(data, 0b1).size == 0

    def test_fold_survives_many_columns(self):
        # 40 columns of cardinality 8 overflow a naive fold; the
        # re-densification path must keep grouping exact.
        import random

        rng = random.Random(2)
        rows = [tuple(rng.randint(0, 7) for _ in range(40)) for _ in range(30)]
        rows.append(rows[0])  # guarantee one true duplicate group
        data = rel_of(rows)
        keys = group_keys(data, attrset.universe(40))
        groups: dict[int, list[int]] = {}
        for row, key in enumerate(keys):
            groups.setdefault(int(key), []).append(row)
        expected: dict[tuple, list[int]] = {}
        for row_index, row in enumerate(rows):
            expected.setdefault(row, []).append(row_index)
        assert sorted(map(tuple, groups.values())) == sorted(
            map(tuple, expected.values())
        )


class TestFdHolds:
    def test_valid(self):
        data = rel_of([(1, "a"), (2, "b"), (1, "a")])
        assert fd_holds(data, FD.of([0], 1))

    def test_invalid(self):
        data = rel_of([(1, "a"), (1, "b")])
        assert not fd_holds(data, FD.of([0], 1))

    def test_empty_lhs_constant_column(self):
        data = rel_of([(1, "c"), (2, "c")])
        assert fd_holds(data, FD(0, 1))
        assert not fd_holds(data, FD(0, 0))

    def test_tiny_relations_always_hold(self):
        assert fd_holds(preprocess(Relation.from_rows([], ["a"])), FD(0, 0))
        assert fd_holds(rel_of([(1, 2)]), FD.of([0], 1))


class TestFindViolation:
    def test_returns_witness(self):
        data = rel_of([(1, "a"), (2, "x"), (1, "b")])
        witness = find_violation(data, FD.of([0], 1))
        assert witness is not None
        row_a, row_b = witness
        assert {row_a, row_b} == {0, 2}

    def test_none_when_valid(self):
        data = rel_of([(1, "a"), (2, "b")])
        assert find_violation(data, FD.of([0], 1)) is None

    def test_witness_actually_violates(self):
        import random

        rng = random.Random(8)
        rows = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(25)]
        data = rel_of(rows)
        for lhs in range(1, 8):
            for rhs in range(3):
                if (lhs >> rhs) & 1:
                    continue
                witness = find_violation(data, FD(lhs, rhs))
                if witness is None:
                    assert fd_holds(data, FD(lhs, rhs))
                else:
                    row_a, row_b = witness
                    agree = data.agree_mask(row_a, row_b)
                    assert lhs & ~agree == 0  # agree on all of LHS
                    assert not (agree >> rhs) & 1  # differ on RHS


class TestFoldOverflow:
    """Regression: every fold step, RHS included, carries the width guard.

    Historically ``fd_holds`` folded ``keys * rhs_cardinality + rhs``
    without a re-densify, and ``violation_profile`` kept doing so after
    the validation kernels were fixed: on wide high-cardinality
    relations the product wrapped 64 bits and two distinct (key, rhs)
    combinations could collide — making a violated FD look valid.
    """

    @staticmethod
    def wide_relation():
        # 61 LHS columns whose positional fold reaches 2**61 exactly, and
        # an 8-label RHS: the unguarded fold computes 2**61 * 8 == 2**64,
        # which wraps to 0 and collides with the key-0 group.  Values are
        # introduced in increasing order so label == value.
        width = 62
        zeros = (0,) * 60
        ones = (1,) * 60
        rows = [
            (0, *zeros, 0),  # key 0
            (0, *zeros, 1),  # key 0  -> the one true violation
            (1, *ones, 2),  # key 2**61 - 1
            (2, *zeros, 1),  # key 2**61: wraps onto the row above's slot
        ]
        # fillers raising RHS cardinality to 8, each with a unique key
        for i, rhs in enumerate((3, 4, 5, 6, 7)):
            middle = [0] * 60
            middle[i] = 1
            rows.append((1, *middle, rhs))
        return preprocess(Relation.from_rows(rows, [f"c{i}" for i in range(width)]))

    def test_construction_is_in_the_overflow_regime(self):
        data = self.wide_relation()
        # the positional fold over the 61 LHS columns needs 2**61 + 1 key
        # values, so it crosses the width guard before the RHS fold
        domain = 1
        for j in range(61):
            domain *= data.cardinality(j)
        assert domain == 3 * 2**60
        assert data.cardinality(61) == 8
        # an unguarded fold really does collide: distinct counts come
        # out equal even though the FD is violated
        keys = np.zeros(data.num_rows, dtype=np.uint64)
        for j in range(61):
            keys = keys * np.uint64(data.cardinality(j)) + data.matrix[:, j]
        wrapped = keys * np.uint64(8) + data.matrix[:, 61]
        assert np.unique(wrapped).size == np.unique(keys).size

    def test_fd_holds_is_exact_despite_overflow(self):
        data = self.wide_relation()
        fd = FD(attrset.universe(61), 61)
        assert not fd_holds(data, fd)
        witness = find_violation(data, fd)
        assert witness is not None
        row_a, row_b = witness
        agree = data.agree_mask(row_a, row_b)
        assert fd.lhs & ~agree == 0
        assert not (agree >> fd.rhs) & 1
        profile = violation_profile(data, fd)
        assert profile.violating_pairs == 1
        assert profile.g3 == pytest.approx(1 / 9)


class TestWitness:
    def test_witness_is_deterministic_and_violating(self):
        data = preprocess(registry.make("echocardiogram", rows=100, seed=3))
        python = get_backend("python")
        for lhs in range(1, 2 ** min(4, data.num_columns)):
            for rhs in range(data.num_columns):
                if (lhs >> rhs) & 1:
                    continue
                pair = find_violation(data, FD(lhs, rhs))
                assert pair == find_violation(data, FD(lhs, rhs))
                reference = python.witness(data, python.group_keys(data, lhs), rhs)
                assert (pair is None) == (reference is None)
                if pair is not None:
                    agree = data.agree_mask(*pair)
                    assert lhs & ~agree == 0
                    assert not (agree >> rhs) & 1

    def test_single_row_relation(self):
        data = rel_of([("x", "y")])
        assert find_violation(data, FD.of([0], 1)) is None
        assert fd_holds(data, FD.of([0], 1))


class TestAgainstNaive:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=25,
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=150)
    def test_fd_holds_matches_naive(self, rows, lhs, rhs):
        relation = Relation.from_rows(rows, ["a", "b", "c"])
        data = preprocess(relation)
        fd = FD(lhs, rhs)
        groups: dict[tuple, set[int]] = {}
        columns = list(attrset.to_indices(lhs))
        for row in rows:
            key = tuple(row[c] for c in columns)
            groups.setdefault(key, set()).add(row[rhs])
        naive = all(len(values) == 1 for values in groups.values())
        assert fd_holds(data, fd) == naive
