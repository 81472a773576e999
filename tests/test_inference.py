"""Tests for Armstrong-axiom inference (closure, keys, implication, BCNF)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd import FD, attrset, inference


def fds_of(*pairs):
    return [FD.of(lhs, rhs) for lhs, rhs in pairs]


class TestClosure:
    def test_reflexive(self):
        assert inference.closure(0b101, []) == 0b101

    def test_single_step(self):
        fds = fds_of(([0], 1))
        assert inference.closure(0b001, fds) == 0b011

    def test_transitive_chain(self):
        fds = fds_of(([0], 1), ([1], 2), ([2], 3))
        assert inference.closure(0b0001, fds) == 0b1111

    def test_composite_lhs_requires_all(self):
        fds = fds_of(([0, 1], 2))
        assert inference.closure(0b001, fds) == 0b001
        assert inference.closure(0b011, fds) == 0b111

    def test_empty_lhs_fd_always_fires(self):
        fds = [FD(0, 2)]
        assert inference.closure(0, fds) == 0b100


class TestImplication:
    def test_direct(self):
        fds = fds_of(([0], 1))
        assert inference.implies(fds, FD.of([0], 1))

    def test_augmented(self):
        fds = fds_of(([0], 1))
        assert inference.implies(fds, FD.of([0, 2], 1))

    def test_transitive(self):
        fds = fds_of(([0], 1), ([1], 2))
        assert inference.implies(fds, FD.of([0], 2))

    def test_not_implied(self):
        fds = fds_of(([0], 1))
        assert not inference.implies(fds, FD.of([1], 0))

    def test_equivalent_covers(self):
        left = fds_of(([0], 1), ([1], 2))
        right = fds_of(([0], 1), ([1], 2), ([0], 2))  # redundant extra
        assert inference.equivalent(left, right)

    def test_inequivalent_covers(self):
        assert not inference.equivalent(fds_of(([0], 1)), fds_of(([1], 0)))


class TestKeys:
    def test_candidate_key_single(self):
        fds = fds_of(([0], 1), ([0], 2))
        assert inference.candidate_keys(3, fds) == [0b001]

    def test_candidate_key_requires_undetermined_attributes(self):
        # Attribute 2 appears on no RHS: every key must contain it.
        fds = fds_of(([2], 0), ([2], 1))
        assert inference.candidate_keys(3, fds) == [0b100]

    def test_multiple_keys(self):
        # 0 <-> 1 equivalent, both determine 2.
        fds = fds_of(([0], 1), ([1], 0), ([0], 2))
        keys = inference.candidate_keys(3, fds)
        assert sorted(keys) == [0b001, 0b010]

    def test_no_fds_whole_schema_is_key(self):
        assert inference.candidate_keys(3, []) == [0b111]

    def test_limit(self):
        fds = fds_of(([0], 2), ([1], 2))
        # With no FDs into 0/1, the key is {0,1}; limit still respected.
        keys = inference.candidate_keys(3, fds, limit=1)
        assert len(keys) == 1


class TestDeterminants:
    def test_direct_determinants(self):
        fds = fds_of(([1], 0), ([2], 3))
        assert inference.determinants_of(0, fds, 4) == {1}

    def test_transitive_determinants(self):
        # 2 -> 1 and 1 -> 0: attribute 2 reaches 0 through 1.
        fds = fds_of(([1], 0), ([2], 1))
        assert inference.determinants_of(0, fds, 3) == {1, 2}

    def test_target_excluded(self):
        fds = fds_of(([0, 1], 2), ([2], 0))
        assert 0 not in inference.determinants_of(0, fds, 3)

    def test_unrelated_attributes_ignored(self):
        fds = fds_of(([1], 2))
        assert inference.determinants_of(0, fds, 3) == set()


class TestBCNF:
    def test_decompose_textbook(self):
        # R(0,1,2) with 1 -> 2: split into {1,2} and {0,1}.
        fds = fds_of(([1], 2))
        fragments = inference.bcnf_decompose(3, fds)
        assert sorted(fragments) == [0b011, 0b110]

    def test_decompose_no_violations_returns_whole(self):
        fds = fds_of(([0], 1), ([0], 2))
        assert inference.bcnf_decompose(3, fds) == [0b111]

    def test_decomposition_fragments_cover_schema(self):
        fds = fds_of(([1], 2), ([3], 4), ([0], 3))
        fragments = inference.bcnf_decompose(5, fds)
        union = 0
        for fragment in fragments:
            union |= fragment
        assert union == attrset.universe(5)

    def test_fragments_are_in_bcnf(self):
        fds = fds_of(([1], 2), ([3], 4), ([0], 3))
        fragments = inference.bcnf_decompose(5, fds)
        for fragment in fragments:
            for fd in fds:
                in_fragment = (
                    attrset.is_subset(fd.lhs, fragment)
                    and attrset.contains(fragment, fd.rhs)
                )
                if in_fragment and not attrset.contains(fd.lhs, fd.rhs):
                    closure = inference.closure(fd.lhs, fds)
                    assert closure & fragment == fragment


class TestClosureProperties:
    small_fds = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 5) - 1),
            st.integers(min_value=0, max_value=4),
        ).map(lambda pair: FD(*pair)),
        max_size=12,
    )
    small_masks = st.integers(min_value=0, max_value=(1 << 5) - 1)

    @given(small_masks, small_fds)
    @settings(max_examples=120)
    def test_closure_is_monotone_and_idempotent(self, mask, fds):
        closed = inference.closure(mask, fds)
        assert attrset.is_subset(mask, closed)
        assert inference.closure(closed, fds) == closed

    @given(small_masks, small_masks, small_fds)
    @settings(max_examples=120)
    def test_closure_monotone_in_argument(self, a, b, fds):
        union = a | b
        assert attrset.is_subset(
            inference.closure(a, fds), inference.closure(union, fds)
        )
