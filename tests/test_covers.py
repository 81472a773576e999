"""Tests for the negative and positive covers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd import (
    FD,
    NegativeCover,
    PositiveCover,
    attribute_frequency_priority,
    attrset,
    minimal_cover_from_fds,
)

# Attribute initials of the paper's patient schema: N=0, A=1, B=2, G=3, M=4.
N, A, B, G, M = range(5)


class TestNegativeCover:
    def test_requires_positive_width(self):
        with pytest.raises(ValueError):
            NegativeCover(0)

    def test_add_and_contains(self):
        cover = NegativeCover(5)
        assert cover.add(FD.of([A, B], M))
        assert FD.of([A, B], M) in cover
        assert len(cover) == 1

    def test_rejects_trivial(self):
        cover = NegativeCover(3)
        with pytest.raises(ValueError):
            cover.add(FD.of([0, 1], 1))

    def test_generalization_is_redundant(self):
        """Figure 4: BG -/-> N is discarded because MBG -/-> N exists."""
        cover = NegativeCover(5)
        cover.add(FD.of([M, B, G], N))
        assert not cover.add(FD.of([B, G], N))
        assert len(cover) == 1

    def test_specialization_evicts_generalization(self):
        cover = NegativeCover(5)
        cover.add(FD.of([B, G], N))
        assert cover.add(FD.of([M, B, G], N))
        assert len(cover) == 1
        assert FD.of([B, G], N) not in cover
        assert FD.of([M, B, G], N) in cover

    def test_duplicate_is_rejected(self):
        cover = NegativeCover(5)
        cover.add(FD.of([A], B))
        assert not cover.add(FD.of([A], B))

    def test_same_lhs_different_rhs_kept_separately(self):
        cover = NegativeCover(5)
        assert cover.add(FD.of([A], B))
        assert cover.add(FD.of([A], M))
        assert len(cover) == 2

    def test_covers_generalizations(self):
        cover = NegativeCover(5)
        cover.add(FD.of([A, B, G], M))
        assert cover.covers(FD.of([A, B], M))  # Lemma 1
        assert cover.covers(FD.of([A, B, G], M))
        assert not cover.covers(FD.of([A, B, M], N))

    def test_add_violations_counts_growth(self):
        cover = NegativeCover(5)
        pending: list[FD] = []
        a, ag = attrset.from_indices([A]), attrset.from_indices([A, G])
        b, bm = attrset.from_indices([B]), attrset.from_indices([B, M])
        assert cover.add_violations(a, bm, pending) == 2
        assert cover.add_violations(a, b, pending) == 0  # duplicate
        # a specialization grows the cover by evicting its generalization
        assert cover.add_violations(ag, b, pending) == 1
        assert pending == [FD.of([A], B), FD.of([A], M), FD.of([A, G], B)]
        assert set(cover) == {FD.of([A], M), FD.of([A, G], B)}

    def test_add_empty_lhs_seeds_every_varying_column(self):
        cover = NegativeCover(4)
        pending: list[FD] = []
        assert cover.add_empty_lhs((1, 5, 0, 2), pending) == 2
        assert pending == [FD(0, 1), FD(0, 3)]

    def test_iteration_yields_fds(self):
        cover = NegativeCover(3)
        cover.add(FD.of([0], 1))
        cover.add(FD.of([1], 2))
        assert set(cover) == {FD.of([0], 1), FD.of([1], 2)}

    def test_paper_figure4_contents(self):
        """Alg. 2 on AMB, MBG, BG, AG -> N keeps exactly AMB, MBG, AG."""
        cover = NegativeCover(5)
        for lhs in ([A, M, B], [M, B, G], [B, G], [A, G]):
            cover.add(FD.of(lhs, N))
        assert set(cover) == {
            FD.of([A, M, B], N),
            FD.of([M, B, G], N),
            FD.of([A, G], N),
        }


class TestNegativeCoverAntichain:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 6) - 1),
                st.integers(min_value=0, max_value=6),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=150)
    def test_stored_masks_form_antichain_of_maxima(self, raw):
        cover = NegativeCover(7)
        inserted: set[tuple[int, int]] = set()
        for lhs, rhs in raw:
            lhs &= ~(1 << rhs)  # keep non-trivial
            cover.add(FD(lhs, rhs))
            inserted.add((lhs, rhs))
        for rhs in range(7):
            stored = cover.lhs_masks(rhs)
            # Antichain: no stored mask contains another.
            for left in stored:
                for right in stored:
                    if left != right:
                        assert left & ~right != 0
            # Maxima: every stored mask was inserted, and every inserted
            # mask is covered by some stored one.
            originals = {lhs for lhs, r in inserted if r == rhs}
            assert set(stored) <= originals
            for lhs in originals:
                assert any(lhs & ~kept == 0 for kept in stored)


class TestPositiveCover:
    def test_seeded_with_most_general(self):
        cover = PositiveCover(3)
        assert len(cover) == 3
        assert FD(0, 0) in cover and FD(0, 2) in cover

    def test_add_blocked_by_generalization(self):
        cover = PositiveCover(4)
        # {} -> {1}, {2}
        assert cover.specialize(FD.of([0], 3)) == ([0], [0b010, 0b100])
        # {1} is invalid; {1, 0} is new but {1, 2} is blocked by {2}.
        assert cover.specialize(FD.of([1], 3)) == ([0b010], [0b011])
        assert cover.lhs_masks(3) == [0b011, 0b100]
        assert len(cover) == 5

    def test_remove(self):
        cover = PositiveCover(3)
        assert cover.specialize(FD(0, 1)) == ([0], [0b001, 0b100])
        assert FD(0, 1) not in cover
        assert cover.specialize(FD(0, 1)) == ([], [])
        assert len(cover) == 4

    def test_find_generalizations(self):
        cover = PositiveCover(4)
        cover.specialize(FD(0, 3))  # {} -> {0}, {1}, {2}
        # {0} and {1} generalize {0, 1}; both extensions by 2 are blocked.
        assert cover.specialize(FD.of([0, 1], 3)) == ([0b001, 0b010], [])
        assert cover.lhs_masks(3) == [0b100]
        assert cover.lhs_masks(1) == [0]

    def test_rejects_trivial(self):
        cover = PositiveCover(3)
        with pytest.raises(ValueError):
            cover.specialize(FD.of([1], 1))

    def test_iterates_by_rhs_then_lhs(self):
        cover = PositiveCover(3)
        cover.specialize(FD(0, 2))
        cover.specialize(FD(0, 0))
        assert [(fd.rhs, fd.lhs) for fd in cover] == [
            (0, 0b010), (0, 0b100), (1, 0), (2, 0b001), (2, 0b010),
        ]

    def test_membership_across_words(self):
        cover = PositiveCover(70)
        removed, added = cover.specialize(FD(0, 69))
        assert removed == [0]
        assert added == [1 << attribute for attribute in range(69)]
        assert FD.of([64], 69) in cover and FD.of([63], 69) in cover
        assert FD.of([63, 64], 69) not in cover
        assert FD.of([70], 69) not in cover  # outside the universe
        assert len(cover.lhs_masks(69)) == 69


class TestMinimalCoverFromFds:
    def test_drops_trivial(self):
        fds = [FD.of([0, 1], 1), FD.of([0], 2)]
        assert minimal_cover_from_fds(fds, 3) == {FD.of([0], 2)}

    def test_drops_dominated(self):
        fds = [FD.of([0], 2), FD.of([0, 1], 2)]
        assert minimal_cover_from_fds(fds, 3) == {FD.of([0], 2)}

    def test_keeps_incomparable(self):
        fds = [FD.of([0], 2), FD.of([1], 2)]
        assert minimal_cover_from_fds(fds, 3) == set(fds)

    def test_empty(self):
        assert minimal_cover_from_fds([], 3) == set()


class TestAttributeFrequencyPriority:
    def test_rare_attributes_ranked_first(self):
        non_fds = [FD.of([0, 1], 2), FD.of([0], 2), FD.of([0, 1], 3)]
        priority = attribute_frequency_priority(non_fds, 4)
        # Attribute 0 appears 3x, 1 appears 2x, 2/3 never.
        assert priority[2] < priority[0]
        assert priority[3] < priority[1] < priority[0]

    def test_ties_break_by_index(self):
        priority = attribute_frequency_priority([], 3)
        assert list(priority) == [0, 1, 2]
