"""Tests for the negative and positive covers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd import FD, NegativeCover, PositiveCover, attrset
from repro.obs import collecting_metrics
from repro.obs.names import NCOVER_ADDED, NCOVER_GENERALIZATIONS_EVICTED

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


class _ListCover:
    """Algorithm 2's insertion over one plain list of LHS masks per RHS."""

    def __init__(self, num_attributes: int) -> None:
        self.lhs: list[list[int]] = [[] for _ in range(num_attributes)]
        self.added = 0
        self.evicted = 0

    def add_violations(self, agree: int, rhs_mask: int, pending: list[FD]) -> int:
        grown = 0
        for rhs in attrset.to_indices(rhs_mask):
            stored = self.lhs[rhs]
            if any(agree & ~lhs == 0 for lhs in stored):
                continue  # a stored specialization covers it
            kept = [lhs for lhs in stored if lhs & ~agree]
            self.evicted += len(stored) - len(kept)
            self.lhs[rhs] = kept + [agree]
            pending.append(FD(agree, rhs))
            grown += 1
        self.added += grown
        return grown


def intake_calls(width: int):
    """``(agree, rhs_mask)`` calls over ``width`` attributes, masks disjoint.

    Masks draw from at most seven attributes, often ones next to a 64-bit
    word boundary, so that calls specialize and generalize each other
    across words.
    """
    edges = [a for a in (0, 62, 63, 64, 65, 127, 128, 129) if a < width]
    attribute = st.one_of(st.integers(0, width - 1), st.sampled_from(edges))
    active = st.lists(attribute, min_size=1, max_size=7, unique=True)

    def calls(attributes: list[int]):
        picks = st.lists(
            st.booleans(), min_size=len(attributes), max_size=len(attributes)
        )
        masks = picks.map(
            lambda chosen: attrset.from_indices(
                a for a, pick in zip(attributes, chosen) if pick
            )
        )
        return st.lists(st.tuples(masks, masks), min_size=10, max_size=60).map(
            lambda pairs: [(agree, rhs & ~agree) for agree, rhs in pairs]
        )

    return active.flatmap(calls)


class TestNegativeCoverAntichain:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 63, 64, 65, 130])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_intake_matches_per_rhs_list_oracle(self, width, data):
        calls = data.draw(intake_calls(width))
        cover, oracle = NegativeCover(width), _ListCover(width)
        pending: list[FD] = []
        expected: list[FD] = []
        with collecting_metrics() as registry:
            for agree, rhs_mask in calls:
                grown = cover.add_violations(agree, rhs_mask, pending)
                assert grown == oracle.add_violations(agree, rhs_mask, expected)
                assert pending == expected
        stored = sorted(
            (rhs, lhs) for rhs, masks in enumerate(oracle.lhs) for lhs in masks
        )
        assert [(fd.rhs, fd.lhs) for fd in cover] == stored
        assert len(cover) == len(stored)
        for agree, rhs_mask in calls:
            for rhs in attrset.to_indices(rhs_mask):
                assert cover.covers(FD(agree, rhs))
        assert registry.counters.get(NCOVER_ADDED, 0) == oracle.added
        evicted = registry.counters.get(NCOVER_GENERALIZATIONS_EVICTED, 0)
        assert evicted == oracle.evicted

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
