"""Tests for the inversion module (Algorithm 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inversion import InversionStats, Inverter
from repro.fd import FD, NegativeCover, PositiveCover, attrset, sort_for_cover_insertion
from repro.fd.covers import _join, _split

# Patient attribute initials: N=0, A=1, B=2, G=3, M=4.
N, A, B, G, M = range(5)


def minimal_escaping_sets(non_fd_lhss: list[int], num_attributes: int, rhs: int):
    """Oracle: minimal LHSs (without rhs) not contained in any invalid LHS."""
    allowed = attrset.universe(num_attributes) & ~attrset.singleton(rhs)
    escaping = [
        mask
        for mask in attrset.all_subsets(allowed)
        if not any(mask & ~bad == 0 for bad in non_fd_lhss)
    ]
    minimal = set()
    for mask in sorted(escaping, key=attrset.size):
        if not any(attrset.is_subset(kept, mask) for kept in minimal):
            minimal.add(mask)
    return minimal


def reference_inversion(
    batches: list[list[FD]], num_attributes: int
) -> tuple[list[FD], int, int]:
    """Algorithm 3 verbatim over a plain list of int LHSs per RHS.

    Each batch is taken in the inverter's order, so the removed/added
    counts it returns with the (rhs, lhs)-ordered cover are comparable.
    """
    universe = attrset.universe(num_attributes)
    cover = [[attrset.EMPTY] for _ in range(num_attributes)]
    removed = added = 0
    for batch in batches:
        for non_fd in sort_for_cover_insertion(batch):
            stored = cover[non_fd.rhs]
            extensions = universe & ~non_fd.lhs & ~attrset.singleton(non_fd.rhs)
            for general in [lhs for lhs in stored if lhs & ~non_fd.lhs == 0]:
                stored.remove(general)
                removed += 1
                for index in attrset.to_indices(extensions):
                    candidate = attrset.add(general, index)
                    if not any(lhs & ~candidate == 0 for lhs in stored):
                        stored.append(candidate)
                        added += 1
    fds = [FD(lhs, rhs) for rhs, stored in enumerate(cover) for lhs in sorted(stored)]
    return fds, removed, added


def single_bit_differences(
    survivors: list[np.ndarray], generals: list[np.ndarray]
) -> list[np.ndarray]:
    """Per general ``g``: the OR of every ``L & ~g`` that is one bit.

    ``L`` ranges over ``survivors``; one array per word, one entry per
    general, from a full (general × survivor) product.
    """
    differences = [
        kept[np.newaxis, :] & ~general[:, np.newaxis]
        for kept, general in zip(survivors, generals)
    ]
    first = differences[0]
    single = (first & (first - np.uint64(1))) == 0
    occupied = first != 0
    for difference in differences[1:]:
        nonzero = difference != 0
        single &= ((difference & (difference - np.uint64(1))) == 0) & ~(
            occupied & nonzero
        )
        occupied |= nonzero
    return [
        np.bitwise_or.reduce(difference, axis=1, where=single)
        for difference in differences
    ]


class ReferenceCover:
    """The one-non-FD-at-a-time positive cover the rounds replaced.

    One set of word arrays per RHS.  :meth:`specialize` applies one
    non-FD to its RHS's arrays, comparing each general with every
    survivor of that RHS: the reference the round step must equal.
    """

    def __init__(self, num_attributes: int) -> None:
        width = -(-num_attributes // 64)
        self.universe = attrset.universe(num_attributes)
        self.words = [
            [np.zeros(1, dtype=np.uint64) for _ in range(width)]
            for _ in range(num_attributes)
        ]

    def specialize(self, non_fd: FD) -> tuple[list[int], list[int]]:
        rhs = non_fd.rhs
        words = self.words[rhs]
        outside = _split([self.universe & ~non_fd.lhs], len(words))
        invalid = np.logical_and.reduce(
            [(word & out) == 0 for word, out in zip(words, outside)]
        )
        if not invalid.any():
            return [], []
        survivors = [word[~invalid] for word in words]
        generals = [word[invalid] for word in words]
        blocked = single_bit_differences(survivors, generals)
        extensions = self.universe & ~non_fd.lhs & ~attrset.singleton(rhs)
        removed = _join(generals)
        fresh: list[int] = []
        for general, covered in zip(removed, _join(blocked)):
            free = extensions & ~covered
            while free:
                bit = free & -free
                free ^= bit
                fresh.append(general | bit)
        added = _split(fresh, len(words))
        self.words[rhs] = [
            np.concatenate((kept, new)) for kept, new in zip(survivors, added)
        ]
        return removed, fresh

    def process(self, non_fds: list[FD]) -> tuple[InversionStats, list]:
        """One batch in cover-insertion order: its stats and its edits."""
        stats, edits = InversionStats(), []
        for non_fd in sort_for_cover_insertion(non_fds):
            removed, added = self.specialize(non_fd)
            if removed:
                edits.append((non_fd.rhs, removed, added))
            stats.non_fds_processed += 1
            stats.candidates_removed += len(removed)
            stats.candidates_added += len(added)
        return stats, edits

    def lhs_masks(self, rhs: int) -> list[int]:
        return sorted(_join(self.words[rhs]))


def per_rhs(edits) -> dict[int, list]:
    """Each RHS's ``(removed, added)`` edits, in the order they came."""
    grouped: dict[int, list] = {}
    for rhs, removed, added in edits:
        grouped.setdefault(rhs, []).append((removed, added))
    return grouped


def replay_edits(fds: set[FD], edits) -> None:
    """Apply an inverter's ``(rhs, removed, added)`` edits in order.

    Every removed FD must be in ``fds`` and every added one must not.
    """
    for rhs, removed, added in edits:
        for lhs in removed:
            fds.remove(FD(lhs, rhs))
        for lhs in added:
            assert FD(lhs, rhs) not in fds
            fds.add(FD(lhs, rhs))


def wide_non_fds(width: int):
    """Non-FD lists over ``width`` attributes, biased to word boundaries.

    Attributes come mostly from a small pool on both sides of each word
    boundary, so LHSs overlap; an LHS is either a few attributes or all
    but a few, which keeps the covers small enough for the reference.
    """
    pool = [a for a in (0, 1, 62, 63, 64, 65, 127, 128, 129) if a < width]
    attribute = st.sampled_from(pool) | st.integers(min_value=0, max_value=width - 1)
    few = st.frozensets(attribute, max_size=3).map(attrset.from_indices)
    universe = attrset.universe(width)
    lhs = few | few.map(lambda mask: universe & ~mask)
    return st.lists(attribute, min_size=1, max_size=2).flatmap(
        lambda rhss: st.lists(
            st.tuples(lhs, st.sampled_from(rhss)).map(
                lambda pair: FD(pair[0] & ~attrset.singleton(pair[1]), pair[1])
            ),
            max_size=8,
        )
    )


def mixed_batches(width: int):
    """Batches of non-FDs over two to four RHSs, in unequal numbers.

    LHSs are built as in :func:`wide_non_fds`, from attributes next to
    the word boundaries; each non-FD picks its RHS from the batch's.
    """
    pool = [a for a in (0, 1, 2, 3, 4, 62, 63, 64, 65, 127, 128, 129) if a < width]
    attribute = st.sampled_from(pool) | st.integers(min_value=0, max_value=width - 1)
    few = st.frozensets(attribute, max_size=3).map(attrset.from_indices)
    universe = attrset.universe(width)
    lhs = few | few.map(lambda mask: universe & ~mask)

    def batches(rhss: list[int]):
        non_fd = st.tuples(lhs, st.sampled_from(rhss)).map(
            lambda pair: FD(pair[0] & ~attrset.singleton(pair[1]), pair[1])
        )
        return st.lists(st.lists(non_fd, max_size=12), min_size=1, max_size=3)

    rhss = st.lists(attribute, min_size=2, max_size=4, unique=True)
    return rhss.flatmap(batches)


class TestPaperFigure5:
    """Inversion for RHS Name with non-FDs MBG, AG, AMB (Fig. 5)."""

    def run_inversion(self):
        inverter = Inverter(5)
        non_fds = [FD.of([M, B, G], N), FD.of([A, G], N), FD.of([A, M, B], N)]
        stats = inverter.process(non_fds)
        return inverter, stats

    def test_final_cover_matches_figure(self):
        inverter, _ = self.run_inversion()
        got = set(inverter.pcover.lhs_masks(N))
        expected = {
            attrset.from_indices([A, B, G]),
            attrset.from_indices([A, M, G]),
        }
        assert got == expected

    def test_most_general_candidate_removed(self):
        inverter, _ = self.run_inversion()
        assert FD(0, N) not in inverter.pcover

    def test_other_rhs_untouched(self):
        inverter, _ = self.run_inversion()
        assert FD(0, A) in inverter.pcover  # still the seeded {} -> A

    def test_stats_counted(self):
        _, stats = self.run_inversion()
        assert stats.non_fds_processed == 3
        assert stats.candidates_removed >= 3
        assert stats.candidates_added >= 2


class TestIncrementalEquivalence:
    """Processing non-FDs in one batch or in arbitrary splits/orders must
    produce the same positive cover (the property the double cycle relies
    on)."""

    def test_split_processing_matches_batch(self):
        non_fds = [FD.of([M, B, G], N), FD.of([A, G], N), FD.of([A, M, B], N)]
        batch = Inverter(5)
        batch.process(non_fds)
        split = Inverter(5)
        split.process(non_fds[:1])
        split.process(non_fds[1:])
        assert set(batch.pcover) == set(split.pcover)

    def test_order_independence(self):
        non_fds = [FD.of([M, B, G], N), FD.of([A, G], N), FD.of([A, M, B], N)]
        forward = Inverter(5)
        forward.process(non_fds)
        backward = Inverter(5)
        backward.process(list(reversed(non_fds)))
        assert set(forward.pcover) == set(backward.pcover)

    def test_reprocessing_is_idempotent(self):
        non_fds = [FD.of([A, G], N), FD.of([M, B, G], N)]
        inverter = Inverter(5)
        inverter.process(non_fds)
        snapshot = set(inverter.pcover)
        edits: list = []
        stats = inverter.process(non_fds, edits)
        assert set(inverter.pcover) == snapshot
        assert stats.candidates_removed == 0
        assert edits == []  # only a change of the cover is an edit


class TestAgainstOracle:
    masks6 = st.integers(min_value=0, max_value=(1 << 6) - 1)

    @given(st.lists(masks6, max_size=14), st.integers(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_inversion_computes_minimal_escaping_family(self, lhss, rhs):
        rhs_bit = attrset.singleton(rhs)
        non_fds = [FD(lhs & ~rhs_bit, rhs) for lhs in lhss]
        inverter = Inverter(6)
        inverter.process(non_fds)
        expected = minimal_escaping_sets(
            [fd.lhs for fd in non_fds], 6, rhs
        )
        assert set(inverter.pcover.lhs_masks(rhs)) == expected

    @given(
        st.lists(st.tuples(masks6, st.integers(min_value=0, max_value=5)),
                 max_size=20),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_incremental_matches_batch_random_split(self, raw, data):
        non_fds = [FD(lhs & ~attrset.singleton(rhs), rhs) for lhs, rhs in raw]
        cut = data.draw(st.integers(min_value=0, max_value=len(non_fds)))
        batch = Inverter(6)
        batch.process(non_fds)
        split = Inverter(6)
        split.process(non_fds[:cut])
        split.process(non_fds[cut:])
        assert set(batch.pcover) == set(split.pcover)


class TestNegativeCoverIntegration:
    def test_inverting_cover_contents_prunes_redundant_non_fds(self):
        """Feeding a cover's minimized contents equals feeding everything."""
        raw = [
            FD.of([A, M, B], N), FD.of([B, G], N), FD.of([M, B, G], N),
            FD.of([A, G], N), FD.of([A], B), FD.of([A, G], B),
        ]
        cover = NegativeCover(5)
        admitted = [fd for fd in raw if cover.add(fd)]
        from_cover = Inverter(5)
        from_cover.process(cover)
        from_raw = Inverter(5)
        from_raw.process(raw)
        assert set(from_cover.pcover) == set(from_raw.pcover)
        assert len(admitted) <= len(raw)


class TestAcrossWordBoundaries:
    """The word store against the reference at 1, 2 and 3 words."""

    @pytest.mark.parametrize("width", [63, 64, 65, 128, 130])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_reference_inversion(self, width, data):
        non_fds = data.draw(wide_non_fds(width))
        cut = data.draw(st.integers(min_value=0, max_value=len(non_fds)))
        batches = [non_fds[:cut], non_fds[cut:]]
        inverter = Inverter(width)
        edits: list = []
        stats = [inverter.process(batch, edits) for batch in batches]
        expected, removed, added = reference_inversion(batches, width)
        assert list(inverter.pcover) == expected
        replayed = set(Inverter(width).pcover)
        replay_edits(replayed, edits)
        assert replayed == set(inverter.pcover)
        assert sum(len(lhss) for _, lhss, _ in edits) == removed
        assert sum(len(lhss) for _, _, lhss in edits) == added
        assert len(inverter.pcover) == len(expected)
        assert sum(s.candidates_removed for s in stats) == removed
        assert sum(s.candidates_added for s in stats) == added
        assert all(fd in inverter.pcover for fd in expected)

    def test_two_word_difference_blocks_nothing(self):
        """A survivor {x, 64} differs from the general {2} by one bit in
        each of two words, so it blocks no extension of {2}."""
        width, rhs = 66, 65
        everything_but = attrset.universe(width) & ~attrset.from_indices([2, 64, rhs])
        non_fds = [
            FD(0, rhs),
            FD.of([1, 64], rhs),
            FD(everything_but, rhs),  # leaves {2} and every {x, 64}
            FD.of([2], rhs),
        ]
        inverter = Inverter(width)
        for non_fd in non_fds:
            inverter.process([non_fd])
        expected, _, _ = reference_inversion([[fd] for fd in non_fds], width)
        assert list(inverter.pcover) == expected
        assert FD.of([2, 64], rhs) in inverter.pcover
        assert FD.of([0, 2], rhs) in inverter.pcover


class TestRoundsMatchOneAtATime:
    """The round step against :class:`ReferenceCover`, after every batch."""

    @pytest.mark.parametrize("width", [5, 63, 64, 65, 128, 130])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_batch_matches_the_reference(self, width, data):
        batches = data.draw(mixed_batches(width))
        inverter, reference = Inverter(width), ReferenceCover(width)
        for batch in batches:
            edits: list = []
            stats = inverter.process(batch, edits)
            expected_stats, expected_edits = reference.process(batch)
            assert stats == expected_stats
            for rhs in range(width):
                assert inverter.pcover.lhs_masks(rhs) == reference.lhs_masks(rhs)
            # Each RHS sees the same non-FDs in the same order, so its own
            # edits are the reference's, entry for entry.
            assert per_rhs(edits) == per_rhs(expected_edits)
            for side in (1, 2):
                got = {FD(lhs, edit[0]) for edit in edits for lhs in edit[side]}
                want = {
                    FD(lhs, edit[0]) for edit in expected_edits for lhs in edit[side]
                }
                assert got == want
            assert len(inverter.pcover) == sum(
                len(reference.lhs_masks(rhs)) for rhs in range(width)
            )


class TestRounds:
    def test_survivor_two_bits_outside_blocks_nothing(self):
        """{1, 2} has 1 and 2 outside X = {0}: it is no near survivor, and
        every extension of the general {0} joins."""
        cover, reference = PositiveCover(5), ReferenceCover(5)
        for lhs in ([], [1, 3], [2, 3]):  # leaves {0} and {1, 2}
            non_fd = FD.of(lhs, 4)
            assert cover.specialize(non_fd) == reference.specialize(non_fd)
        assert cover.lhs_masks(4) == [0b0001, 0b0110]
        step = cover.specialize(FD.of([0], 4))
        assert step == ([0b0001], [0b0011, 0b0101, 0b1001])
        assert step == reference.specialize(FD.of([0], 4))

    def test_unchanged_rhs_records_no_edit(self):
        inverter = Inverter(4)
        inverter.process([FD(0, 2), FD(0, 3)])
        edits: list = []
        # {} -/-> 2 again finds nothing to remove; {0} -/-> 3 does.
        stats = inverter.process([FD(0, 2), FD.of([0], 3)], edits)
        assert edits == [(3, [0b001], [])]
        assert stats == InversionStats(2, 1, 0)

    def test_one_round_per_non_fd_of_the_busiest_rhs(self, monkeypatch):
        rounds: list[list[FD]] = []
        step = PositiveCover.specialize_round

        def spy(cover, non_fds, edits):
            rounds.append(list(non_fds))
            return step(cover, non_fds, edits)

        monkeypatch.setattr(PositiveCover, "specialize_round", spy)
        single = [FD(0, 4), FD.of([0, 1], 4), FD.of([2], 4)]
        Inverter(5).process(single)
        assert rounds == [[fd] for fd in sort_for_cover_insertion(single)]
        rounds.clear()
        Inverter(5).process(single + [FD.of([1], 3)])
        assert [len(batch) for batch in rounds] == [2, 1, 1]
        assert [fd.rhs for fd in rounds[0]] == [3, 4]

    def test_round_rejects_two_non_fds_of_one_rhs(self):
        with pytest.raises(ValueError):
            PositiveCover(4).specialize_round([FD(0, 3), FD.of([1], 3)], None)

    def test_compaction_once_the_dead_outnumber_the_live(self):
        cover = PositiveCover(40)
        cover.specialize(FD(0, 39))  # {} -> 39 dies, 39 singletons join
        cover.specialize(FD(attrset.universe(39), 39))  # all 39 die
        assert cover.lhs_masks(39) == []
        assert len(cover) == 39
        assert len(cover._rhs) == 39  # the 40 dead entries were dropped
        assert list(cover) == [FD(0, rhs) for rhs in range(39)]
        # Rounds after a compaction still match the reference.
        reference = ReferenceCover(40)
        for non_fd in (FD(0, 39), FD(attrset.universe(39), 39)):
            reference.specialize(non_fd)
        for non_fd in (FD(0, 0), FD.of([1, 2], 0), FD.of([5], 39)):
            assert cover.specialize(non_fd) == reference.specialize(non_fd)
        for rhs in range(40):
            assert cover.lhs_masks(rhs) == reference.lhs_masks(rhs)
