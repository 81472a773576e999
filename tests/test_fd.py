"""Tests for the FD value type and its helpers."""

from __future__ import annotations

import pytest

from repro.fd import FD, sort_for_cover_insertion


class TestFDValue:
    def test_of_builds_mask(self):
        fd = FD.of([0, 2], 1)
        assert fd.lhs == 0b101
        assert fd.rhs == 1

    def test_lhs_indices(self):
        assert FD(0b1010, 0).lhs_indices == (1, 3)

    def test_arity(self):
        assert FD(0b111, 3).arity == 3
        assert FD(0, 3).arity == 0

    def test_rejects_negative_parts(self):
        with pytest.raises(ValueError):
            FD(-1, 0)
        with pytest.raises(ValueError):
            FD(0, -2)

    def test_equality_and_hash(self):
        assert FD(0b11, 2) == FD(0b11, 2)
        assert hash(FD(0b11, 2)) == hash(FD(0b11, 2))
        assert FD(0b11, 2) != FD(0b11, 3)

    def test_ordering_is_total(self):
        fds = [FD(0b10, 1), FD(0b01, 2), FD(0b01, 0)]
        assert sorted(fds) == [FD(0b01, 0), FD(0b01, 2), FD(0b10, 1)]

    def test_trivial(self):
        assert FD(0b101, 2).is_trivial()
        assert not FD(0b101, 1).is_trivial()
        assert not FD(0, 0).is_trivial()  # {} -> A is non-trivial


class TestGeneralization:
    """Definition 3 of the paper."""

    def test_generalizes_on_subset(self):
        assert FD(0b001, 3).generalizes(FD(0b011, 3))

    def test_generalizes_is_reflexive(self):
        assert FD(0b011, 3).generalizes(FD(0b011, 3))

    def test_no_generalization_across_rhs(self):
        assert not FD(0b001, 2).generalizes(FD(0b011, 3))

    def test_specializes_mirror(self):
        special, general = FD(0b111, 4), FD(0b100, 4)
        assert special.specializes(general)
        assert not general.specializes(special)

    def test_incomparable_sets(self):
        # Example 2: ABG vs AGM — neither contains the other.
        left = FD.of([1, 2, 3], 0)
        right = FD.of([1, 3, 4], 0)
        assert not left.generalizes(right)
        assert not left.specializes(right)


class TestFormat:
    def test_format_with_names(self):
        fd = FD.of([3, 4], 2)
        names = ["Name", "Age", "Blood pressure", "Gender", "Medicine"]
        assert fd.format(names) == "[Gender, Medicine] -> Blood pressure"

    def test_format_without_names(self):
        assert str(FD.of([0], 1)) == "[0] -> 1"

    def test_format_empty_lhs(self):
        assert FD(0, 2).format() == "[] -> 2"


class TestHelpers:
    def test_sort_for_cover_insertion_orders_by_descending_arity(self):
        fds = [FD(0b1, 1), FD(0b111, 3), FD(0b11, 2)]
        arities = [fd.arity for fd in sort_for_cover_insertion(fds)]
        assert arities == [3, 2, 1]

    def test_sort_is_deterministic_on_ties(self):
        fds = [FD(0b101, 1), FD(0b011, 1), FD(0b011, 0)]
        assert sort_for_cover_insertion(fds) == sort_for_cover_insertion(
            list(reversed(fds))
        )
