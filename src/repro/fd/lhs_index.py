"""Indexes over sets of LHS bitmasks with subset/superset queries.

The negative cover is, per right-hand-side attribute, a collection of LHS
attribute sets that must answer two queries fast (Section IV-D/IV-E of
the paper):

* *specialization* check — does the collection contain a superset of X?
* *generalization* check — does the collection contain a subset of X?

This module defines the common protocol plus :class:`BitsetLhsIndex`, a
straightforward cardinality-bucketed implementation whose correctness is
obvious.  :mod:`repro.fd.binary_tree` provides the paper's extended binary
tree behind the same protocol; the two are cross-checked by property tests.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Protocol, runtime_checkable

from . import attrset


@runtime_checkable
class LhsIndex(Protocol):
    """Collection of LHS bitmasks supporting containment-lattice queries."""

    def add(self, lhs: int) -> bool:
        """Insert ``lhs``; return False when it was already present."""

    def remove(self, lhs: int) -> bool:
        """Remove ``lhs``; return False when it was not present."""

    def __contains__(self, lhs: int) -> bool: ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[int]: ...

    def contains_superset(self, lhs: int) -> bool:
        """True when some stored mask is a (non-strict) superset of ``lhs``."""

    def contains_subset(self, lhs: int) -> bool:
        """True when some stored mask is a (non-strict) subset of ``lhs``."""

    def find_supersets(self, lhs: int) -> list[int]:
        """All stored masks that are supersets of ``lhs``."""

    def find_subsets(self, lhs: int) -> list[int]:
        """All stored masks that are subsets of ``lhs``."""


class BitsetLhsIndex:
    """LHS index backed by per-cardinality hash sets.

    Subset queries only inspect buckets of cardinality ``<= |X|`` and
    superset queries buckets of cardinality ``>= |X|``, which in practice
    skips most of the collection.  Used as the reference implementation in
    tests and as a pluggable alternative to the binary tree.
    """

    __slots__ = ("_buckets", "_size")

    def __init__(self, masks: Iterator[int] | None = None) -> None:
        self._buckets: dict[int, set[int]] = {}
        self._size = 0
        if masks is not None:
            for mask in masks:
                self.add(mask)

    def add(self, lhs: int) -> bool:
        """Insert ``lhs``; return False when it was already present.

        Mutates: self
        """
        bucket = self._buckets.setdefault(attrset.size(lhs), set())
        if lhs in bucket:
            return False
        bucket.add(lhs)
        self._size += 1
        return True

    def remove(self, lhs: int) -> bool:
        """Remove ``lhs``; return False when it was not present.

        Mutates: self
        """
        card = attrset.size(lhs)
        bucket = self._buckets.get(card)
        if bucket is None or lhs not in bucket:
            return False
        bucket.remove(lhs)
        if not bucket:
            del self._buckets[card]
        self._size -= 1
        return True

    def __contains__(self, lhs: int) -> bool:
        bucket = self._buckets.get(attrset.size(lhs))
        return bucket is not None and lhs in bucket

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        masks = [mask for bucket in self._buckets.values() for mask in bucket]
        yield from sorted(masks)

    def contains_superset(self, lhs: int) -> bool:
        """Specialization check (read-only).

        Pure: scans the buckets without touching them.
        """
        want = attrset.size(lhs)
        for card, bucket in self._buckets.items():
            if card < want:
                continue
            for mask in bucket:
                if lhs & ~mask == 0:
                    return True
        return False

    def contains_subset(self, lhs: int) -> bool:
        """Generalization check (read-only).

        Pure: scans the buckets without touching them.
        """
        want = attrset.size(lhs)
        for card, bucket in self._buckets.items():
            if card > want:
                continue
            for mask in bucket:
                if mask & ~lhs == 0:
                    return True
        return False

    def find_supersets(self, lhs: int) -> list[int]:
        """All stored supersets of ``lhs``, sorted.

        Pure: builds a fresh list; the index is only read.
        """
        want = attrset.size(lhs)
        found = [
            mask
            for card, bucket in self._buckets.items()
            if card >= want
            for mask in bucket
            if lhs & ~mask == 0
        ]
        found.sort()
        return found

    def find_subsets(self, lhs: int) -> list[int]:
        """All stored subsets of ``lhs``, sorted.

        Pure: builds a fresh list; the index is only read.
        """
        want = attrset.size(lhs)
        found = [
            mask
            for card, bucket in self._buckets.items()
            if card <= want
            for mask in bucket
            if mask & ~lhs == 0
        ]
        found.sort()
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitsetLhsIndex(size={self._size})"
