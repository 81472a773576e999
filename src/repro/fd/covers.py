# repro-lint: disable-file=RPR002 — mask kernel: the positive cover
# splits every LHS mask into 64-bit words and joins words back into
# masks by shifting, once per entry it stores or reads.
"""Negative and positive covers (Definition 5).

The *negative cover* collects non-FDs.  Because a non-FD ``X -/-> A``
implies that every generalization ``Y ⊂ X`` is also a non-FD (Lemma 1),
only the maximal invalid LHSs need storing; the cover therefore keeps, per
RHS attribute, an antichain of maximal LHS masks.  Its subset/superset
searches go through a pluggable :class:`~repro.fd.lhs_index.LhsIndex`; the
default is the extended binary tree of Section IV-D.

The *positive cover* collects the minimal valid FDs produced by inversion
(Algorithm 3); per RHS attribute it keeps an antichain of minimal LHS
masks as a flat word store, ``⌈n/64⌉`` parallel ``uint64`` arrays, so
that one non-FD specializes it with whole-array operations instead of
index probes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..obs import count
from ..obs.names import NCOVER_ADDED, NCOVER_GENERALIZATIONS_EVICTED
from . import attrset
from .binary_tree import BinaryLhsTree
from .fd import FD
from .lhs_index import LhsIndex

IndexFactory = Callable[[], LhsIndex]
"""Zero-argument callable building an empty LHS index."""

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1
_ONE = np.uint64(1)


def default_index_factory() -> LhsIndex:
    """The negative cover's index: the extended binary LHS tree."""
    return BinaryLhsTree()


class NegativeCover:
    """Per-RHS antichains of *maximal* invalid LHSs.

    ``add`` implements the insertion step of Algorithm 2: a non-FD already
    specialized by a stored one is redundant and is dropped; conversely a
    newly inserted non-FD evicts every stored generalization so the
    antichain property (and minimal storage) is preserved even when
    insertions arrive across several sampling cycles in arbitrary order.
    """

    __slots__ = ("num_attributes", "_trees", "_size")

    def __init__(
        self,
        num_attributes: int,
        index_factory: IndexFactory | None = None,
    ) -> None:
        if num_attributes <= 0:
            raise ValueError(
                f"a relation needs at least one attribute, got {num_attributes}"
            )
        # Resolved at call time so tests can swap the module-level default.
        factory = index_factory if index_factory is not None else default_index_factory
        self.num_attributes = num_attributes
        self._trees: list[LhsIndex] = [factory() for _ in range(num_attributes)]
        self._size = 0

    def add(self, non_fd: FD) -> bool:
        """Insert a non-FD; return True when the cover grew.

        Trivial "non-FDs" (RHS contained in LHS) cannot occur — a tuple
        pair agreeing on the LHS agrees on every LHS attribute — and are
        rejected loudly to catch caller bugs.

        Mutates: self
        Monotone: self via covers
            (the covered set of non-FDs only grows: evicted
            generalizations stay covered by their evictor — the
            append-only promise inversion relies on between cycles)
        """
        if non_fd.is_trivial():
            raise ValueError(f"trivial non-FD cannot be violated: {non_fd}")
        tree = self._trees[non_fd.rhs]
        if tree.contains_superset(non_fd.lhs):
            return False
        evicted = 0
        for general in tree.find_subsets(non_fd.lhs):
            tree.remove(general)
            self._size -= 1
            evicted += 1
        tree.add(non_fd.lhs)
        self._size += 1
        count(NCOVER_ADDED)
        if evicted:
            count(NCOVER_GENERALIZATIONS_EVICTED, evicted)
        return True

    def add_violations(self, agree: int, rhs_mask: int, pending: list[FD]) -> int:
        """Insert ``agree -/-> A`` for each attribute ``A`` of ``rhs_mask``.

        The intake for one tuple pair's agree set: attributes go in
        ascending order, and each non-FD that grew the cover is appended
        to ``pending`` (the non-FDs not yet inverted).  Returns how many
        grew it.

        Mutates: self, pending
        Monotone: self via covers
        """
        added = 0
        remaining = rhs_mask
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            non_fd = FD(agree, bit.bit_length() - 1)
            if self.add(non_fd):
                pending.append(non_fd)
                added += 1
        return added

    def add_empty_lhs(self, cardinalities: Sequence[int], pending: list[FD]) -> int:
        """Insert ``{} -/-> A`` for each column with two or more values.

        Sampling inside clusters never observes an empty agree set, so
        these non-FDs are read off the column cardinalities instead.

        Mutates: self, pending
        Monotone: self via covers
        """
        varying = [a for a, cardinality in enumerate(cardinalities) if cardinality > 1]
        return self.add_violations(attrset.EMPTY, attrset.from_indices(varying), pending)

    def covers(self, fd: FD) -> bool:
        """True when ``fd`` is known-invalid (generalizes a stored non-FD).

        Pure: a read-only superset query.
        """
        return self._trees[fd.rhs].contains_superset(fd.lhs)

    def lhs_masks(self, rhs: int) -> list[int]:
        """The stored maximal invalid LHS masks for attribute ``rhs``.

        Pure: snapshots the index without touching it.
        """
        return list(self._trees[rhs])

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[FD]:
        for rhs, tree in enumerate(self._trees):
            for lhs in tree:
                yield FD(lhs, rhs)

    def __contains__(self, non_fd: FD) -> bool:
        return non_fd.lhs in self._trees[non_fd.rhs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NegativeCover(attributes={self.num_attributes}, size={self._size})"


class PositiveCover:
    """Per-RHS antichains of *minimal* valid LHSs, stored flat.

    Attribute ``A``'s antichain lives in ``W = ⌈n/64⌉`` parallel 1-D
    ``uint64`` arrays, one per 64-attribute word: entry ``i``'s LHS has
    ``self._words[A][w][i]`` as its word ``w`` (least significant
    first).  Entries are unordered; reads sort them.  A fresh cover
    holds the most general candidate ``{} -> A`` for every attribute
    (Algorithm 3, lines 1-2), and :meth:`specialize` applies one non-FD
    at a time with whole-array operations.
    """

    __slots__ = ("num_attributes", "_universe", "_words", "_size")

    def __init__(self, num_attributes: int) -> None:
        if num_attributes <= 0:
            raise ValueError(
                f"a relation needs at least one attribute, got {num_attributes}"
            )
        width = -(-num_attributes // _WORD_BITS)
        self.num_attributes = num_attributes
        self._universe = attrset.universe(num_attributes)
        self._words: list[list[np.ndarray]] = [
            [np.zeros(1, dtype=np.uint64) for _ in range(width)]
            for _ in range(num_attributes)
        ]
        self._size = num_attributes

    def specialize(self, non_fd: FD) -> tuple[list[int], list[int]]:
        """Apply one non-FD ``X -/-> A`` (Algorithm 3, lines 12-20).

        Returns ``(removed, added)``, the LHS masks that left and entered
        ``A``'s antichain.  Every stored ``g ⊆ X`` is invalid
        (Lemma 1) and is replaced by each ``g ∪ {b}``, ``b ∉ X ∪ {A}``,
        that has no stored generalization.  A surviving entry ``L`` is
        not a subset of ``X`` while ``g`` is, so ``L ⊆ g ∪ {b}`` exactly
        when ``L - g`` is the single bit ``b``: one reduction over the
        survivors' single-bit differences yields every blocked ``b``.  No
        fresh candidate can generalize a survivor (which would then
        contain ``g``) or another fresh one (their ``g`` form an
        antichain), so nothing is evicted.

        Mutates: self
        """
        if non_fd.is_trivial():
            raise ValueError(f"trivial non-FD cannot be violated: {non_fd}")
        rhs = non_fd.rhs
        words = self._words[rhs]
        outside = _split([self._universe & ~non_fd.lhs], len(words))
        invalid = (words[0] & outside[0]) == 0
        for word, out in zip(words[1:], outside[1:]):
            invalid &= (word & out) == 0
        if not invalid.any():
            return [], []
        valid = ~invalid
        survivors = [word[valid] for word in words]
        generals = [word[invalid] for word in words]
        blocked = _single_bit_differences(survivors, generals)
        extensions = self._universe & ~non_fd.lhs & ~attrset.singleton(rhs)
        removed = _join(generals)
        fresh: list[int] = []
        for general, covered in zip(removed, _join(blocked)):
            free = extensions & ~covered
            while free:
                bit = free & -free
                free ^= bit
                fresh.append(general | bit)
        added = _split(fresh, len(words))
        self._words[rhs] = [
            np.concatenate((kept, new)) for kept, new in zip(survivors, added)
        ]
        self._size += len(fresh) - len(removed)
        return removed, fresh

    def lhs_masks(self, rhs: int) -> list[int]:
        """The stored minimal LHS masks for attribute ``rhs``, sorted.

        Pure: joins a copy of the word arrays.
        """
        return sorted(_join(self._words[rhs]))

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[FD]:
        for rhs in range(self.num_attributes):
            for lhs in self.lhs_masks(rhs):
                yield FD(lhs, rhs)

    def __contains__(self, fd: FD) -> bool:
        return fd.lhs in _join(self._words[fd.rhs])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PositiveCover(attributes={self.num_attributes}, size={self._size})"


def _split(masks: list[int], width: int) -> list[np.ndarray]:
    """Masks as ``width`` parallel uint64 word arrays, least significant first.

    Pure: builds fresh arrays; ``masks`` is only read.
    """
    return [
        np.array(
            [(mask >> (_WORD_BITS * word)) & _WORD_MASK for mask in masks],
            dtype=np.uint64,
        )
        for word in range(width)
    ]


def _join(words: list[np.ndarray]) -> list[int]:
    """Parallel word arrays back into one int mask per entry.

    Pure: reads the arrays into fresh ints.
    """
    masks = words[0].tolist()
    for word, values in enumerate(words[1:], start=1):
        shift = _WORD_BITS * word
        masks = [mask | (value << shift) for mask, value in zip(masks, values.tolist())]
    return masks


def _single_bit_differences(
    survivors: list[np.ndarray], generals: list[np.ndarray]
) -> list[np.ndarray]:
    """Per general ``g``: the OR of every ``L & ~g`` that is one bit.

    ``L`` ranges over ``survivors``.  No survivor is a subset of ``g``,
    so every difference is nonzero, and it is a single bit exactly when
    each of its words holds at most one bit and at most one word is
    nonzero.  The result has one array per word, one entry per general.

    Pure: reduces fresh (general × survivor) arrays.
    """
    differences = [
        kept[np.newaxis, :] & ~general[:, np.newaxis]
        for kept, general in zip(survivors, generals)
    ]
    first = differences[0]
    single = (first & (first - _ONE)) == 0
    occupied = first != 0
    for difference in differences[1:]:
        nonzero = difference != 0
        single &= ((difference & (difference - _ONE)) == 0) & ~(occupied & nonzero)
        occupied |= nonzero
    return [
        np.bitwise_or.reduce(difference, axis=1, where=single)
        for difference in differences
    ]


def minimal_cover_from_fds(fds: Iterable[FD], num_attributes: int) -> set[FD]:
    """Reduce an arbitrary FD collection to its non-trivial minimal members.

    Utility for baselines and tests: drops trivial FDs and every FD with a
    stored generalization over the same RHS.
    """
    by_rhs: dict[int, list[int]] = {}
    for fd in fds:
        if fd.is_trivial():
            continue
        by_rhs.setdefault(fd.rhs, []).append(fd.lhs)
    minimal: set[FD] = set()
    for rhs, masks in by_rhs.items():
        masks.sort(key=attrset.size)
        kept: list[int] = []
        for mask in masks:
            if any(kept_mask & ~mask == 0 for kept_mask in kept):
                continue
            kept.append(mask)
        minimal.update(FD(mask, rhs) for mask in kept)
    return minimal


def attribute_frequency_priority(
    non_fds: Iterable[FD], num_attributes: int
) -> Sequence[int]:
    """Rank attributes by ascending frequency across non-FD LHSs.

    Algorithm 2 sorts LHS attributes in ascending order of frequency so
    that rare attributes discriminate near the root of the binary tree;
    this helper turns a non-FD sample into the corresponding priority
    vector for :class:`~repro.fd.binary_tree.BinaryLhsTree`.
    """
    counts = [0] * num_attributes
    for non_fd in non_fds:
        for index in attrset.to_indices(non_fd.lhs):
            counts[index] += 1
    order = sorted(range(num_attributes), key=lambda i: (counts[i], i))
    priority = [0] * num_attributes
    for rank, index in enumerate(order):
        priority[index] = rank
    return priority
