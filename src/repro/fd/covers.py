# repro-lint: disable-file=RPR002 — mask kernel: both covers split every
# LHS mask into 64-bit words and join words back into masks by shifting,
# once per entry they store or read.
"""Negative and positive covers (Definition 5), both as flat word stores.

The *negative cover* collects non-FDs.  Because a non-FD ``X -/-> A``
implies that every generalization ``Y ⊂ X`` is also a non-FD (Lemma 1),
only the maximal invalid LHSs need storing; the cover therefore keeps, per
RHS attribute, an antichain of maximal LHS masks.

The *positive cover* collects the minimal valid FDs produced by inversion
(Algorithm 3); per RHS attribute it keeps an antichain of minimal LHS
masks.

Both store an LHS mask as ``⌈n/64⌉`` parallel ``uint64`` arrays, one per
64-attribute word, so that one agree set (negative cover) or one non-FD
(positive cover) updates the store with whole-array sweeps instead of
index probes.  The extended binary tree of Section IV-D
(:mod:`repro.fd.binary_tree`) and the FD-tree (:mod:`repro.fd.fdtree`)
answer the same subset and superset queries one mask at a time; the
E-IDX benchmark replays one intake stream into all three.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..obs import count
from ..obs.names import NCOVER_ADDED, NCOVER_GENERALIZATIONS_EVICTED
from . import attrset
from .fd import FD

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1
_ONE = np.uint64(1)


class NegativeCover:
    """Per-RHS antichains of *maximal* invalid LHSs, stored flat.

    Entry ``i`` is the non-FD ``L -/-> A``: like :class:`PositiveCover`,
    its LHS ``L`` has ``self._words[w][i]`` as its word ``w`` (least
    significant first), and ``self._rhs[i]`` is ``A``.  Every RHS shares
    the arrays, so :meth:`add_violations` takes one agree set for all its
    RHSs at once.  Entries are unordered; reads sort them.

    Per RHS the intake is the insertion step of Algorithm 2: a non-FD
    already specialized by a stored one is redundant and is dropped;
    conversely a newly inserted non-FD evicts every stored generalization
    so the antichain property (and minimal storage) is preserved even when
    insertions arrive across several sampling cycles in arbitrary order.
    """

    __slots__ = ("num_attributes", "_words", "_rhs")

    def __init__(self, num_attributes: int) -> None:
        if num_attributes <= 0:
            raise ValueError(
                f"a relation needs at least one attribute, got {num_attributes}"
            )
        width = -(-num_attributes // _WORD_BITS)
        self.num_attributes = num_attributes
        self._words: list[np.ndarray] = [
            np.zeros(0, dtype=np.uint64) for _ in range(width)
        ]
        self._rhs = np.zeros(0, dtype=np.intp)

    def add(self, non_fd: FD) -> bool:
        """Insert one non-FD; return True when the cover grew.

        The one-RHS form of :meth:`add_violations`.  Trivial "non-FDs"
        (RHS contained in LHS) cannot occur — a tuple pair agreeing on the
        LHS agrees on every LHS attribute — and are rejected loudly to
        catch caller bugs.

        Mutates: self
        Monotone: self via covers
            (the covered set of non-FDs only grows: evicted
            generalizations stay covered by their evictor — the
            append-only promise inversion relies on between cycles)
        """
        return self.add_violations(non_fd.lhs, attrset.singleton(non_fd.rhs), []) > 0

    def add_violations(self, agree: int, rhs_mask: int, pending: list[FD]) -> int:
        """Insert ``agree -/-> A`` for each attribute ``A`` of ``rhs_mask``.

        The intake for one tuple pair's agree set ``X``, in three sweeps
        over the whole store.  A stored ``L ⊇ X`` blocks its RHS; every
        stored ``L ⊆ X`` of an admitted RHS is evicted; then ``X`` is
        stored once per admitted RHS, in ascending order, and each
        admitted non-FD is appended to ``pending`` (the non-FDs not yet
        inverted).  Returns how many were admitted.

        Mutates: self, pending
        Monotone: self via covers
        """
        if agree & rhs_mask:
            raise ValueError(
                f"trivial non-FD cannot be violated: agree set {agree:#x} "
                f"holds an RHS of {rhs_mask:#x}"
            )
        words, rhs = self._words, self._rhs
        lhs = _split([agree], len(words))
        # 1. Stored specializations block their RHSs.
        admitted = _flags(rhs_mask, self.num_attributes)
        admitted[rhs[_containing(words, lhs)]] = False
        added = np.flatnonzero(admitted).tolist()
        if not added:
            return 0
        # 2. Generalizations of an admitted RHS are evicted.
        general = _within(words, [~word for word in lhs]) & admitted[rhs]
        evicted = int(np.count_nonzero(general))
        if evicted:
            kept = ~general
            words = [word[kept] for word in words]
            rhs = rhs[kept]
            count(NCOVER_GENERALIZATIONS_EVICTED, evicted)
        # 3. X joins once per admitted RHS, ascending.
        fresh = _split([agree] * len(added), len(words))
        self._words = [np.concatenate((word, new)) for word, new in zip(words, fresh)]
        self._rhs = np.concatenate((rhs, added))
        pending.extend(FD(agree, attribute) for attribute in added)
        count(NCOVER_ADDED, len(added))
        return len(added)

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

        Pure: a read-only superset sweep.
        """
        lhs = _split([fd.lhs], len(self._words))
        return bool(np.any(_containing(self._words, lhs) & (self._rhs == fd.rhs)))

    def lhs_masks(self, rhs: int) -> list[int]:
        """The stored maximal invalid LHS masks for attribute ``rhs``, sorted.

        Pure: joins a copy of the matching entries.
        """
        mine = self._rhs == rhs
        return sorted(_join([word[mine] for word in self._words]))

    def __len__(self) -> int:
        return len(self._rhs)

    def __iter__(self) -> Iterator[FD]:
        for rhs, lhs in sorted(zip(self._rhs.tolist(), _join(self._words))):
            yield FD(lhs, rhs)

    def __contains__(self, non_fd: FD) -> bool:
        return non_fd.lhs in self.lhs_masks(non_fd.rhs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NegativeCover(attributes={self.num_attributes}, size={len(self)})"


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
        invalid = _within(words, _split([self._universe & ~non_fd.lhs], len(words)))
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


def _flags(mask: int, size: int) -> np.ndarray:
    """The low ``size`` bits of ``mask`` as a boolean array, bit 0 first.

    Pure: unpacks a fresh array.
    """
    packed = np.frombuffer(mask.to_bytes(-(-size // 8), "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little").astype(bool)


def _containing(words: list[np.ndarray], lhs: list[np.ndarray]) -> np.ndarray:
    """Per entry: is its LHS a superset of ``lhs`` (one value per word)?

    Pure: compares into a fresh boolean array.
    """
    found = (words[0] & lhs[0]) == lhs[0]
    for word, value in zip(words[1:], lhs[1:]):
        found &= (word & value) == value
    return found


def _within(words: list[np.ndarray], outside: list[np.ndarray]) -> np.ndarray:
    """Per entry: does its LHS miss every bit of ``outside`` (one value per word)?

    That is, is it a subset of ``outside``'s complement.

    Pure: compares into a fresh boolean array.
    """
    found = (words[0] & outside[0]) == 0
    for word, out in zip(words[1:], outside[1:]):
        found &= (word & out) == 0
    return found


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
