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
64-attribute word, so that one agree set (negative cover) or one
non-FD per RHS (positive cover) updates the store with whole-array
sweeps instead of index probes.  The extended binary tree of Section IV-D
(:mod:`repro.fd.binary_tree`) and the FD-tree (:mod:`repro.fd.fdtree`)
answer the same subset and superset queries one mask at a time; the
E-IDX benchmark replays one intake stream into all three.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import islice

import numpy as np

from ..obs import count
from ..obs.names import NCOVER_ADDED, NCOVER_GENERALIZATIONS_EVICTED
from . import attrset
from .fd import FD

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1
_ONE = np.uint64(1)

CoverEdit = tuple[int, list[int], list[int]]
"""One RHS's ``(rhs, removed LHS masks, added LHS masks)`` in one step."""


class _WordStore:
    """Per-RHS antichains of LHS masks, every RHS in one set of arrays.

    Entry ``i`` is ``L -> A`` (or ``L -/-> A``): its LHS ``L`` has
    ``self._words[w][i]`` as its word ``w`` (least significant first),
    and ``self._rhs[i]`` is ``A``.  Reads sort the entries.
    """

    __slots__ = ("num_attributes", "_words", "_rhs")

    def __init__(self, num_attributes: int) -> None:
        if num_attributes <= 0:
            raise ValueError(
                f"a relation needs at least one attribute, got {num_attributes}"
            )
        width = -(-num_attributes // _WORD_BITS)
        self.num_attributes = num_attributes
        self._words = [np.zeros(0, dtype=np.uint64) for _ in range(width)]
        self._rhs = np.zeros(0, dtype=np.intp)

    def lhs_masks(self, rhs: int) -> list[int]:
        """The stored LHS masks for attribute ``rhs``, sorted.

        Pure: joins a copy of the matching entries.
        """
        mine = self._rhs == rhs
        return sorted(_join([word[mine] for word in self._words]))

    def __contains__(self, fd: FD) -> bool:
        return fd.rhs < self.num_attributes and fd.lhs in self.lhs_masks(fd.rhs)

    def __iter__(self) -> Iterator[FD]:
        for rhs in range(self.num_attributes):
            for lhs in self.lhs_masks(rhs):
                yield FD(lhs, rhs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = type(self).__name__
        return f"{name}(attributes={self.num_attributes}, size={len(self)})"


class NegativeCover(_WordStore):
    """Per-RHS antichains of *maximal* invalid LHSs, stored flat.

    Every RHS shares the arrays, so :meth:`add_violations` takes one
    agree set for all its RHSs at once.

    Per RHS the intake is the insertion step of Algorithm 2: a non-FD
    already specialized by a stored one is redundant and is dropped;
    conversely a newly inserted non-FD evicts every stored generalization
    so the antichain property (and minimal storage) is preserved even when
    insertions arrive across several sampling cycles in arbitrary order.
    """

    __slots__ = ()

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
        general = admitted[rhs]
        for word, value in zip(words, lhs):
            general &= (word & ~value) == 0
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

    def __len__(self) -> int:
        return len(self._rhs)


class PositiveCover(_WordStore):
    """Per-RHS antichains of *minimal* valid LHSs, stored flat.

    A fresh cover holds the most general candidate ``{} -> A`` for every
    attribute (Algorithm 3, lines 1-2).  A removed entry is marked dead
    in place (RHS ``num_attributes``, every bit set) and dropped by one
    compaction once the dead outnumber the live; new entries are
    appended, so each RHS's entries keep the order they joined in.
    """

    __slots__ = ("_size", "_units")

    def __init__(self, num_attributes: int) -> None:
        super().__init__(num_attributes)
        self._words = [np.zeros(num_attributes, dtype=np.uint64) for _ in self._words]
        self._rhs = np.arange(num_attributes, dtype=np.intp)
        self._size = num_attributes
        # The singleton {b} of every attribute b, as words indexed by b.
        self._units = _split([1 << b for b in range(num_attributes)], len(self._words))

    def specialize(self, non_fd: FD) -> tuple[list[int], list[int]]:
        """Apply one non-FD; return the LHS masks its RHS lost and gained.

        The one-non-FD form of :meth:`specialize_round`.

        Mutates: self
        """
        edits: list[CoverEdit] = []
        self.specialize_round([non_fd], edits)
        return (edits[0][1], edits[0][2]) if edits else ([], [])

    def specialize_round(
        self, non_fds: Sequence[FD], edits: list[CoverEdit] | None
    ) -> tuple[int, int]:
        """Apply non-FDs ``X_A -/-> A`` of distinct RHSs at once (Alg. 3, 12-20).

        Returns how many entries left and joined the cover.  Each stored
        ``g ⊆ X_A`` of RHS ``A`` is invalid (Lemma 1) and gives way to
        every ``g ∪ {b}``, ``b ∉ X_A ∪ {A}``, that no survivor ``L``
        generalizes.  As ``L ⊄ X_A``, ``L ⊆ g ∪ {b}`` needs
        ``L & ~X_A == {b}`` and ``L - {b} ⊆ g``: each general meets only
        its RHS's *near* survivors, with one bit outside ``X_A``.  Nothing
        is evicted: no fresh candidate is a subset of a survivor (which
        would contain ``g``) or of another (the ``g`` form an antichain).
        With ``edits``, each RHS that changed appends ``(A, removed,
        added)``, in ascending RHS order.

        Mutates: self, edits
        """
        n, words, rhs, units = self.num_attributes, self._words, self._rhs, self._units
        inside = {fd.rhs: fd.lhs | 1 << fd.rhs for fd in non_fds}
        if len(inside) < len(non_fds) or any(map(FD.is_trivial, non_fds)):
            raise ValueError(f"need non-trivial non-FDs of distinct RHSs: {non_fds}")
        # Per RHS, the bits outside X_A ∪ {A}: all off the round and for the dead.
        outside = _split([~inside.get(a, 0) for a in range(n + 1)], len(words))
        # One sweep keeps the entries with at most one bit outside per word.
        few = np.ones(len(rhs), dtype=bool)
        for word, table in zip(words, outside):
            beyond = table[rhs]
            beyond &= word
            beyond &= beyond - _ONE
            few &= beyond == 0
        taking = np.zeros(n + 1, dtype=bool)
        taking[list(inside)] = True
        kept = np.flatnonzero(few)
        kept = kept[taking[rhs[kept]]]
        kept = kept[np.argsort(rhs[kept], kind="stable")]
        # Of the round's, no bit outside makes a general, one a near survivor.
        beyond = [word[kept] & table[rhs[kept]] for word, table in zip(words, outside)]
        spread = sum(difference != 0 for difference in beyond)
        general, near = kept[spread == 0], kept[spread == 1]
        if not general.size:
            return 0, 0
        general_rhs, near_rhs = rhs[general], rhs[near]
        bits = [difference[spread == 1] for difference in beyond]
        # Each general meets its own RHS's near survivors: is L - {b} ⊆ g?
        first = np.searchsorted(near_rhs, general_rhs)
        mates = np.searchsorted(near_rhs, general_rhs, side="right") - first
        pair_general = np.repeat(np.arange(general.size), mates)
        pair_near = np.repeat(first - np.cumsum(mates) + mates, mates)
        pair_near += np.arange(pair_near.size)
        generals = [word[general] for word in words]
        blocks = np.ones(pair_near.size, dtype=bool)
        for word, bit, values in zip(words, bits, generals):
            blocks &= ((word[near] & ~bit)[pair_near] & ~values[pair_general]) == 0
        # The free extensions less the blocked ones, unpacked in one step.
        free = [table[general_rhs] for table in outside]
        for mask, bit in zip(free, bits):
            np.bitwise_and.at(mask, pair_general[blocks], ~bit[pair_near[blocks]])
        flags = np.stack(free, axis=1).astype("<u8", copy=False).view(np.uint8)
        flags = np.unpackbits(flags, axis=1, count=n, bitorder="little")
        parent, extra = np.nonzero(flags)
        fresh = [values[parent] | unit[extra] for values, unit in zip(generals, units)]
        if edits is not None:
            removed, added = iter(_join(generals)), iter(_join(fresh))
            lost = np.bincount(general_rhs, minlength=n)
            won = np.bincount(general_rhs[parent], minlength=n)
            edits.extend(
                (a, list(islice(removed, lost[a])), list(islice(added, won[a])))
                for a in np.flatnonzero(lost).tolist()
            )
        rhs[general] = n
        for word in words:
            word[general] = _WORD_MASK
        self._size += int(parent.size) - int(general.size)
        if len(rhs) + parent.size - self._size > self._size:
            alive = rhs != n
            words, rhs = [word[alive] for word in words], rhs[alive]
        self._words = [np.concatenate((word, new)) for word, new in zip(words, fresh)]
        self._rhs = np.concatenate((rhs, general_rhs[parent]))
        return int(general.size), int(parent.size)

    def __len__(self) -> int:
        return self._size


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
