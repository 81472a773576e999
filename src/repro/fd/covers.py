"""Negative and positive covers (Definition 5).

The *negative cover* collects non-FDs.  Because a non-FD ``X -/-> A``
implies that every generalization ``Y ⊂ X`` is also a non-FD (Lemma 1),
only the maximal invalid LHSs need storing; the cover therefore keeps, per
RHS attribute, an antichain of maximal LHS masks.

The *positive cover* collects the minimal valid FDs produced by the
inversion module; per RHS attribute it keeps an antichain of minimal LHS
masks.

Both covers delegate subset/superset searches to a pluggable
:class:`~repro.fd.lhs_index.LhsIndex`; the default is the extended binary
tree of Section IV-D.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

from ..obs import count
from ..obs.names import (
    NCOVER_ADDED,
    NCOVER_GENERALIZATIONS_EVICTED,
    PCOVER_ADDED,
    PCOVER_REMOVED,
    PCOVER_SPECIALIZATIONS_EVICTED,
)
from . import attrset
from .binary_tree import BinaryLhsTree
from .fd import FD
from .lhs_index import LhsIndex

IndexFactory = Callable[[], LhsIndex]
"""Zero-argument callable building an empty LHS index."""


def default_index_factory() -> LhsIndex:
    """The index used by EulerFD: the extended binary LHS tree."""
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

    def add_all(self, non_fds: Iterable[FD]) -> int:
        """Insert many non-FDs; return the number that grew the cover.

        Mutates: self
        Monotone: self via covers
        """
        return sum(1 for non_fd in non_fds if self.add(non_fd))

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

    def index_for(self, rhs: int) -> LhsIndex:
        """Direct access to the per-RHS index (used by the inversion module)."""
        return self._trees[rhs]

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
    """Per-RHS antichains of *minimal* valid LHSs.

    Freshly constructed covers contain the most general candidate
    ``{} -> A`` for every attribute ``A`` (Algorithm 3, lines 1-2); the
    inversion module then specializes candidates against the negative
    cover.
    """

    __slots__ = ("num_attributes", "_trees", "_size")

    def __init__(
        self,
        num_attributes: int,
        index_factory: IndexFactory | None = None,
        seed_most_general: bool = True,
    ) -> None:
        if num_attributes <= 0:
            raise ValueError(
                f"a relation needs at least one attribute, got {num_attributes}"
            )
        factory = index_factory if index_factory is not None else default_index_factory
        self.num_attributes = num_attributes
        self._trees: list[LhsIndex] = [factory() for _ in range(num_attributes)]
        self._size = 0
        if seed_most_general:
            for rhs in range(num_attributes):
                self._trees[rhs].add(attrset.EMPTY)
            self._size = num_attributes

    def add(self, fd: FD) -> bool:
        """Insert an FD candidate unless a stored generalization exists.

        Mutates: self
        Monotone: self via has_generalization
            (minimality only improves: every FD the cover implied
            before — itself or via a generalization — is still implied
            after insertion)
        """
        if fd.is_trivial():
            raise ValueError(f"refusing to store trivial FD: {fd}")
        tree = self._trees[fd.rhs]
        if tree.contains_subset(fd.lhs):
            return False
        evicted = 0
        for special in tree.find_supersets(fd.lhs):
            tree.remove(special)
            self._size -= 1
            evicted += 1
        tree.add(fd.lhs)
        self._size += 1
        count(PCOVER_ADDED)
        if evicted:
            count(PCOVER_SPECIALIZATIONS_EVICTED, evicted)
        return True

    def add_minimal(self, fd: FD) -> bool:
        """Insert an FD the caller has already proven minimal.

        Fast path for the inversion module: when the cover is known to be
        an antichain and the caller just checked ``has_generalization``,
        the superset-eviction scan of :meth:`add` is provably a no-op and
        is skipped.

        Mutates: self
        """
        if self._trees[fd.rhs].add(fd.lhs):
            self._size += 1
            count(PCOVER_ADDED)
            return True
        return False

    def remove(self, fd: FD) -> bool:
        """Drop a candidate invalidated by inversion.

        Mutates: self
        """
        if self._trees[fd.rhs].remove(fd.lhs):
            self._size -= 1
            count(PCOVER_REMOVED)
            return True
        return False

    def find_generalizations(self, non_fd: FD) -> list[int]:
        """All stored LHSs for ``non_fd.rhs`` that are subsets of its LHS.

        Pure: a read-only subset query.
        """
        return self._trees[non_fd.rhs].find_subsets(non_fd.lhs)

    def has_generalization(self, fd: FD) -> bool:
        """True when a stored LHS is a subset of ``fd``'s LHS.

        Pure: a read-only subset query.
        """
        return self._trees[fd.rhs].contains_subset(fd.lhs)

    def index_for(self, rhs: int) -> LhsIndex:
        """Direct access to the per-RHS index (used by the inversion module)."""
        return self._trees[rhs]

    def lhs_masks(self, rhs: int) -> list[int]:
        """The stored minimal LHS masks for attribute ``rhs``."""
        return list(self._trees[rhs])

    def to_fd_set(self) -> frozenset[FD]:
        """Snapshot the cover as a set of FDs."""
        return frozenset(self)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[FD]:
        for rhs, tree in enumerate(self._trees):
            for lhs in tree:
                yield FD(lhs, rhs)

    def __contains__(self, fd: FD) -> bool:
        return fd.lhs in self._trees[fd.rhs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PositiveCover(attributes={self.num_attributes}, size={self._size})"


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
