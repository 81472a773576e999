"""Partitions and stripped partitions (Definitions 6 and 7).

A *partition* of a relation on an attribute set groups tuples that share
values on every attribute of the set.  The *stripped* variant drops
singleton equivalence classes, which can neither produce a violation nor
distinguish FD validity, shrinking both memory and work (Fig. 2).

These structures serve two masters:

* EulerFD's sampling module draws tuple pairs from the stripped clusters
  of single attributes;
* Tane's lattice traversal refines partitions via the product operation
  and validates FDs by comparing equivalence-class counts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class StrippedPartition:
    """A stripped partition: equivalence classes with at least two tuples.

    ``clusters`` holds tuples of row indices; ``num_rows`` the relation
    size the partition was computed over (needed to recover full-partition
    statistics from the stripped form).
    """

    __slots__ = ("clusters", "num_rows", "_num_grouped_rows")

    def __init__(self, clusters: Iterable[Sequence[int]], num_rows: int) -> None:
        self.clusters: tuple[tuple[int, ...], ...] = tuple(
            tuple(cluster) for cluster in clusters
        )
        for cluster in self.clusters:
            if len(cluster) < 2:
                raise ValueError(
                    f"stripped partitions hold clusters of size >= 2, got {cluster}"
                )
        self.num_rows = num_rows
        self._num_grouped_rows = sum(len(cluster) for cluster in self.clusters)

    @classmethod
    def from_tuples(
        cls,
        clusters: tuple[tuple[int, ...], ...],
        num_rows: int,
        num_grouped_rows: int | None = None,
    ) -> "StrippedPartition":
        """Wrap already-validated cluster tuples without per-row copies.

        For builders that tuple their clusters themselves (a snapshot's
        label-column grouping, π(∅)), where ``__init__`` would re-tuple
        and re-check every cluster.  The caller vouches that
        ``clusters`` is a tuple of int tuples, each of size >= 2 — the
        same invariant ``__init__`` enforces.

        Pure: wraps the given tuples; nothing is copied or mutated.
        """
        partition = cls.__new__(cls)
        partition.clusters = clusters
        partition.num_rows = num_rows
        partition._num_grouped_rows = (
            num_grouped_rows
            if num_grouped_rows is not None
            else sum(len(cluster) for cluster in clusters)
        )
        return partition

    # -- statistics ------------------------------------------------------------

    @property
    def num_clusters(self) -> int:
        """Number of stripped (size >= 2) equivalence classes."""
        return len(self.clusters)

    @property
    def num_grouped_rows(self) -> int:
        """Rows living in stripped clusters."""
        return self._num_grouped_rows

    @property
    def num_classes_full(self) -> int:
        """Equivalence-class count of the corresponding *full* partition.

        Every row outside the stripped clusters forms a singleton class:
        ``full = singletons + stripped = (n - grouped) + clusters``.  Tane
        validates ``X -> A`` by comparing this count for ``X`` and
        ``X ∪ {A}``.
        """
        return self.num_rows - self._num_grouped_rows + self.num_clusters

    @property
    def error(self) -> int:
        """Tane's e(X) numerator: rows that must be removed to make X a key."""
        return self._num_grouped_rows - self.num_clusters

    def is_superkey(self) -> bool:
        """X is a (super)key iff no two tuples agree on X."""
        return not self.clusters

    # -- refinement --------------------------------------------------------------

    def product(self, other: "StrippedPartition") -> "StrippedPartition":
        """The partition on the union of the attribute sets (Tane's π_X · π_Y).

        Linear in the grouped rows of both operands: index the rows of
        ``self`` by cluster id, then split every cluster of ``other`` by
        that id, keeping only groups of size >= 2.

        Pure: builds a fresh partition; neither operand is mutated.
        """
        if self.num_rows != other.num_rows:
            raise ValueError("partitions over different relations")
        owner = {}
        for cluster_id, cluster in enumerate(self.clusters):
            for row in cluster:
                owner[row] = cluster_id
        refined: list[list[int]] = []
        for cluster in other.clusters:
            groups: dict[int, list[int]] = {}
            for row in cluster:
                cluster_id = owner.get(row)
                if cluster_id is not None:
                    groups.setdefault(cluster_id, []).append(row)
            refined.extend(group for group in groups.values() if len(group) > 1)
        return StrippedPartition(refined, self.num_rows)

    def refines(self, other: "StrippedPartition") -> bool:
        """True when every class of ``self`` lies inside a class of ``other``.

        π_X refines π_A exactly when the FD ``X -> A`` holds; used by the
        test suite as an independent validity oracle.

        Pure: a read-only comparison of both partitions.
        """
        owner: dict[int, int] = {}
        for cluster_id, cluster in enumerate(other.clusters):
            for row in cluster:
                owner[row] = cluster_id
        for cluster in self.clusters:
            first = owner.get(cluster[0], -1)
            for row in cluster[1:]:
                if owner.get(row, -2) != first:
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrippedPartition):
            return NotImplemented
        mine = sorted(tuple(sorted(c)) for c in self.clusters)
        theirs = sorted(tuple(sorted(c)) for c in other.clusters)
        return self.num_rows == other.num_rows and mine == theirs

    def __hash__(self) -> int:
        return hash(
            (self.num_rows, frozenset(frozenset(c) for c in self.clusters))
        )

    def __repr__(self) -> str:
        return (
            f"StrippedPartition(clusters={self.num_clusters}, "
            f"rows={self.num_rows})"
        )


def partition_from_labels(labels: Sequence[int], num_rows: int) -> StrippedPartition:
    """Group row indices by label, keeping groups of size >= 2."""
    groups: dict[int, list[int]] = {}
    for row, label in enumerate(labels):
        groups.setdefault(label, []).append(row)
    return StrippedPartition(
        (group for group in groups.values() if len(group) > 1), num_rows
    )


def full_partition_from_labels(labels: Sequence[int]) -> list[list[int]]:
    """The full (unstripped) partition — singleton classes included.

    Only used for exposition and tests (Example 5); algorithms operate on
    the stripped form.
    """
    groups: dict[int, list[int]] = {}
    for row, label in enumerate(labels):
        groups.setdefault(label, []).append(row)
    return list(groups.values())
