"""The cached partition store (DESIGN.md §8).

Stripped partitions are the workhorse of lattice-style discovery and the
single most recomputed structure in the repo: Tane derives one per
lattice node, the key-minimality checks re-refine against singletons,
and repeated bench runs used to rebuild identical partitions from the
columns every time.  :class:`PartitionStore` centralizes them:

* **Keying** — one entry per attribute-set bitmask.  The empty set and
  every singleton are *pinned*: they come straight from preprocessing,
  cost nothing to keep, and anchor every derivation.
* **Derivation** — a missing partition is never recomputed from the
  columns.  It is derived by the stripped-partition product of its
  one-smaller parents ``X ∖ {a}``, found by ``|X|`` key probes rather
  than a scan of the cache: the two cached parents with the fewest
  grouped rows, or the one cached parent times the pinned singleton it
  lacks, or — when none is cached — the parent without the lowest
  attribute, derived first the same way.  This is exactly Tane's
  level-to-level product when the parents are warm, and a chain of
  singleton products down to a cached ancestor when they are not.
* **Eviction** — a bounded LRU over the non-pinned entries, bounded
  twice: by entry count (``cache_size``) and, when ``max_bytes`` is
  set, by the estimated resident bytes of the cached partitions
  (:func:`partition_cost_bytes`).  The byte bound is what stops a burst
  of wide partitions — few entries, many clusters each — from blowing
  past the memory the entry count was meant to cap.  Partitions the
  cost model cannot size fall back to entry-count accounting alone.
  Evicting never loses correctness: a future request re-derives the
  partition from whatever ancestors survived.

Cache traffic is counted twice: plain integers (:meth:`stats`, for
telemetry rows with no sink installed) and one front-door call per event
— ``engine.partition_cache.*`` counters plus a resident-bytes gauge —
which reaches whichever obs sinks are installed (DESIGN.md §7).
"""

from __future__ import annotations

from collections import OrderedDict

from ..fd import attrset
from ..obs import count, gauge
from ..obs.names import (
    INCREMENTAL_STORE_DELTA_APPLIED,
    INCREMENTAL_STORE_DELTA_REBUILT,
    PARTITION_CACHE_DERIVE,
    PARTITION_CACHE_EVICT,
    PARTITION_CACHE_EVICTED_BYTES,
    PARTITION_CACHE_HIT,
    PARTITION_CACHE_MISS,
    PARTITION_CACHE_RESIDENT_BYTES,
)
from ..relation.partition import StrippedPartition
from ..relation.preprocess import AppendDelta, PreprocessedRelation

DEFAULT_CACHE_SIZE = 4096
"""Non-pinned entries kept before LRU eviction."""

DELTA_EXTEND_LIMIT = 32
"""Most-recently-used cached entries extended in place per append; colder
entries are released instead (to be re-derived on demand from the
delta-maintained pinned layer), bounding per-append work."""

ENTRY_OVERHEAD_BYTES = 96
"""Estimated fixed cost per cached entry (dict slot, key, object header)."""

CLUSTER_OVERHEAD_BYTES = 56
"""Estimated cost per cluster tuple beyond its row references."""

ROW_REF_BYTES = 8
"""Estimated cost per row reference inside a cluster: clusters hold row
indices (one pointer-sized slot each), never labels, so the charge is
independent of the label matrix's width."""


def partition_cost_bytes(partition: object) -> int | None:
    """Estimated resident bytes of one cached partition, or None.

    A deterministic linear model over the stripped representation —
    fixed entry overhead, one tuple header per cluster,
    :data:`ROW_REF_BYTES` per grouped row — rather than a recursive
    ``sys.getsizeof`` walk, so repeated sizing of hot partitions costs
    two attribute reads.  Returns None for
    objects without the stripped-partition shape (the store then falls
    back to entry-count accounting).

    Pure: reads two attributes, computes an int.
    """
    try:
        num_clusters = len(partition.clusters)
        grouped = partition.num_grouped_rows
    except (AttributeError, TypeError):
        return None
    return (
        ENTRY_OVERHEAD_BYTES
        + CLUSTER_OVERHEAD_BYTES * num_clusters
        + ROW_REF_BYTES * grouped
    )


class PartitionStore:
    """LRU-cached stripped partitions keyed by attribute-set bitmask."""

    def __init__(
        self,
        data: PreprocessedRelation,
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_bytes: int | None = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be positive, got {cache_size}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self._data = data
        self._cache_size = cache_size
        self._max_bytes = max_bytes
        num_rows = data.num_rows
        # π(∅): one class holding every tuple (empty when it could not
        # possibly violate anything, i.e. fewer than two rows).
        empty = StrippedPartition(
            [tuple(range(num_rows))] if num_rows > 1 else [], num_rows
        )
        self._pinned: dict[int, StrippedPartition] = {attrset.EMPTY: empty}
        for attribute, partition in enumerate(data.stripped):
            self._pinned[attrset.singleton(attribute)] = partition
        self._pinned_bytes = sum(
            partition_cost_bytes(partition) or 0
            for partition in self._pinned.values()
        )
        self._cache: OrderedDict[int, StrippedPartition] = OrderedDict()
        self._costs: dict[int, int] = {}
        self._cached_bytes = 0
        self.hits = 0
        self.misses = 0
        self.derives = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.delta_applied = 0
        self.delta_rebuilt = 0
        gauge(PARTITION_CACHE_RESIDENT_BYTES, float(self.resident_bytes))

    @property
    def cache_size(self) -> int:
        return self._cache_size

    @property
    def max_bytes(self) -> int | None:
        """Byte bound on the non-pinned entries (None: entry count only)."""
        return self._max_bytes

    @property
    def resident_bytes(self) -> int:
        """Estimated bytes held by the store, pinned entries included."""
        return self._pinned_bytes + self._cached_bytes

    def __len__(self) -> int:
        """Cached entries, pinned ones included."""
        return len(self._pinned) + len(self._cache)

    def __contains__(self, mask: int) -> bool:
        return mask in self._pinned or mask in self._cache

    def stats(self) -> dict[str, int]:
        """Cache-traffic snapshot: monotonic counts, safe to delta."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "derives": self.derives,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "delta_applied": self.delta_applied,
            "delta_rebuilt": self.delta_rebuilt,
        }

    # -- lookup ----------------------------------------------------------------

    def get(self, mask: int) -> StrippedPartition:
        """The stripped partition on ``mask``, cached or derived.

        Mutates: self
        """
        pinned = self._pinned.get(mask)
        if pinned is not None:
            self.hits += 1
            count(PARTITION_CACHE_HIT)
            return pinned
        cached = self._cache.get(mask)
        if cached is not None:
            self._cache.move_to_end(mask)
            self.hits += 1
            count(PARTITION_CACHE_HIT)
            return cached
        self.misses += 1
        count(PARTITION_CACHE_MISS)
        partition = self._derive(mask)
        self._store(mask, partition)
        return partition

    def put(self, mask: int, partition: StrippedPartition) -> None:
        """Deposit an externally computed partition (no derivation).

        Mutates: self
        """
        if partition.num_rows != self._data.num_rows:
            raise ValueError("partition over a different relation")
        if mask in self._pinned:
            return
        self._store(mask, partition)

    # -- delta updates -----------------------------------------------------------

    def apply_delta(self, data: PreprocessedRelation, delta: AppendDelta) -> None:
        """Advance the store to the post-append snapshot ``data`` in place.

        The pinned layer is delta-maintained for free: π(∅) grows by the
        new row indices and the singletons re-point at ``data.stripped``,
        whose cluster tuples the preprocessing delta already extended
        with structural sharing.  Cached derived entries are extended
        with the new rows' cluster memberships — up to
        :data:`DELTA_EXTEND_LIMIT` most-recently-used entries per append
        (``delta_applied``); colder entries are released and re-derived
        on demand from the extended pinned layer (``delta_rebuilt``).
        Either way the cache is never blanket-invalidated, and every
        surviving entry is exact over the grown relation.

        Mutates: self
        """
        old_rows = self._data.num_rows
        if delta.first_new != old_rows or data.num_rows < old_rows:
            raise ValueError(
                f"delta does not extend this store's relation: store at "
                f"{old_rows} rows, delta covers "
                f"[{delta.first_new}, {delta.num_rows})"
            )
        self._data = data
        num_rows = data.num_rows
        empty = StrippedPartition.from_tuples(
            (tuple(range(num_rows)),) if num_rows > 1 else (), num_rows
        )
        self._pinned[attrset.EMPTY] = empty
        for attribute, partition in enumerate(data.stripped):
            self._pinned[attrset.singleton(attribute)] = partition
        self._pinned_bytes = sum(
            partition_cost_bytes(partition) or 0
            for partition in self._pinned.values()
        )
        # new-row -> single-attribute cluster maps, built lazily per
        # attribute and shared across all extended entries of this delta
        membership: dict[int, dict[int, tuple[int, ...]]] = {}
        ordered = list(self._cache.keys())  # LRU -> MRU
        keep = set(ordered[-DELTA_EXTEND_LIMIT:])
        for mask in ordered:
            if mask in keep:
                extended = self._extend_partition(
                    mask, self._cache[mask], delta, membership
                )
                self._cache[mask] = extended
                previous_cost = self._costs.pop(mask, 0)
                self._cached_bytes -= previous_cost
                cost = partition_cost_bytes(extended)
                if cost is not None:
                    self._costs[mask] = cost
                    self._cached_bytes += cost
                self.delta_applied += 1
                count(INCREMENTAL_STORE_DELTA_APPLIED)
            else:
                del self._cache[mask]
                self._cached_bytes -= self._costs.pop(mask, 0)
                self.delta_rebuilt += 1
                count(INCREMENTAL_STORE_DELTA_REBUILT)
        gauge(PARTITION_CACHE_RESIDENT_BYTES, float(self.resident_bytes))

    def _extend_partition(
        self,
        mask: int,
        partition: StrippedPartition,
        delta: AppendDelta,
        membership: dict[int, dict[int, tuple[int, ...]]],
    ) -> StrippedPartition:
        """``partition`` on ``mask``, exact over the grown relation.

        New rows are placed by their label key over the mask's
        attributes: a key matching an existing cluster joins it, keys
        shared by several new rows open a fresh cluster, and a key seen
        by exactly one new row can only pair with a previously-singleton
        old row — found by scanning the new row's (delta-extended)
        single-attribute cluster, which contains every old row agreeing
        on at least the first mask attribute.  At most one such partner
        can exist: two old rows agreeing on the whole mask would already
        share a cluster.  Work is O(batch × |mask| + clusters), never a
        re-grouping of old rows.  The shared ``membership`` cache is
        filled lazily with the first attribute's new-row cluster map.

        Mutates: membership
        """
        data = self._data
        matrix = data.matrix
        attrs = attrset.to_tuple(mask)
        first_new = delta.first_new
        index: dict[tuple[int, ...], int] = {}
        for position, cluster in enumerate(partition.clusters):
            anchor = cluster[0]
            index[tuple(int(matrix[anchor, a]) for a in attrs)] = position
        first_attr = attrs[0]
        lookup = membership.get(first_attr)
        if lookup is None:
            lookup = {
                row: cluster
                for cluster in delta.touched[first_attr]
                for row in cluster
                if row >= first_new
            }
            membership[first_attr] = lookup
        additions: dict[int, list[int]] = {}
        fresh: dict[tuple[int, ...], list[int]] = {}
        for row in range(first_new, data.num_rows):
            key = tuple(int(matrix[row, a]) for a in attrs)
            position = index.get(key)
            if position is not None:
                additions.setdefault(position, []).append(row)
                continue
            group = fresh.get(key)
            if group is not None:
                group.append(row)
                continue
            fresh[key] = group = [row]
            candidates = lookup.get(row, ())
            labels = matrix[row]
            for mate in candidates:
                if mate >= first_new:
                    continue
                if all(int(matrix[mate, a]) == int(labels[a]) for a in attrs):
                    group.insert(0, mate)
                    break
        clusters: list[tuple[int, ...]] = []
        grouped = partition.num_grouped_rows
        for position, cluster in enumerate(partition.clusters):
            extra = additions.get(position)
            if extra is None:
                clusters.append(cluster)
            else:
                clusters.append(cluster + tuple(extra))
                grouped += len(extra)
        born = sorted(
            (group for group in fresh.values() if len(group) >= 2),
            key=lambda group: group[0],
        )
        for group in born:
            clusters.append(tuple(group))
            grouped += len(group)
        return StrippedPartition.from_tuples(
            tuple(clusters), data.num_rows, grouped
        )

    # -- derivation ------------------------------------------------------------

    def _derive(self, mask: int) -> StrippedPartition:
        """π(mask) as the product of cached one-smaller parents.

        Probes the ``|mask|`` parents ``mask ∖ {a}`` by key — never a
        scan of the cache.  Two or more cached: multiply the two with the
        fewest grouped rows (their union is ``mask``).  One cached:
        multiply it with the pinned singleton it lacks.  None cached:
        derive the parent without the lowest attribute first (it enters
        the cache), then multiply it with that singleton.

        Mutates: self
        """
        self.derives += 1
        count(PARTITION_CACHE_DERIVE)
        parents: list[tuple[int, int, StrippedPartition]] = []
        for parent_mask in attrset.subsets_one_smaller(mask):
            parent = self._pinned.get(parent_mask)
            if parent is None:
                parent = self._cache.get(parent_mask)
            if parent is not None:
                parents.append((parent.num_grouped_rows, parent_mask, parent))
        if len(parents) >= 2:
            parents.sort(key=lambda entry: entry[:2])
            return parents[0][2].product(parents[1][2])
        if parents:
            _, parent_mask, parent = parents[0]
        else:
            # the first one-smaller subset drops the lowest attribute
            parent_mask = next(attrset.subsets_one_smaller(mask))
            parent = self.get(parent_mask)
        return parent.product(self._pinned[mask ^ parent_mask])

    def _store(self, mask: int, partition: StrippedPartition) -> None:
        previous_cost = self._costs.pop(mask, 0)
        self._cached_bytes -= previous_cost
        cost = partition_cost_bytes(partition)
        if cost is not None:
            self._costs[mask] = cost
            self._cached_bytes += cost
        self._cache[mask] = partition
        self._cache.move_to_end(mask)
        while self._cache and (
            len(self._cache) > self._cache_size
            or (
                self._max_bytes is not None
                and self._cached_bytes > self._max_bytes
            )
        ):
            evicted_mask, _ = self._cache.popitem(last=False)
            evicted_cost = self._costs.pop(evicted_mask, 0)
            self._cached_bytes -= evicted_cost
            self.evictions += 1
            self.evicted_bytes += evicted_cost
            count(PARTITION_CACHE_EVICT)
            count(PARTITION_CACHE_EVICTED_BYTES, evicted_cost)
        gauge(PARTITION_CACHE_RESIDENT_BYTES, float(self.resident_bytes))
