"""The cached partition store (DESIGN.md §8).

Stripped partitions are the workhorse of lattice-style discovery and the
single most recomputed structure in the repo: Tane derives one per
lattice node, the key-minimality checks re-refine against singletons,
and repeated bench runs used to rebuild identical partitions from the
columns every time.  :class:`PartitionStore` centralizes them:

* **Keying** — one entry per attribute-set bitmask.  The empty set and
  every singleton are *pinned*: each is built from the preprocessed
  relation on its first :meth:`~PartitionStore.get`, is never evicted,
  and anchors every derivation.
* **Derivation** — a missing partition is never recomputed from the
  columns.  It is derived by the stripped-partition product of its
  one-smaller parents ``X ∖ {a}``, found by ``|X|`` key probes rather
  than a scan of the cache: the two cached parents with the fewest
  grouped rows, or the one cached parent times the pinned singleton it
  lacks, or — when none is cached — the parent without the lowest
  attribute, derived first the same way.  This is exactly Tane's
  level-to-level product when the parents are warm, and a chain of
  singleton products down to a cached ancestor when they are not.
* **Eviction** — an LRU over the non-pinned entries, bounded by entry
  count (``cache_size``).  Evicting never loses correctness: a future
  request re-derives the partition from whatever ancestors survived.

Cache traffic is counted twice: plain integers (:meth:`stats`, for
telemetry rows with no sink installed) and one front-door call per event
— ``engine.partition_cache.*`` counters plus a resident-bytes gauge
sized by :func:`partition_cost_bytes` — which reaches whichever obs
sinks are installed (DESIGN.md §7).
"""

from __future__ import annotations

from collections import OrderedDict

from ..fd import attrset
from ..obs import count, gauge
from ..obs.names import (
    PARTITION_CACHE_DERIVE,
    PARTITION_CACHE_EVICT,
    PARTITION_CACHE_EVICTED_BYTES,
    PARTITION_CACHE_HIT,
    PARTITION_CACHE_MISS,
    PARTITION_CACHE_RESIDENT_BYTES,
)
from ..relation.partition import StrippedPartition
from ..relation.preprocess import PreprocessedRelation

DEFAULT_CACHE_SIZE = 4096
"""Non-pinned entries kept before LRU eviction."""

ENTRY_OVERHEAD_BYTES = 96
"""Estimated fixed cost per cached entry (dict slot, key, object header)."""

CLUSTER_OVERHEAD_BYTES = 56
"""Estimated cost per cluster tuple beyond its row references."""

ROW_REF_BYTES = 8
"""Estimated cost per row reference inside a cluster: clusters hold row
indices (one pointer-sized slot each), never labels, so the charge is
independent of the label matrix's width."""


def partition_cost_bytes(partition: StrippedPartition) -> int:
    """Estimated resident bytes of one cached partition.

    A deterministic linear model over the stripped representation —
    fixed entry overhead, one tuple header per cluster,
    :data:`ROW_REF_BYTES` per grouped row — rather than a recursive
    ``sys.getsizeof`` walk, so repeated sizing of hot partitions costs
    two attribute reads.

    Pure: reads two attributes, computes an int.
    """
    return (
        ENTRY_OVERHEAD_BYTES
        + CLUSTER_OVERHEAD_BYTES * len(partition.clusters)
        + ROW_REF_BYTES * partition.num_grouped_rows
    )


class PartitionStore:
    """LRU-cached stripped partitions keyed by attribute-set bitmask."""

    def __init__(
        self, data: PreprocessedRelation, cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be positive, got {cache_size}")
        self._cache_size = cache_size
        self._data = data
        # π(∅) and every singleton: pinned, each built on its first get
        self._pinnable = {
            attrset.EMPTY, *map(attrset.singleton, range(data.num_columns))
        }
        self._pinned: dict[int, StrippedPartition] = {}
        self._pinned_bytes = 0
        self._cache: OrderedDict[int, StrippedPartition] = OrderedDict()
        self._costs: dict[int, int] = {}
        self._cached_bytes = 0
        self.hits = 0
        self.misses = 0
        self.derives = 0
        self.evictions = 0
        self.evicted_bytes = 0

    @property
    def resident_bytes(self) -> int:
        """Estimated bytes held by the store, built pinned entries included."""
        return self._pinned_bytes + self._cached_bytes

    def __contains__(self, mask: int) -> bool:
        return mask in self._pinnable or mask in self._cache

    def stats(self) -> dict[str, int]:
        """Cache-traffic snapshot: monotonic counts, safe to delta."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "derives": self.derives,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
        }

    # -- lookup ----------------------------------------------------------------

    def get(self, mask: int) -> StrippedPartition:
        """The stripped partition on ``mask``, cached or derived.

        Mutates: self
        """
        pinned = self._pinned_entry(mask)
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

    # -- appends ---------------------------------------------------------------

    def apply_delta(self, data: PreprocessedRelation) -> None:
        """Advance the store to the post-append snapshot ``data``.

        Derived entries and built pins are dropped: the next :meth:`get`
        builds π(∅) and the singletons from ``data``, and re-derives each
        derived entry from them.

        Mutates: self
        """
        self._data = data
        self._pinned.clear()
        self._cache.clear()
        self._costs.clear()
        self._pinned_bytes = self._cached_bytes = 0
        gauge(PARTITION_CACHE_RESIDENT_BYTES, 0.0)

    def _pinned_entry(self, mask: int) -> StrippedPartition | None:
        """The pinned partition on ``mask``, built on first use; else None.

        Mutates: self
        """
        partition = self._pinned.get(mask)
        if partition is not None or mask not in self._pinnable:
            return partition
        num_rows = self._data.num_rows
        if mask == attrset.EMPTY:
            # π(∅): one class holding every tuple (empty when it could not
            # possibly violate anything, i.e. fewer than two rows).
            partition = StrippedPartition.from_tuples(
                (tuple(range(num_rows)),) if num_rows > 1 else (), num_rows
            )
        else:
            partition = self._data.stripped(attrset.lowest_bit(mask))
        self._pinned[mask] = partition
        self._pinned_bytes += partition_cost_bytes(partition)
        gauge(PARTITION_CACHE_RESIDENT_BYTES, float(self.resident_bytes))
        return partition

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
            parent = self._pinned_entry(parent_mask)
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
        # the one attribute the parent lacks: a pinned singleton
        return parent.product(self._pinned_entry(mask ^ parent_mask))

    def _store(self, mask: int, partition: StrippedPartition) -> None:
        """Cache a freshly derived ``mask``, evicting LRU entries past the bound.

        Mutates: self
        """
        cost = partition_cost_bytes(partition)
        self._costs[mask] = cost
        self._cached_bytes += cost
        self._cache[mask] = partition
        while len(self._cache) > self._cache_size:
            evicted_mask, _ = self._cache.popitem(last=False)
            evicted_cost = self._costs.pop(evicted_mask)
            self._cached_bytes -= evicted_cost
            self.evictions += 1
            self.evicted_bytes += evicted_cost
            count(PARTITION_CACHE_EVICT)
            count(PARTITION_CACHE_EVICTED_BYTES, evicted_cost)
        gauge(PARTITION_CACHE_RESIDENT_BYTES, float(self.resident_bytes))
