"""The sampling module: MLFQ over clusters + sliding windows (Algorithm 1).

Tuple pairs are drawn only inside stripped-partition clusters, so every
comparison is guaranteed to agree on at least one attribute and can always
contribute a non-FD.  Within a cluster, the *sliding window* pairs the
first and last tuple of a window that slides across the cluster; each
sample of the same cluster uses a window one larger than the last, so no
tuple pair is ever compared twice (Fig. 3).

Across clusters, a multilevel feedback queue schedules which cluster to
sample next.  After each sample the cluster's *capa* —

    capa = (number of new non-FDs) / (number of tuple pairs just compared)

— decides the queue it re-enters; clusters whose recent samples stopped
producing retire permanently (Algorithm 1, line 17).

The module hands out work in *passes* — full drains of the MLFQ, exactly
one execution of Algorithm 1's main loop — so the negative-cover module
can evaluate its growth-rate stopping criterion between passes; that
hand-off is the first of the two cycles of Figure 1.  ``revive`` clears
retirement streaks to give quiet clusters a fresh chance when either
cycle decides that sampling should continue.

Cluster state lives in per-cluster arrays and the MLFQ holds cluster
ids, so a pass drains the MLFQ a queue at a time: each *batch* samples a
run of clusters off the head of one queue with whole-array steps and
re-enqueues them in order, drawing exactly what the one-cluster-at-a-time
loop of Algorithm 1 draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fd import attrset
from ..obs import count, gauge
from ..obs.names import (
    MLFQ_DEMOTIONS,
    MLFQ_OCCUPANCY,
    MLFQ_PROMOTIONS,
    SAMPLER_CLUSTER_VISITS,
    SAMPLER_NEW_NON_FDS,
    SAMPLER_PAIRS_COMPARED,
    SAMPLER_PASSES,
    SAMPLER_REVIVED_CLUSTERS,
    SAMPLER_WINDOW_HITS,
)
from ..relation.preprocess import (
    PreprocessedRelation,
    agree_words,
    decode_agree_words,
    first_rows,
)
from .config import EulerFDConfig, MlfqPolicy
from .mlfq import MultilevelFeedbackQueue

Violation = tuple[int, int]
"""(agree mask, mask of newly-violated RHS attributes) of one tuple pair."""

SMALL_CLUSTER_ROWS = 32
"""Clusters of at most this many rows (at most 496 pairs) are compared in
full on the first pass, a few kernel calls per cluster size: their many
tiny samples would otherwise each pay a gather, a compare and a pack."""

TABLE_CALL_PAIRS = 8192
"""Pairs one kernel call compares, at most, to fill the window table.
With one call per cluster size instead, eulerfd-tall's ``peak_rss_mb``
read 2.2 MiB (2.4%) higher."""

BATCH_CLUSTERS = 512
"""Clusters a batch takes off a queue, at most.  A batch is cut at its
first promotion and the clusters after it go back unsampled, so a larger
batch wastes more where promotions come often, and a smaller one pays
the per-batch array work more often.  On lineitem[20000] (eulerfd-tall)
batches of 128 to 512 clusters drained at the same speed within noise,
and no slower than batches that double from 32 to 1024 at each queue;
on fd-reduced-30[2000×30] 128 was slower than 256 to 1024."""


@dataclass
class RoundStats:
    """Bookkeeping of one sampling round."""

    cluster_samples: int = 0
    pairs_compared: int = 0
    new_non_fds: int = 0
    queue_occupancy: tuple[int, ...] = field(default_factory=tuple)


class SamplingModule:
    """Stateful sampler shared by both cycles of EulerFD.

    Cluster ``c``'s sampling state is entry ``c`` of parallel arrays:
    ``size`` (its rows), ``window`` (its next sample's window size),
    ``zeros`` (zero-capa samples in a row since the last non-zero capa or
    the last revive), ``samples``, ``last_capa``, ``queue_level`` (the MLFQ
    queue of its last push, -1 before the first; telemetry only) and
    ``cursor`` (its next row of the window table, -1 for a cluster the
    table does not serve).

    Every comparison runs inline, never on a worker pool: the MLFQ works
    through small samples, so a dispatch per sample would add latency and
    no throughput.
    """

    def __init__(
        self,
        data: PreprocessedRelation,
        config: EulerFDConfig,
        clusters: list[tuple[int, ...]],
    ) -> None:
        self.data = data
        self.config = config
        self._universe = attrset.universe(data.num_columns)
        # Cluster membership.  A copy of the execution context's shared,
        # deduplicated list: extend_clusters replaces grown entries.
        self._rows: list[tuple[int, ...]] = []
        empty = np.zeros(0, dtype=np.int64)
        self.size = self.window = self.zeros = self.samples = empty
        self.queue_level = self.cursor = empty
        self.last_capa = np.zeros(0)
        self._add_clusters(clusters)
        self._table = np.zeros((0, -(-data.num_columns // 64)), dtype=np.uint64)
        """Window-major agree words of the small clusters' window
        positions; one word row per pair."""
        self._row_index: dict[int, np.ndarray] = {}
        """Row-index arrays of the clusters the table does not serve,
        built on their first gathered sample: window pair endpoints are
        plain slices of them."""
        self._kept: dict[int, np.ndarray] = {}
        """Agree words gathered for a cluster whose batch was cut before
        its turn: its next sample, at the same window, uses them."""
        self._policy = config.mlfq
        self._queue: MultilevelFeedbackQueue[int] = MultilevelFeedbackQueue(
            self._policy
        )
        # Agree masks already sampled: every RHS outside a sampled mask is
        # known violated under it, so a mask is novel only once.  The
        # exact novelty ledger behind the capa metric.
        self._seen: set[int] = set()
        self.total_pairs = 0
        self.total_new_non_fds = 0
        self.rounds_run = 0
        self.revivals = 0

    @property
    def num_clusters(self) -> int:
        return len(self._rows)

    # -- cluster state ------------------------------------------------------

    def exhausted(self, ids: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Per cluster: no window size left, every regular-interval pair
        was compared."""
        return self.window[ids] > self.size[ids]

    def retired(self, ids: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Per cluster: the last ``retire_history`` samples all came up
        empty (average capa 0, Algorithm 1 line 17).  Capas are never
        negative, so that average is 0 exactly when the zero streak
        reaches ``retire_history``."""
        return self.zeros[ids] >= self.config.retire_history

    def active(self, ids: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Per cluster: may be sampled again."""
        return ~(self.exhausted(ids) | self.retired(ids))

    def record(self, ids: np.ndarray, capas: np.ndarray) -> None:
        """Account one sample of each of the distinct clusters ``ids``.

        The window grows by one; a zero capa extends the zero streak and
        any other resets it.

        Mutates: self
        """
        self.zeros[ids] = np.where(capas > 0, 0, self.zeros[ids] + 1)
        self.last_capa[ids] = capas
        self.samples[ids] += 1
        self.window[ids] += 1

    def _add_clusters(self, clusters: list[tuple[int, ...]]) -> None:
        """Register unsampled clusters at the initial window.

        Mutates: self
        """
        n = len(clusters)
        self._rows.extend(clusters)
        self.size = np.append(self.size, np.fromiter(map(len, clusters), np.int64, n))
        self.window = np.append(
            self.window, np.full(n, self.config.initial_window, dtype=np.int64)
        )
        self.zeros = np.append(self.zeros, np.zeros(n, dtype=np.int64))
        self.samples = np.append(self.samples, np.zeros(n, dtype=np.int64))
        self.last_capa = np.append(self.last_capa, np.zeros(n))
        self.queue_level = np.append(self.queue_level, np.full(n, -1, dtype=np.int64))
        self.cursor = np.append(self.cursor, np.full(n, -1, dtype=np.int64))

    # -- scheduling ---------------------------------------------------------

    def has_more(self) -> bool:
        """True when another round could compare at least one pair."""
        return bool(self._queue) or bool(self.active().any())

    def revive(self) -> int:
        """Second-cycle re-entry: clear retirement of non-exhausted clusters.

        Returns how many clusters became eligible again.  Window sizes are
        kept, so revived clusters continue with never-seen tuple pairs.

        Mutates: self
        """
        quiet = self.retired() & ~self.exhausted()
        revived = int(np.count_nonzero(quiet))
        self.zeros[quiet] = 0
        if revived:
            self.revivals += 1
            count(SAMPLER_REVIVED_CLUSTERS, revived)
        return revived

    def extend_clusters(
        self, delta: object, data: PreprocessedRelation | None = None
    ) -> int:
        """Absorb an append delta: grow touched clusters, admit born ones.

        ``delta`` is the :class:`~repro.relation.preprocess.AppendDelta`
        of one batch; ``data`` the post-append snapshot, which replaces
        the module's (now prefix-only) view when given.  Every
        post-append cluster that contains a new row either grows an
        existing cluster in place (matched by its pre-append prefix —
        O(batch) lookups, no re-collection) or enters as a fresh cluster
        with top scheduling priority.  A grown cluster keeps its window
        size: positions already compared pair old rows at smaller windows
        only, so resuming at the current window never repeats a pair —
        new-row pairs the resumed windows skip are covered exhaustively
        by the incremental engine's new-row comparison.  Its retirement
        streak is cleared (an extension is fresh signal), it leaves the
        window table, and an exhausted cluster whose window now fits
        again becomes eligible.  Duplicate post-append clusters across
        attributes are registered once, mirroring the deduplicated
        cluster lists the module is built from.  Call between passes:
        cluster ids in flight inside a pass stay valid, so in-place
        growth is safe.

        Returns how many clusters were extended or born.

        Mutates: self
        """
        if data is not None:
            self.data = data
        available: dict[tuple[int, ...], list[int]] = {}
        for cluster, rows in enumerate(self._rows):
            available.setdefault(rows, []).append(cluster)
        first_new: int = delta.first_new  # type: ignore[attr-defined]
        seen_new: set[tuple[int, ...]] = set()
        changed = 0
        born: list[tuple[int, ...]] = []
        for column_clusters in delta.touched:  # type: ignore[attr-defined]
            for rows in column_clusters:
                if rows in seen_new:
                    continue
                seen_new.add(rows)
                prefix = tuple(row for row in rows if row < first_new)
                bucket = available.get(prefix)
                if bucket:
                    cluster = bucket.pop()
                    self._rows[cluster] = rows
                    self.size[cluster] = len(rows)
                    self.zeros[cluster] = 0
                    self.cursor[cluster] = -1
                    self._row_index.pop(cluster, None)
                    self._kept.pop(cluster, None)
                    available.setdefault(rows, []).append(cluster)
                else:
                    born.append(rows)
                changed += 1
        self._add_clusters(born)
        return changed

    def _refill_queue(self) -> None:
        """Enqueue every eligible cluster; unsampled ones get top priority."""
        if self._policy.adaptive:
            self._policy = _adapted_policy(
                self._policy, self.last_capa[self.samples > 0]
            )
            self._queue = MultilevelFeedbackQueue(self._policy)
        ids = np.flatnonzero(self.active())
        capas = np.where(self.samples[ids] > 0, self.last_capa[ids], np.inf)
        self._push(ids, self._policy.queues_for(capas))

    def _push(self, ids: np.ndarray, levels: np.ndarray) -> None:
        """Enqueue clusters in order, counting MLFQ promotions and demotions.

        Mutates: self
        """
        previous = self.queue_level[ids]
        queued = previous >= 0
        # One front-door call per event (DESIGN §7), as for window hits.
        for _ in range(np.count_nonzero(queued & (levels < previous))):
            count(MLFQ_PROMOTIONS)
        for _ in range(np.count_nonzero(queued & (levels > previous))):
            count(MLFQ_DEMOTIONS)
        self.queue_level[ids] = levels
        for level in np.flatnonzero(np.bincount(levels)).tolist():
            self._queue.extend(level, ids[levels == level].tolist())

    def run_pass(self, max_samples: int | None = None) -> tuple[list[Violation], RoundStats]:
        """Drain the MLFQ: one full execution of Algorithm 1's main loop.

        Every eligible cluster enters the queue and is sampled repeatedly
        — highest `capa` first, re-entering the queue after each sample —
        until it exhausts its windows or retires on a zero-capa streak
        (line 17).  Returns the (novel) violations and pass statistics;
        zero pairs compared means the sampler is dry.

        The drain goes a batch at a time, each batch a run of up to
        ``BATCH_CLUSTERS`` clusters off the head of the highest-priority
        non-empty queue (:meth:`_sample_batch`).  A batch stops after its
        first cluster that re-enters above its queue, which Algorithm 1
        would serve next, and gives the rest back to the queue's head
        unsampled.

        ``max_samples`` optionally bounds the drain for callers that need
        finer-grained control (tests, interactive use).

        Mutates: self
        """
        stats = RoundStats()
        violations: list[Violation] = []
        if self.rounds_run == 0:
            self._build_window_table()
        if not self._queue:
            self._refill_queue()
        queue = self._queue
        while queue:
            limit = BATCH_CLUSTERS
            if max_samples is not None:
                limit = min(limit, max_samples - stats.cluster_samples)
                if limit <= 0:
                    break
            level = queue.head_level()
            taken = queue.take(level, limit)
            ids = np.array(taken, dtype=np.intp)
            done = self._sample_batch(ids, level, violations, stats)
            if done < len(taken):
                queue.give_back(level, taken[done:])
        stats.queue_occupancy = queue.queue_sizes()
        self.rounds_run += 1
        self.total_pairs += stats.pairs_compared
        self.total_new_non_fds += stats.new_non_fds
        count(SAMPLER_PASSES)
        count(SAMPLER_CLUSTER_VISITS, stats.cluster_samples)
        count(SAMPLER_PAIRS_COMPARED, stats.pairs_compared)
        count(SAMPLER_NEW_NON_FDS, stats.new_non_fds)
        gauge(MLFQ_OCCUPANCY, float(len(queue)), sizes=stats.queue_occupancy)
        return violations, stats

    # -- the sliding window -------------------------------------------------

    def _build_window_table(self) -> None:
        """Compare every window position of each small cluster at once.

        A size-``s`` cluster's pairs ``(i, i + w - 1)`` are laid out
        window-major, for ``w`` from the initial window up to ``s``, so
        each of its samples reads the next rows at its cursor.  The table
        is one array allocated up front, filled by kernel calls over the
        clusters of one size, at most ``TABLE_CALL_PAIRS`` pairs each.

        Mutates: self
        """
        window = self.config.initial_window  # nothing was sampled yet
        small = np.flatnonzero(
            (window <= self.size) & (self.size <= SMALL_CLUSTER_ROWS)
        )
        sizes = self.size[small]
        span = sizes - window + 1
        table = np.empty(
            (int((span * (span + 1) // 2).sum()), self._table.shape[1]),
            dtype=np.uint64,
        )
        offset = 0
        # Not np.unique: without return_index it imports numpy.ma, which
        # stays resident (1.3 MiB of eulerfd-tall's peak RSS).
        for size in np.flatnonzero(np.bincount(sizes)).tolist():
            members = small[sizes == size]
            counts = np.arange(size - window + 1, 0, -1)
            first = _ranges(np.zeros_like(counts), counts)
            last = first + np.repeat(np.arange(window - 1, size), counts)
            step = max(1, TABLE_CALL_PAIRS // len(first))
            for start in range(0, len(members), step):
                part = members[start : start + step]
                rows = np.array([self._rows[c] for c in part.tolist()], dtype=np.intp)
                end = offset + len(part) * len(first)
                table[offset:end] = agree_words(
                    self.data.matrix, rows[:, first].ravel(), rows[:, last].ravel()
                )
                self.cursor[part] = np.arange(offset, end, len(first))
                offset = end
        self._table = table

    def _sample_batch(
        self, ids: np.ndarray, level: int, out: list[Violation], stats: RoundStats
    ) -> int:
        """Sample clusters ``ids``, taken in order off queue ``level``, as
        Algorithm 1 would one at a time; return how many were sampled.

        Every sample's agree words are gathered at once: its run of the
        window table for a small cluster, one distinct-mask kernel call
        for any other.  A mask is novel at its first occurrence in the
        batch if the seen ledger lacks it, which is what a mask-by-mask
        walk finds.  The batch is cut after its first cluster re-enqueued
        above ``level``; the clusters after it are left unsampled, and any
        words gathered for them are kept.

        Mutates: self, out, stats
        """
        window = self.window[ids]
        positions = self.size[ids] - window + 1
        cursor = self.cursor[ids]
        lengths = positions.copy()
        gathered: dict[int, np.ndarray] = {}
        for j in np.flatnonzero(cursor < 0).tolist():
            cluster = int(ids[j])
            block = self._kept.pop(cluster, None)
            if block is None:
                rows = self._row_index.get(cluster)
                if rows is None:
                    rows = np.asarray(self._rows[cluster], dtype=np.intp)
                    self._row_index[cluster] = rows
                block = agree_words(
                    self.data.matrix,
                    rows[: positions[j]],
                    rows[window[j] - 1 :],
                    distinct=True,
                )
            gathered[j] = block
            lengths[j] = len(block)
        ends = np.cumsum(lengths)
        tabled = np.flatnonzero(cursor >= 0)
        source = _ranges(cursor[tabled], lengths[tabled])
        if gathered:
            words = np.empty((int(ends[-1]), self._table.shape[1]), dtype=np.uint64)
            words[_ranges(ends[tabled] - lengths[tabled], lengths[tabled])] = (
                self._table[source]
            )
            for j, block in gathered.items():
                words[ends[j] - lengths[j] : ends[j]] = block
        else:
            words = self._table[source]
        first = first_rows(words)
        masks = decode_agree_words(words[first])
        seen, universe = self._seen, self._universe
        known = np.fromiter(map(seen.__contains__, masks), dtype=bool, count=len(masks))
        found: list[Violation] = []
        novel_rows: list[int] = []
        for i in np.flatnonzero(~known).tolist():
            agree = masks[i]
            if agree != universe:  # a pair agreeing everywhere violates nothing
                found.append((agree, universe & ~agree))
                novel_rows.append(i)
        owner = np.searchsorted(ends, first[novel_rows], side="right")
        new_count = np.bincount(
            owner, [novel.bit_count() for _, novel in found], minlength=len(ids)
        ).astype(np.int64)
        capas = new_count / positions
        levels = self._policy.queues_for(capas)
        done = len(ids)
        # A capa that ranks above a lower queue is positive, so such a
        # cluster re-enters unless that sample used its last window.
        promoted = np.flatnonzero((levels < level) & (window < self.size[ids]))
        if promoted.size:
            done = int(promoted[0]) + 1
            for j, block in gathered.items():
                if j >= done:
                    self._kept[int(ids[j])] = block
            found = found[: int(np.searchsorted(owner, done))]
            ids, positions, new_count = ids[:done], positions[:done], new_count[:done]
            capas, levels = capas[:done], levels[:done]
            tabled = tabled[tabled < done]
        out.extend(found)
        seen.update(agree for agree, _ in found)
        self.record(ids, capas)
        self.cursor[ids[tabled]] += positions[tabled]
        stats.cluster_samples += done
        stats.pairs_compared += int(positions.sum())
        stats.new_non_fds += int(new_count.sum())
        # A window position that still yields novel violations: the signal
        # the MLFQ uses to keep a cluster hot (Fig. 3).  One front-door
        # call per event (DESIGN §7).
        for _ in range(np.count_nonzero(new_count)):
            count(SAMPLER_WINDOW_HITS)
        again = self.active(ids)
        self._push(ids[again], levels[again])
        return done


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs ``starts[i], ..., starts[i] + lengths[i] - 1``, concatenated.

    Pure: reads its arguments only; returns a fresh index array.
    """
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


def distance_pairs(
    clusters: list[tuple[int, ...]], distance: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every intra-cluster pair ``distance`` rows apart, in cluster order:
    the uniform sweep of HyFD and AID-FD.

    Pure: reads the cluster list only; returns fresh index arrays.
    """
    rows_a: list[int] = []
    rows_b: list[int] = []
    for rows in clusters:
        if len(rows) > distance:
            rows_a.extend(rows[:-distance])
            rows_b.extend(rows[distance:])
    return np.array(rows_a, dtype=np.intp), np.array(rows_b, dtype=np.intp)


def _adapted_policy(policy: MlfqPolicy, capas: np.ndarray) -> MlfqPolicy:
    """Future-work extension (Section VI): re-divide capa ranges at runtime.

    Queue bounds are re-drawn from the quantiles of the recently observed
    positive capa values — ``capas`` holds the last capa of every cluster
    sampled so far — so queue occupancy stays balanced even when the
    static decade ranges of Table IV fit the data poorly.  Falls back to
    the current bounds when there is not enough signal.
    """
    observed = np.sort(capas[capas > 0])[::-1].tolist()
    num_queues = policy.num_queues
    if num_queues == 1 or len(observed) < num_queues:
        return policy
    bounds: list[float] = []
    for level in range(num_queues - 1):
        position = int(len(observed) * (level + 1) / num_queues)
        position = min(position, len(observed) - 1)
        bound = observed[position]
        if bounds and bound >= bounds[-1]:
            bound = bounds[-1] / 2
        bounds.append(bound)
    bounds.append(0.0)
    if any(b <= 0 for b in bounds[:-1]):
        return policy
    return MlfqPolicy(tuple(bounds), adaptive=True)
