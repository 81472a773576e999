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
)
from .config import EulerFDConfig, MlfqPolicy
from .mlfq import MultilevelFeedbackQueue

Violation = tuple[int, int]
"""(agree mask, mask of newly-violated RHS attributes) of one tuple pair."""

SMALL_CLUSTER_ROWS = 32
"""Clusters of at most this many rows (at most 496 pairs) are compared in
full on the first pass, one kernel call per cluster size: their many tiny
samples would otherwise each pay a gather, a compare and a pack."""


class ClusterState:
    """Sampling state of one stripped-partition cluster."""

    __slots__ = (
        "rows",
        "row_index",
        "window",
        "retire_history",
        "zeros",
        "samples",
        "last_capa",
        "queue_level",
        "table",
        "cursor",
    )

    def __init__(
        self, rows: tuple[int, ...], initial_window: int, retire_history: int
    ) -> None:
        self.rows = rows
        self.row_index: np.ndarray | None = None
        """``rows`` as an index array, built on the first gathered sample:
        window pair endpoints are plain slices of it, so each sample hands
        the agree-mask kernel zero-copy views.  Clusters served by the
        window table never need one."""
        self.window = initial_window
        self.retire_history = retire_history
        self.zeros = 0
        """Zero-capa samples in a row, since the last non-zero capa or the
        last revive.  Capas are never negative, so the last
        ``retire_history`` capas average 0 exactly when this streak
        reaches ``retire_history``."""
        self.samples = 0
        self.last_capa = 0.0
        self.queue_level: int | None = None
        """MLFQ queue index after the last push (telemetry only)."""
        self.table: np.ndarray | None = None
        """Window-major agree words of a small cluster's window positions;
        its next sample reads the ``cursor``-th row on."""
        self.cursor = 0

    @property
    def exhausted(self) -> bool:
        """No window size left: every regular-interval pair was compared."""
        return self.window > len(self.rows)

    @property
    def retired(self) -> bool:
        """The last ``retire_history`` samples all came up empty (average
        capa 0, Algorithm 1 line 17)."""
        return self.zeros >= self.retire_history

    @property
    def active(self) -> bool:
        return not self.exhausted and not self.retired

    def record(self, capa: float) -> None:
        """Feed one sample's capa into the zero streak.

        Mutates: self
        """
        self.zeros = 0 if capa else self.zeros + 1
        self.last_capa = capa
        self.samples += 1

    def revive(self) -> None:
        """Forget the zero streak so the cluster may be scheduled again.

        Mutates: self
        """
        self.zeros = 0

    def extend(self, rows: tuple[int, ...]) -> None:
        """Grow the cluster in place after an append delta.

        ``rows`` is the cluster's post-append membership, of which this
        state's current rows are a prefix subsequence.  The window size is
        kept: positions already compared pair old rows at smaller windows
        only, so resuming at the current window never repeats a pair —
        new-row pairs the resumed windows skip are covered exhaustively
        by the incremental engine's new-row comparison.  The retirement
        streak is cleared (an extension is fresh signal), and an
        exhausted cluster whose window now fits again becomes eligible.

        Mutates: self
        """
        self.rows = rows
        self.row_index = None
        self.table = None
        self.zeros = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterState(size={len(self.rows)}, window={self.window}, "
            f"capa={self.last_capa:.3f})"
        )


@dataclass
class RoundStats:
    """Bookkeeping of one sampling round."""

    cluster_samples: int = 0
    pairs_compared: int = 0
    new_non_fds: int = 0
    queue_occupancy: tuple[int, ...] = field(default_factory=tuple)


class SamplingModule:
    """Stateful sampler shared by both cycles of EulerFD.

    Every comparison runs inline, never on a worker pool: the MLFQ works
    through one small sample at a time, so a dispatch per sample would
    add latency and no throughput.
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
        # The execution context's shared, deduplicated cluster list.
        self._clusters = [
            ClusterState(rows, config.initial_window, config.retire_history)
            for rows in clusters
        ]
        self._policy = config.mlfq
        self._queue: MultilevelFeedbackQueue[ClusterState] = MultilevelFeedbackQueue(
            self._policy
        )
        # agree mask -> mask of RHS attributes already known violated under it;
        # the exact novelty ledger behind the capa metric.
        self._seen: dict[int, int] = {}
        self.total_pairs = 0
        self.total_new_non_fds = 0
        self.rounds_run = 0
        self.revivals = 0

    @property
    def num_clusters(self) -> int:
        return len(self._clusters)

    # -- scheduling ---------------------------------------------------------

    def has_more(self) -> bool:
        """True when another round could compare at least one pair."""
        return bool(self._queue) or any(c.active for c in self._clusters)

    def revive(self) -> int:
        """Second-cycle re-entry: clear retirement of non-exhausted clusters.

        Returns how many clusters became eligible again.  Window sizes are
        kept, so revived clusters continue with never-seen tuple pairs.

        Mutates: self
        """
        revived = 0
        for cluster in self._clusters:
            if cluster.retired and not cluster.exhausted:
                cluster.revive()
                revived += 1
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
        the module's (now prefix-only) view when given.  Every post-append cluster that contains a new row
        either extends an existing :class:`ClusterState` (matched by its
        pre-append prefix — O(batch) lookups, no re-collection) or enters
        as a fresh state with top scheduling priority.  Duplicate
        post-append clusters across attributes are registered once,
        mirroring the deduplicated cluster lists the module is built
        from.  Call between passes: states in flight inside a pass keep
        their identity, so in-place growth is safe.

        Returns how many clusters were extended or born.

        Mutates: self
        """
        if data is not None:
            self.data = data
        available: dict[tuple[int, ...], list[ClusterState]] = {}
        for state in self._clusters:
            available.setdefault(state.rows, []).append(state)
        first_new: int = delta.first_new  # type: ignore[attr-defined]
        seen_new: set[tuple[int, ...]] = set()
        changed = 0
        born: list[ClusterState] = []
        for column_clusters in delta.touched:  # type: ignore[attr-defined]
            for cluster in column_clusters:
                if cluster in seen_new:
                    continue
                seen_new.add(cluster)
                prefix = tuple(row for row in cluster if row < first_new)
                bucket = available.get(prefix)
                if bucket:
                    state = bucket.pop()
                    state.extend(cluster)
                    available.setdefault(cluster, []).append(state)
                else:
                    born.append(
                        ClusterState(
                            cluster,
                            self.config.initial_window,
                            self.config.retire_history,
                        )
                    )
                changed += 1
        self._clusters.extend(born)
        return changed

    def _refill_queue(self) -> None:
        """Enqueue every eligible cluster; unsampled ones get top priority."""
        if self._policy.adaptive:
            self._policy = _adapted_policy(self._policy, self._clusters)
            self._queue = MultilevelFeedbackQueue(self._policy)
        for cluster in self._clusters:
            if cluster.active:
                capa = cluster.last_capa if cluster.samples else float("inf")
                self._push(cluster, capa)

    def _push(self, cluster: ClusterState, capa: float) -> None:
        """Enqueue a cluster, counting MLFQ promotions and demotions.

        Mutates: self, cluster
        """
        level = self._queue.push(cluster, capa)
        previous = cluster.queue_level
        if previous is not None:
            if level < previous:
                count(MLFQ_PROMOTIONS)
            elif level > previous:
                count(MLFQ_DEMOTIONS)
        cluster.queue_level = level

    def run_pass(self, max_samples: int | None = None) -> tuple[list[Violation], RoundStats]:
        """Drain the MLFQ: one full execution of Algorithm 1's main loop.

        Every eligible cluster enters the queue and is sampled repeatedly
        — highest `capa` first, re-entering the queue after each sample —
        until it exhausts its windows or retires on a zero-capa streak
        (line 17).  Returns the (novel) violations and pass statistics;
        zero pairs compared means the sampler is dry.

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
        while self._queue:
            if max_samples is not None and stats.cluster_samples >= max_samples:
                break
            cluster = self._queue.pop()
            capa = self._sample(cluster, violations, stats)
            stats.cluster_samples += 1
            if cluster.active:
                self._push(cluster, capa)
        stats.queue_occupancy = self._queue.queue_sizes()
        self.rounds_run += 1
        self.total_pairs += stats.pairs_compared
        self.total_new_non_fds += stats.new_non_fds
        count(SAMPLER_PASSES)
        count(SAMPLER_CLUSTER_VISITS, stats.cluster_samples)
        count(SAMPLER_PAIRS_COMPARED, stats.pairs_compared)
        count(SAMPLER_NEW_NON_FDS, stats.new_non_fds)
        gauge(MLFQ_OCCUPANCY, float(len(self._queue)), sizes=stats.queue_occupancy)
        return violations, stats

    # -- the sliding window -------------------------------------------------

    def _build_window_table(self) -> None:
        """Compare every window position of each small cluster at once.

        A size-``s`` cluster's pairs ``(i, i + w - 1)`` are laid out
        window-major, for ``w`` from its current window up to ``s``, so
        each of its samples reads the next slice of one word array.  One
        kernel call per (size, window) class bounds the gather's memory.

        Mutates: self
        """
        classes: dict[tuple[int, int], list[ClusterState]] = {}
        for cluster in self._clusters:
            if cluster.window <= len(cluster.rows) <= SMALL_CLUSTER_ROWS:
                key = (len(cluster.rows), cluster.window)
                classes.setdefault(key, []).append(cluster)
        for (size, window), members in classes.items():
            counts = np.arange(size - window + 1, 0, -1)
            first = np.concatenate([np.arange(n) for n in counts])
            last = first + np.repeat(np.arange(window - 1, size), counts)
            rows = np.array([cluster.rows for cluster in members], dtype=np.intp)
            table = agree_words(
                self.data.matrix, rows[:, first].ravel(), rows[:, last].ravel()
            )
            for index, cluster in enumerate(members):
                cluster.table = table
                cluster.cursor = index * len(first)

    def _sample(
        self, cluster: ClusterState, out: list[Violation], stats: RoundStats
    ) -> float:
        """One sample of one cluster: compare all pairs at the current window.

        Mutates: self, cluster, out, stats
        """
        window = cluster.window
        num_positions = len(cluster.rows) - window + 1
        if cluster.table is not None:
            words = cluster.table[cluster.cursor : cluster.cursor + num_positions]
            cluster.cursor += num_positions
        else:
            if cluster.row_index is None:
                cluster.row_index = np.asarray(cluster.rows, dtype=np.intp)
            rows = cluster.row_index
            words = agree_words(
                self.data.matrix,
                rows[:num_positions],
                rows[window - 1 :],
                distinct=True,
            )
        new_count = 0
        seen = self._seen
        for agree in decode_agree_words(words):
            # Single seen-dict lookup per mask: the update reuses the read.
            prior = seen.get(agree, 0)
            novel = (self._universe & ~agree) & ~prior
            if novel:
                seen[agree] = prior | novel
                new_count += novel.bit_count()
                out.append((agree, novel))
        stats.pairs_compared += num_positions
        stats.new_non_fds += new_count
        if new_count:
            # A window position that still yields novel violations: the
            # signal the MLFQ uses to keep a cluster hot (Fig. 3).
            count(SAMPLER_WINDOW_HITS)
        capa = new_count / num_positions if num_positions else 0.0
        cluster.record(capa)
        cluster.window += 1
        return capa


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


def _adapted_policy(policy: MlfqPolicy, clusters: list[ClusterState]) -> MlfqPolicy:
    """Future-work extension (Section VI): re-divide capa ranges at runtime.

    Queue bounds are re-drawn from the quantiles of the recently observed
    positive capa values, so queue occupancy stays balanced even when the
    static decade ranges of Table IV fit the data poorly.  Falls back to
    the current bounds when there is not enough signal.
    """
    observed = sorted(
        (c.last_capa for c in clusters if c.samples and c.last_capa > 0),
        reverse=True,
    )
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
