"""Incremental FD maintenance under tuple insertions.

DMS re-profiles production tables on a schedule (Section V-G processes
half a million datasets a week); most of those tables only *grew* since
the last run.  Insertions can only invalidate FDs, never revalidate them
— a new tuple adds violating pairs but removes none — so the discovery
state moves monotonically down the lattice and the negative-cover /
inversion machinery can absorb batches of new rows without starting over.

:class:`IncrementalEulerFD` keeps the covers alive across appends:

* the **base** relation is profiled once — either exhaustively (every
  tuple pair, exact) or with EulerFD's sampling (approximate); the
  sampler is dropped afterwards, since nothing samples an append;
* each **append** flows through the delta execution engine
  (DESIGN.md §12): the owned :class:`~repro.engine.ExecutionContext`
  grows its preprocessed label matrix and label → rows lists in place,
  building no partition, and the returned
  :class:`~repro.relation.preprocess.AppendDelta` names exactly the
  clusters the new rows landed in.  :func:`partner_pairs` reads every
  pair involving a new tuple that could violate anything off those
  touched clusters in one vectorized step, deduplicated across
  attributes by one sort, and their agree masks stream through the same
  incremental inverter;
* the **result** is a live FD set: the first snapshot seeds it from the
  positive cover, and each later append replays the inverter's cover
  edits onto it, so a snapshot is one frozenset copy and its
  ``fds_added``/``fds_retracted`` are the edits' net effect.

With an exhaustive base, the maintained cover stays exact after every
append (property-tested against from-scratch discovery); with a sampled
base it keeps EulerFD's approximation guarantees while doing only
O(batch × cluster) work per append — no re-encoding, no partition
(the append path reads none), no per-cluster Python loop, and no
rebuild of the result from the cover.
"""

from __future__ import annotations

from itertools import chain
from typing import Any

import numpy as np

from ..algorithms.fdep import compute_agree_masks
from ..engine.backends import Backend
from ..engine.context import ExecutionContext
from ..engine.parallel import WorkerPool, agree_masks_sharded
from ..fd import FD, NegativeCover, attrset
from ..obs import count, phase
from ..obs.names import (
    APPEND,
    APPEND_COMPARE,
    APPEND_SNAPSHOT,
    INCREMENTAL_PAIRS_COMPARED,
    INCREMENTAL_ROWS_TOTAL,
    INVERSION,
    PROFILE_BASE,
)
from ..relation.preprocess import AppendDelta, decode_agree_words
from ..relation.relation import Relation
from .config import EulerFDConfig
from .inversion import CoverEdit, Inverter
from .result import DiscoveryResult, Stopwatch, make_result
from .sampler import SamplingModule


def partner_pairs(delta: AppendDelta) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct pair ``(a, b)``, ``a < b``, of cluster-mates with ``b`` new.

    Within a touched cluster (ascending rows) every new member pairs with
    all earlier members, which lists each pair involving a new row once
    per attribute without regrouping the matrix.  With the clusters
    concatenated, a new member at position ``p`` of a cluster starting
    at ``start`` pairs with positions ``start .. start + p - 1``: one
    ``np.repeat`` plus one ``arange`` list them all.  One in-place sort of
    the ``a * num_rows + b`` keys drops cross-attribute duplicates in the
    canonical admit order (RPR107); ``np.unique`` would load ``numpy.ma``.

    Pure: reads the delta only; returns fresh ``intp`` arrays.
    """
    clusters = [cluster for column in delta.touched for cluster in column]
    sizes = np.fromiter(map(len, clusters), dtype=np.int64, count=len(clusters))
    members = np.fromiter(
        chain.from_iterable(clusters), dtype=np.int64, count=int(sizes.sum())
    )
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    new = np.flatnonzero(members >= delta.first_new)
    # a new member's earlier cluster-mates: positions starts[i] .. i - 1
    mates = new - starts[new]
    first_pair = np.cumsum(mates) - mates
    partners = np.arange(int(mates.sum()), dtype=np.int64) + np.repeat(
        starts[new] - first_pair, mates
    )
    num_rows = delta.num_rows
    keys = members[partners] * num_rows + np.repeat(members[new], mates)
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0
    return (keys // num_rows).astype(np.intp), (keys % num_rows).astype(np.intp)


class IncrementalEulerFD:
    """FD discovery state that survives tuple insertions."""

    def __init__(
        self,
        relation: Relation,
        config: EulerFDConfig | None = None,
        exhaustive_base: bool = False,
        jobs: int | str | WorkerPool | None = None,
        backend: str | Backend | None = None,
    ) -> None:
        self.config = config if config is not None else EulerFDConfig()
        self.exhaustive_base = exhaustive_base
        # The engine owns a private delta-enabled context: appends extend
        # the label dictionaries, label matrix and singleton partitions
        # in place instead of re-preprocessing the grown relation.
        self.context = ExecutionContext(
            relation,
            backend=backend,
            null_equals_null=self.config.null_equals_null,
            jobs=jobs,
            delta=True,
        )
        self.pool = self.context.pool
        self._column_names = relation.column_names
        self._name = relation.name
        self.num_attributes = relation.num_columns
        self._universe = attrset.universe(self.num_attributes)
        self.ncover = NegativeCover(self.num_attributes)
        self.inverter = Inverter(self.num_attributes)
        self._seen: dict[int, int] = {}
        # The cover as FDs, seeded by the first snapshot.  Each later
        # append replays the inverter's edits onto it, and the next
        # snapshot reports their net effect.
        self._live: set[FD] | None = None
        self._added = 0
        self._retracted = 0
        self.appends = 0
        self.pairs_compared = 0
        self._profile_base()

    # -- public API -------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self.context.num_rows

    def append(self, rows: list[tuple[Any, ...]]) -> DiscoveryResult:
        """Insert ``rows`` and return the refreshed discovery result.

        The result's ``stats`` carry ``fds_added`` / ``fds_retracted``
        relative to the previous snapshot (this append's result, or a
        :meth:`current_result` taken since); the first snapshot has no
        previous one and carries neither.  Callers wanting the FDs
        themselves diff two results via :meth:`DiscoveryResult.diff`.

        Mutates: self
        """
        watch = Stopwatch()
        for row in rows:
            if len(row) != self.num_attributes:
                raise ValueError(
                    f"row arity {len(row)} != schema width {self.num_attributes}"
                )
        self.appends += 1
        with phase(APPEND, batch=self.appends, rows=len(rows)):
            count(INCREMENTAL_ROWS_TOTAL, len(rows))
            delta = self.context.append_rows(rows)
            with phase(APPEND_COMPARE, batch=self.appends):
                pending = self._compare_new_rows(delta)
            with phase(INVERSION, batch=self.appends):
                self._invert(pending)
            with phase(APPEND_SNAPSHOT, batch=self.appends):
                return self._snapshot(watch)

    def current_result(self) -> DiscoveryResult:
        """The current cover without new work: a snapshot, like an append's.

        Mutates: self
        """
        return self._snapshot(Stopwatch())

    # -- internals ----------------------------------------------------------------

    def _profile_base(self) -> None:
        with phase(PROFILE_BASE, exhaustive=self.exhaustive_base):
            data = self.context.data
            pending: list[FD] = []
            self.ncover.add_empty_lhs(data.cardinalities, pending)
            if self.exhaustive_base:
                # sorted(): canonical admit order for the base profile (RPR107)
                for agree in sorted(compute_agree_masks(data, pool=self.pool)):
                    self._admit(agree, self._universe & ~agree, pending)
                self.pairs_compared += data.num_rows * (data.num_rows - 1) // 2
            else:
                sampler = SamplingModule(
                    data, self.config, clusters=self.context.sampling_clusters()
                )
                while sampler.has_more():
                    violations, stats = sampler.run_pass()
                    if stats.pairs_compared == 0:
                        break
                    for agree, novel in violations:
                        self._admit(agree, novel, pending)
                    sampler.revive()
                self.pairs_compared += sampler.total_pairs
            self.inverter.process(pending)

    def _compare_new_rows(self, delta: AppendDelta) -> list[FD]:
        """Compare each new tuple against every cluster-mate (old and new).

        The pairs come from :func:`partner_pairs`, in canonical admit
        order (RPR107).  Work is O(batch × cluster), never O(relation).

        Mutates: self
        """
        data = self.context.data
        pending: list[FD] = []
        self.ncover.add_empty_lhs(delta.cardinalities, pending)
        rows_a, rows_b = partner_pairs(delta)
        self.pairs_compared += int(rows_a.size)
        count(INCREMENTAL_PAIRS_COMPARED, int(rows_a.size))
        if rows_a.size:
            # A repeated mask admits nothing: only first occurrences decode.
            words = agree_masks_sharded(self.pool, data, rows_a, rows_b, distinct=True)
            for agree in decode_agree_words(words):
                self._admit(agree, self._universe & ~agree, pending)
        return pending

    def _admit(self, agree: int, rhs_mask: int, pending: list[FD]) -> None:
        # Single seen-dict lookup: the admit path runs once per sampled
        # mask, so the doubled .get() it used to do was pure overhead.
        prior = self._seen.get(agree, 0)
        novel = rhs_mask & ~prior
        if not novel:
            return
        self._seen[agree] = prior | novel
        self.ncover.add_violations(agree, novel, pending)

    def _invert(self, pending: list[FD]) -> None:
        """Invert ``pending`` and replay the cover's edits onto the live set.

        Until the first snapshot seeds the live set, no edit is kept.  A
        removed FD generalizes a processed non-FD, so it is invalid for
        good (Lemma 1) and no later edit adds it back: an FD that the
        batch both adds and removes was added first, and counts for
        neither.

        Mutates: self
        """
        live = self._live
        if live is None:
            self.inverter.process(pending)
            return
        edits: list[CoverEdit] = []
        self.inverter.process(pending, edits)
        born = {FD(lhs, rhs) for rhs, _, added in edits for lhs in added}
        gone = {FD(lhs, rhs) for rhs, removed, _ in edits for lhs in removed}
        size = len(live)
        live -= gone
        self._retracted += size - len(live)
        born -= gone
        live |= born
        self._added += len(born)

    def _snapshot(self, watch: Stopwatch) -> DiscoveryResult:
        """The result over the live FD set.

        The first snapshot seeds the set from the cover and reports no
        ``fds_added``/``fds_retracted``: there is no previous result to
        count them against.

        Mutates: self
        """
        live = self._live
        first = live is None
        if live is None:
            # DiscoveryResult stores a frozenset and sorts when iterated,
            # so the live set needs no order.
            live = self._live = set(self.inverter.pcover)  # pragma: repro-lint ordered
        stats: dict[str, Any] = {
            "appends": self.appends,
            "pairs_compared": self.pairs_compared,
            "ncover_size": len(self.ncover),
            "pcover_size": len(live),
            "exhaustive_base": self.exhaustive_base,
        }
        if not first:
            stats["fds_added"] = self._added
            stats["fds_retracted"] = self._retracted
        self._added = self._retracted = 0
        return make_result(
            frozenset(live),
            "IncrementalEulerFD",
            self._name,
            self.num_rows,
            self.num_attributes,
            self._column_names,
            watch,
            stats=stats,
        )
