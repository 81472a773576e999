"""The inversion module (Algorithm 3, Fig. 5).

Inversion turns the negative cover into the positive cover: every FD
candidate that generalizes a known non-FD is invalid (Lemma 1), so it is
removed and replaced by its minimal specializations that escape the
non-FD's LHS.

The inverter here is *incremental*: it processes only the non-FDs added to
the negative cover since the previous inversion, against the persistent
positive cover.  This is equivalent to re-running the batch algorithm —
after processing a non-FD ``X``, no cover entry is a subset of ``X``, and
every later candidate inherits an attribute outside ``X`` from its parent,
so processing order between non-FDs is irrelevant — while doing only the
marginal work each cycle, which is exactly what the double-cycle structure
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from ..fd import FD, PositiveCover
from ..fd.covers import CoverEdit
from ..fd.fd import sort_for_cover_insertion
from ..obs import count
from ..obs.names import (
    INVERTER_CANDIDATES_ADDED,
    INVERTER_CANDIDATES_REMOVED,
    INVERTER_NON_FDS_INVERTED,
    PCOVER_ADDED,
    PCOVER_REMOVED,
)


@dataclass
class InversionStats:
    """Bookkeeping of one inversion run."""

    non_fds_processed: int = 0
    candidates_removed: int = 0
    candidates_added: int = 0


class Inverter:
    """Specializes a persistent positive cover against incoming non-FDs."""

    def __init__(self, num_attributes: int) -> None:
        self.num_attributes = num_attributes
        self.pcover = PositiveCover(num_attributes)

    def process(
        self, non_fds: Iterable[FD], edits: list[CoverEdit] | None = None
    ) -> InversionStats:
        """Invert a batch of non-FDs into the positive cover (Alg. 3, 11-20).

        Different RHSs' antichains never interact, so round ``k`` applies
        the ``k``-th non-FD of every RHS, in cover-insertion order.  When
        ``edits`` is given, each RHS a round changed appends its
        ``(rhs, removed, added)`` LHS masks to it, so a caller can replay
        the batch onto a copy of the cover's FDs.

        Mutates: self, edits
            (specializes ``self.pcover`` in place; the batch itself is
            only read)
        """
        stats = InversionStats()
        queues: list[list[FD]] = [[] for _ in range(self.num_attributes)]
        for non_fd in sort_for_cover_insertion(non_fds):
            queues[non_fd.rhs].append(non_fd)
        for step in range(max(map(len, queues))):
            batch = [queue[step] for queue in queues if step < len(queue)]
            removed, added = self.pcover.specialize_round(batch, edits)
            stats.candidates_removed += removed
            stats.candidates_added += added
            stats.non_fds_processed += len(batch)
        count(INVERTER_NON_FDS_INVERTED, stats.non_fds_processed)
        count(INVERTER_CANDIDATES_REMOVED, stats.candidates_removed)
        count(INVERTER_CANDIDATES_ADDED, stats.candidates_added)
        if stats.candidates_removed:
            count(PCOVER_REMOVED, stats.candidates_removed)
        if stats.candidates_added:
            count(PCOVER_ADDED, stats.candidates_added)
        return stats
