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

from ..fd import FD, PositiveCover, attrset
from ..fd.fd import sort_for_cover_insertion
from ..obs import count
from ..obs.names import (
    INVERTER_CANDIDATES_ADDED,
    INVERTER_CANDIDATES_REMOVED,
    INVERTER_NON_FDS_INVERTED,
)


@dataclass
class InversionStats:
    """Bookkeeping of one inversion run."""

    non_fds_processed: int = 0
    candidates_removed: int = 0
    candidates_added: int = 0


class Inverter:
    """Specializes a persistent positive cover against incoming non-FDs."""

    def __init__(self, num_attributes: int, pcover: PositiveCover | None = None) -> None:
        self.num_attributes = num_attributes
        self.pcover = (
            pcover if pcover is not None else PositiveCover(num_attributes)
        )
        self._universe = attrset.universe(num_attributes)

    def process(self, non_fds: Iterable[FD]) -> InversionStats:
        """Invert a batch of non-FDs into the positive cover (Alg. 3, 11-20).

        Mutates: self
            (specializes ``self.pcover`` in place; the batch itself is
            only read)
        """
        stats = InversionStats()
        for non_fd in sort_for_cover_insertion(non_fds):
            self._invert_one(non_fd, stats)
            stats.non_fds_processed += 1
        count(INVERTER_NON_FDS_INVERTED, stats.non_fds_processed)
        count(INVERTER_CANDIDATES_REMOVED, stats.candidates_removed)
        count(INVERTER_CANDIDATES_ADDED, stats.candidates_added)
        return stats

    def _invert_one(self, non_fd: FD, stats: InversionStats) -> None:
        """Replace every candidate invalidated by one non-FD (Alg. 3 body).

        Mutates: self, stats
        """
        pcover = self.pcover
        rhs = non_fd.rhs
        rhs_bit = attrset.singleton(rhs)
        tree = pcover.index_for(rhs)
        # Attributes allowed to extend an invalidated candidate: anything
        # outside the non-FD's LHS and distinct from the RHS, so the new
        # candidate provably escapes this violation.
        extensions = self._universe & ~non_fd.lhs & ~rhs_bit
        for general in tree.find_subsets(non_fd.lhs):
            pcover.remove(FD(general, rhs))
            stats.candidates_removed += 1
            remaining = extensions
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                candidate_lhs = general | bit
                # A stored generalization of ``general | bit`` must contain
                # ``bit`` (otherwise it would have been a subset of the
                # antichain member ``general``), so the restricted query
                # applies; and when none exists, no stored specialization
                # can exist either — take the eviction-free insertion path.
                if tree.contains_subset_containing(
                    candidate_lhs, bit.bit_length() - 1
                ):
                    continue
                pcover.add_minimal(FD(candidate_lhs, rhs))
                stats.candidates_added += 1
