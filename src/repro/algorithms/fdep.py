"""Fdep — dependency induction by exhaustive pairwise comparison [11].

Fdep compares *every* pair of tuples, collects the complete negative
cover, and inverts it into the positive cover.  It scales well with the
number of attributes (the lattice is never enumerated) but quadratically
with the number of tuples — exactly the trade-off Table III shows, where
Fdep wins on narrow-and-short relations and times out on lineitem/weather.

Our implementation vectorizes the pairwise agree-set computation with
numpy (compare one label row against all following rows, pack the
equality bits) and reuses the shared negative-cover + inversion machinery,
so the induction semantics are byte-identical to EulerFD's.
"""

from __future__ import annotations

from ..core.inversion import Inverter
from ..core.result import DiscoveryResult, Stopwatch, make_result
from ..engine import acquire_context
from ..engine.parallel import WorkerPool, distinct_agree_masks_sharded
from ..fd import FD, NegativeCover, attrset
from ..obs import phase
from ..obs.names import AGREE_SETS, INVERSION, NCOVER
from ..relation.preprocess import PreprocessedRelation, decode_agree_words
from ..relation.relation import Relation
from .base import register


@register("fdep")
class Fdep:
    """Exact FD induction from all-pairs comparisons."""

    name = "Fdep"
    kind = "exact"

    def __init__(self, null_equals_null: bool = True) -> None:
        self.null_equals_null = null_equals_null

    def discover(self, relation: Relation) -> DiscoveryResult:
        watch = Stopwatch()
        context = acquire_context(relation, self.null_equals_null)
        data = context.data
        num_attributes = data.num_columns
        with phase(AGREE_SETS):
            # sorted(): canonicalize the agree-set order so negative-cover
            # insertion never depends on set iteration order (RPR107).
            agree_masks = sorted(compute_agree_masks(data, pool=context.pool))
        ncover = NegativeCover(num_attributes)
        pending: list[FD] = []
        universe = attrset.universe(num_attributes)
        with phase(NCOVER):
            for agree in agree_masks:
                ncover.add_violations(agree, universe & ~agree, pending)
        inverter = Inverter(num_attributes)
        with phase(INVERSION):
            inversion = inverter.process(pending)
        pairs = relation.num_rows * (relation.num_rows - 1) // 2
        return make_result(
            inverter.pcover,
            self.name,
            relation.name,
            relation.num_rows,
            num_attributes,
            relation.column_names,
            watch,
            stats={
                "pairs_compared": pairs,
                "distinct_agree_sets": len(agree_masks),
                "ncover_size": len(ncover),
                "candidates_added": inversion.candidates_added,
            },
        )


def compute_agree_masks(
    data: PreprocessedRelation, pool: WorkerPool | None = None
) -> set[int]:
    """Distinct agree sets over all tuple pairs, as bitmasks.

    Each anchor row is compared with every later row in one broadcast
    block, and only each block's distinct masks are decoded.  With a
    parallel ``pool``, anchor ranges fan out across the workers and merge
    in range order; the set receives new elements in exactly the serial
    scan's insertion sequence, so the sweep is byte-identical at any
    worker count.

    The *full* agree set (mask of all attributes) is excluded: duplicate
    tuples violate nothing.
    """
    masks = set(decode_agree_words(distinct_agree_masks_sharded(pool, data)))
    masks.discard(attrset.universe(data.num_columns))
    return masks
