"""AID-FD — approximate induction with naive non-repeating sampling [3].

The representative approximate baseline of the paper (Bleifuß et al.,
CIKM 2016).  Differences from EulerFD that the evaluation isolates:

* sampling sweeps every cluster uniformly at increasing pair distances —
  no notion of per-cluster contribution, so quiet clusters are revisited
  exactly as often as productive ones;
* one global stopping criterion: sampling halts for good once the
  negative cover's growth rate per sweep drops below the threshold;
* inversion runs exactly once at the end — there is no second cycle and
  no possibility of re-sampling after inspecting the positive cover.
"""

from __future__ import annotations

from ..core.inversion import Inverter
from ..core.result import DiscoveryResult, Stopwatch, make_result
from ..core.sampler import distance_pairs
from ..engine import acquire_context
from ..engine.parallel import agree_masks_sharded
from ..fd import FD, NegativeCover, attrset
from ..obs import count, phase, point
from ..obs.names import AIDFD_PAIRS_COMPARED, GR_NCOVER, INVERSION, SAMPLING
from ..relation.preprocess import decode_agree_words
from ..relation.relation import Relation
from .base import register


@register("aidfd")
class AidFd:
    """Approximate discovery: round-based sampling, single inversion."""

    name = "AID-FD"
    kind = "approximate"

    def __init__(
        self,
        threshold: float = 0.01,
        null_equals_null: bool = True,
        max_sweeps: int | None = None,
    ) -> None:
        if threshold < 0:
            raise ValueError("the growth threshold must be non-negative")
        self.threshold = threshold
        self.null_equals_null = null_equals_null
        self.max_sweeps = max_sweeps

    def discover(self, relation: Relation) -> DiscoveryResult:
        watch = Stopwatch()
        context = acquire_context(relation, self.null_equals_null)
        data = context.data
        num_attributes = data.num_columns
        universe = attrset.universe(num_attributes)

        clusters = context.sampling_clusters()
        ncover = NegativeCover(num_attributes)
        pending: list[FD] = []
        ncover.add_empty_lhs(data.cardinalities, pending)

        seen: dict[int, int] = {}
        pairs_compared = 0
        sweeps = 0
        distance = 1
        while True:
            if self.max_sweeps is not None and sweeps >= self.max_sweeps:
                break
            size_before = max(len(ncover), 1)
            added = 0
            with phase(SAMPLING, sweep=sweeps + 1):
                rows_a, rows_b = distance_pairs(clusters, distance)
                swept_pairs = len(rows_a)
                words = agree_masks_sharded(
                    context.pool, data, rows_a, rows_b, distinct=True
                )
                for agree in decode_agree_words(words):
                    novel = (universe & ~agree) & ~seen.get(agree, 0)
                    if not novel:
                        continue
                    seen[agree] = seen.get(agree, 0) | novel
                    added += ncover.add_violations(agree, novel, pending)
                count(AIDFD_PAIRS_COMPARED, swept_pairs)
            sweeps += 1
            pairs_compared += swept_pairs
            point(GR_NCOVER, float(sweeps), added / size_before)
            if swept_pairs == 0:
                break  # every cluster exhausted: the cover is exact
            if added / size_before <= self.threshold:
                break  # termination criterion reached; AID-FD never resumes
            distance += 1

        inverter = Inverter(num_attributes)
        with phase(INVERSION):
            inversion = inverter.process(pending)
        return make_result(
            inverter.pcover,
            self.name,
            relation.name,
            relation.num_rows,
            num_attributes,
            relation.column_names,
            watch,
            stats={
                "sweeps": sweeps,
                "pairs_compared": pairs_compared,
                "ncover_size": len(ncover),
                "pcover_size": len(inverter.pcover),
                "candidates_added": inversion.candidates_added,
            },
        )
