"""HyFD — hybrid sampling + induction + validation [26].

HyFD alternates two phases until the candidate set is *provably* exact:

1. **Sampling/induction** — compare tuple pairs drawn from partition
   clusters at progressively larger distances, grow the negative cover,
   and invert it into candidate FDs (shared machinery with EulerFD).
2. **Validation** — check every candidate against the *entire* relation.
   Each violated candidate contributes the full agree set of a violating
   tuple pair back to the negative cover, and control returns to phase 1.

The loop terminates when a validation pass finds no violations, at which
point the positive cover is exact: every FD it contains was verified on
all tuples, and minimality is maintained by the inversion machinery.

The phase-switching heuristic follows the original: sampling continues
while it stays "efficient" (novel violations per compared pair above a
threshold), otherwise control moves to validation — the design that
Table III shows paying off on large-but-regular datasets and drowning in
candidate counts on wide ones.
"""

from __future__ import annotations

from ..core.inversion import Inverter
from ..core.result import DiscoveryResult, Stopwatch, make_result
from ..core.sampler import distance_pairs
from ..engine import acquire_context
from ..engine.parallel import WorkerPool, agree_masks_sharded
from ..fd import FD, NegativeCover, attrset
from ..obs import count, phase
from ..obs.names import (
    HYFD_PAIRS_COMPARED,
    HYFD_VALIDATIONS,
    HYFD_VIOLATED_CANDIDATES,
    INVERSION,
    SAMPLING,
    VALIDATION,
)
from ..relation.preprocess import PreprocessedRelation, decode_agree_words
from ..relation.relation import Relation
from .base import register


@register("hyfd")
class HyFD:
    """Exact hybrid FD discovery."""

    name = "HyFD"
    kind = "exact"

    def __init__(
        self,
        efficiency_threshold: float = 0.005,
        null_equals_null: bool = True,
        max_iterations: int = 10_000,
    ) -> None:
        if efficiency_threshold < 0:
            raise ValueError("efficiency threshold must be non-negative")
        self.efficiency_threshold = efficiency_threshold
        self.null_equals_null = null_equals_null
        self.max_iterations = max_iterations

    def discover(self, relation: Relation) -> DiscoveryResult:
        watch = Stopwatch()
        context = acquire_context(relation, self.null_equals_null)
        data = context.data
        num_attributes = data.num_columns
        universe = attrset.universe(num_attributes)

        ncover = NegativeCover(num_attributes)
        inverter = Inverter(num_attributes)
        pending: list[FD] = []
        ncover.add_empty_lhs(data.cardinalities, pending)
        seen: dict[int, int] = {
            attrset.EMPTY: attrset.from_indices(fd.rhs for fd in pending)
        }

        clusters = context.sampling_clusters()
        distance = 1
        pairs_compared = 0
        validations = 0
        sampling_phases = 0
        validation_phases = 0

        for _ in range(self.max_iterations):
            # ---- phase 1: sampling while efficient -----------------------
            sampling_phases += 1
            phase_pairs = 0
            with phase(SAMPLING, phase=sampling_phases):
                while True:
                    swept, novel = self._sweep(data, clusters, distance, ncover,
                                               pending, seen, universe,
                                               context.pool)
                    pairs_compared += swept
                    phase_pairs += swept
                    distance += 1
                    if swept == 0:
                        break
                    if novel / swept < self.efficiency_threshold:
                        break
                count(HYFD_PAIRS_COMPARED, phase_pairs)
            with phase(INVERSION, phase=sampling_phases):
                inverter.process(pending)
            pending.clear()
            # ---- phase 2: full validation --------------------------------
            # One batched pass over the candidate cover: the context sorts
            # by LHS and folds each distinct LHS's group keys exactly once,
            # so the per-candidate cost collapses to the RHS check.
            validation_phases += 1
            violated = 0
            with phase(VALIDATION, phase=validation_phases):
                outcomes = context.validate_many(
                    list(inverter.pcover), witnesses=True
                )
                validations += len(outcomes)
                for outcome in outcomes:
                    if outcome.holds:
                        continue
                    violated += 1
                    row_a, row_b = outcome.witness
                    agree = data.agree_mask(row_a, row_b)
                    novel_mask = (universe & ~agree) & ~seen.get(agree, 0)
                    if novel_mask:
                        self._admit(agree, novel_mask, ncover, pending, seen)
                count(HYFD_VALIDATIONS, len(outcomes))
                count(HYFD_VIOLATED_CANDIDATES, violated)
            if violated == 0 and not pending:
                break
            inverter.process(pending)
            pending.clear()
        else:
            raise RuntimeError("HyFD did not converge within max_iterations")

        return make_result(
            inverter.pcover,
            self.name,
            relation.name,
            relation.num_rows,
            num_attributes,
            relation.column_names,
            watch,
            stats={
                "pairs_compared": pairs_compared,
                "validations": validations,
                "sampling_phases": sampling_phases,
                "validation_phases": validation_phases,
                "ncover_size": len(ncover),
            },
        )

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _admit(
        agree: int,
        rhs_mask: int,
        ncover: NegativeCover,
        pending: list[FD],
        seen: dict[int, int],
    ) -> None:
        seen[agree] = seen.get(agree, 0) | rhs_mask
        ncover.add_violations(agree, rhs_mask, pending)

    def _sweep(
        self,
        data: PreprocessedRelation,
        clusters: list[tuple[int, ...]],
        distance: int,
        ncover: NegativeCover,
        pending: list[FD],
        seen: dict[int, int],
        universe: int,
        pool: WorkerPool,
    ) -> tuple[int, int]:
        """Compare all intra-cluster pairs at ``distance``; return (pairs, novel).

        One distinct-mask kernel call covers every cluster's pairs,
        concatenated in cluster order: a repeated mask is never novel, so
        the seen-dict and cover updates replay the per-cluster loop's.
        """
        rows_a, rows_b = distance_pairs(clusters, distance)
        words = agree_masks_sharded(pool, data, rows_a, rows_b, distinct=True)
        novel_total = 0
        for agree in decode_agree_words(words):
            novel = (universe & ~agree) & ~seen.get(agree, 0)
            if novel:
                novel_total += novel.bit_count()
                self._admit(agree, novel, ncover, pending, seen)
        return len(rows_a), novel_total
