"""The EulerFD driver: four modules wired into the double-cycle (Fig. 1).

Control flow per Section IV:

1. *Preprocess* the relation into a label matrix and stripped partitions.
2. **First cycle** — alternate sampling rounds with negative-cover
   construction while the cover's growth rate ``GR_Ncover`` stays above
   ``Th_Ncover`` (Algorithm 2, lines 6-10).
3. *Invert* the newly gathered non-FDs into the positive cover and
   evaluate ``GR_Pcover``; while it exceeds ``Th_Pcover``, return to
   sampling — the **second cycle** (Algorithm 3, lines 5-9).
4. Emit the positive cover as the approximate set of non-trivial minimal
   FDs.

One exactness shortcut: the empty-LHS violations ``{} -/-> A`` are read
directly off the per-column cardinalities during preprocessing (a column
with two distinct values can never be constant).  Sampling inside clusters
can never observe an empty agree set, so without the seed the degenerate
all-unique relation would be mis-profiled.
"""

from __future__ import annotations

from ..engine import acquire_context
from ..fd import FD, NegativeCover
from ..obs import phase, point
from ..obs.names import CYCLE, GR_NCOVER, GR_PCOVER, INVERSION, NCOVER, SAMPLING
from ..relation.relation import Relation
from .config import EulerFDConfig
from .inversion import Inverter
from .result import DiscoveryResult, Stopwatch, make_result
from .sampler import SamplingModule


class EulerFD:
    """Approximate FD discovery via adaptive sampling and double-cycle
    induction (the paper's contribution)."""

    name = "EulerFD"
    kind = "approximate"

    def __init__(self, config: EulerFDConfig | None = None) -> None:
        self.config = config if config is not None else EulerFDConfig()

    def discover(self, relation: Relation) -> DiscoveryResult:
        """Run EulerFD on ``relation`` and return the discovered FDs."""
        watch = Stopwatch()
        config = self.config
        context = acquire_context(relation, config.null_equals_null)
        data = context.data
        num_attributes = data.num_columns

        ncover = NegativeCover(num_attributes)
        inverter = Inverter(num_attributes)
        # Non-FDs admitted to the negative cover but not yet inverted.
        pending: list[FD] = []
        ncover.add_empty_lhs(data.cardinalities, pending)

        sampler = SamplingModule(data, config, clusters=context.sampling_clusters())
        cycles = 0
        rounds = 0
        inversions = 0
        final_gr_ncover = 0.0
        final_gr_pcover = 0.0

        while cycles < config.max_cycles:
            cycles += 1
            with phase(CYCLE, cycle=cycles):
                # ---- first cycle: sampling vs negative-cover growth ------
                # Each iteration is a full Algorithm-1 drain; while the
                # negative cover keeps growing fast, retired clusters get a
                # fresh streak and sampling continues (Alg. 2, lines 7-8).
                while True:
                    with phase(SAMPLING, cycle=cycles):
                        violations, pass_stats = sampler.run_pass()
                    if pass_stats.pairs_compared == 0:
                        break  # the sampler is dry; hand over to inversion
                    rounds += 1
                    size_before = max(len(ncover), 1)
                    with phase(NCOVER, cycle=cycles):
                        # Algorithm 2: admit the violations, counting growth
                        added = sum(
                            ncover.add_violations(agree, novel, pending)
                            for agree, novel in violations
                        )
                    final_gr_ncover = added / size_before
                    # The trajectory behind Algorithm 2's stopping rule
                    # (paper Fig. 11): one point per sampling round.
                    point(GR_NCOVER, rounds, final_gr_ncover, cycle=cycles)
                    if final_gr_ncover <= config.th_ncover:
                        break
                    sampler.revive()
                # ---- inversion and the second cycle ----------------------
                pcover_before = max(len(inverter.pcover), 1)
                with phase(INVERSION, cycle=cycles):
                    inversion_stats = inverter.process(pending)
                pending.clear()
                inversions += 1
                final_gr_pcover = inversion_stats.candidates_added / pcover_before
                point(GR_PCOVER, cycles, final_gr_pcover, cycle=cycles)
            if final_gr_pcover <= config.th_pcover:
                break
            if not sampler.has_more() and sampler.revive() == 0:
                break  # nothing left to sample, accept the current cover

        return make_result(
            inverter.pcover,
            self.name,
            relation.name,
            relation.num_rows,
            num_attributes,
            relation.column_names,
            watch,
            stats={
                "cycles": cycles,
                "sampling_rounds": rounds,
                "inversions": inversions,
                "pairs_compared": sampler.total_pairs,
                "new_non_fds": sampler.total_new_non_fds,
                "ncover_size": len(ncover),
                "pcover_size": len(inverter.pcover),
                "clusters": sampler.num_clusters,
                "revivals": sampler.revivals,
                "final_gr_ncover": final_gr_ncover,
                "final_gr_pcover": final_gr_pcover,
            },
        )
