"""Discovery of approximate dependencies: minimal FDs with g3 <= ε.

Kruse & Naumann [18] (and Tane's approximate mode before them) relax the
FD definition itself: ``X -> A`` is an *approximate dependency* at error
threshold ε when deleting at most an ε-fraction of tuples makes it exact
(the g3 measure of :mod:`repro.metrics.error`).  This is orthogonal to
the paper's notion of approximate *discovery* — here the dependencies are
soft, the search is exhaustive — and is exactly what Section II-C
contrasts EulerFD against.

g3 is monotone non-increasing in the LHS, so ε-validity is upward-closed
in the lattice and the minimal ε-valid FDs are found level-wise with
subset pruning, like Tane but with the error-tolerant validity test.

At ε = 0 the output coincides with exact discovery (property-tested
against the brute-force oracle).
"""

from __future__ import annotations

from itertools import combinations

from ..core.result import DiscoveryResult, Stopwatch, make_result
from ..engine import acquire_context
from ..fd import FD, attrset
from ..metrics.error import violation_profile
from ..relation.preprocess import PreprocessedRelation
from ..relation.relation import Relation


class ApproxFDs:
    """Level-wise discovery of minimal ε-approximate dependencies."""

    name = "ApproxFDs"
    kind = "approximate"

    def __init__(
        self,
        epsilon: float = 0.01,
        null_equals_null: bool = True,
        max_columns: int = 20,
    ) -> None:
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
        self.epsilon = epsilon
        self.null_equals_null = null_equals_null
        self.max_columns = max_columns

    def discover(self, relation: Relation) -> DiscoveryResult:
        if relation.num_columns > self.max_columns:
            raise ValueError(
                f"ApproxFDs enumerates the lattice per RHS; "
                f"{relation.num_columns} columns exceeds the "
                f"max_columns={self.max_columns} safety bound"
            )
        watch = Stopwatch()
        data = acquire_context(relation, self.null_equals_null).data
        num_attributes = data.num_columns
        fds: list[FD] = []
        checks = 0
        for rhs in range(num_attributes):
            found, performed = self._minimal_for_rhs(data, rhs, num_attributes)
            fds.extend(FD(lhs, rhs) for lhs in found)
            checks += performed
        return make_result(
            fds,
            self.name,
            relation.name,
            relation.num_rows,
            num_attributes,
            relation.column_names,
            watch,
            stats={"validations": checks, "epsilon": self.epsilon},
        )

    def _minimal_for_rhs(
        self, data: PreprocessedRelation, rhs: int, num_attributes: int
    ) -> tuple[list[int], int]:
        others = [a for a in range(num_attributes) if a != rhs]
        minimal: list[int] = []
        checks = 0
        if self._eps_valid(data, attrset.EMPTY, rhs):
            return [attrset.EMPTY], 1
        checks += 1
        for level in range(1, len(others) + 1):
            for combo in combinations(others, level):
                lhs = attrset.from_indices(combo)
                if any(found & ~lhs == 0 for found in minimal):
                    continue  # dominated by a smaller ε-valid LHS
                checks += 1
                if self._eps_valid(data, lhs, rhs):
                    minimal.append(lhs)
            if minimal and level >= max(
                attrset.size(found) for found in minimal
            ) + num_attributes:
                break  # unreachable in practice; defensive bound
        return minimal, checks

    def _eps_valid(self, data: PreprocessedRelation, lhs: int, rhs: int) -> bool:
        return violation_profile(data, FD(lhs, rhs)).g3 <= self.epsilon
