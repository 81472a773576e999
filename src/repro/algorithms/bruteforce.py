"""Exhaustive FD discovery — the ground-truth oracle for small inputs.

Checks every candidate ``X -> A`` level by level through the execution
context's batched validator: all non-dominated LHSs of one size share a
``validate_many`` call, so group keys are folded once per LHS and the
minimality pruning stays exact (two LHSs of equal size are never in a
subset relation, so a level cannot dominate itself).  Exponential in the
number of attributes (``O(2^m * m * n)``), so it exists purely to
validate the real algorithms on small relations in the test suite; it
refuses schemas wide enough to be a mistake.
"""

from __future__ import annotations

from ..core.result import DiscoveryResult, Stopwatch, make_result
from ..engine import acquire_context
from ..fd import FD, attrset
from ..relation.relation import Relation
from .base import register


@register("bruteforce")
class BruteForce:
    """Candidate-by-candidate verification over the whole lattice."""

    name = "BruteForce"
    kind = "exact"

    def __init__(self, max_columns: int = 14, null_equals_null: bool = True) -> None:
        self.max_columns = max_columns
        self.null_equals_null = null_equals_null

    def discover(self, relation: Relation) -> DiscoveryResult:
        if relation.num_columns > self.max_columns:
            raise ValueError(
                f"BruteForce is an oracle for <= {self.max_columns} columns; "
                f"got {relation.num_columns}"
            )
        watch = Stopwatch()
        context = acquire_context(relation, self.null_equals_null)
        num_attributes = context.num_attributes
        fds: list[FD] = []
        checks = 0
        for rhs in range(num_attributes):
            others = attrset.universe(num_attributes) & ~attrset.singleton(rhs)
            valid_lhss: list[int] = []
            # Ascending cardinality so minimality reduces to a subset check
            # against already-accepted LHSs; one batched validation per
            # lattice level.
            by_size: dict[int, list[int]] = {}
            for lhs in attrset.all_subsets(others):
                by_size.setdefault(attrset.size(lhs), []).append(lhs)
            for size in sorted(by_size):
                batch = [
                    lhs
                    for lhs in sorted(by_size[size])
                    if not any(
                        attrset.is_subset(seen, lhs) for seen in valid_lhss
                    )
                ]
                if not batch:
                    continue
                checks += len(batch)
                outcomes = context.validate_many(
                    [FD(lhs, rhs) for lhs in batch]
                )
                valid_lhss.extend(
                    outcome.fd.lhs for outcome in outcomes if outcome.holds
                )
            fds.extend(FD(lhs, rhs) for lhs in valid_lhss)
        return make_result(
            fds,
            self.name,
            relation.name,
            relation.num_rows,
            num_attributes,
            relation.column_names,
            watch,
            stats={"validations": checks},
        )
