"""Tane — level-wise lattice traversal with stripped partitions [14].

The representative exact lattice-traversal baseline.  Candidate LHSs are
visited level by level; validity of ``X\\{A} -> A`` is decided by comparing
equivalence-class counts of the stripped partitions ``π(X\\{A})`` and
``π(X)`` (Definition 7 — the class counts of the corresponding *full*
partitions are recovered from the stripped form).  The classic RHS⁺
candidate sets (``C+``) provide minimality pruning, and the key-pruning
rule removes superkeys from the lattice while emitting their remaining
dependencies.

Every partition is obtained through the execution context's
:class:`~repro.engine.store.PartitionStore`: level ``l`` partitions are
derived by partition product from their cached level ``l-1`` parents,
the store's LRU bounds resident memory (standing in for the explicit
retention bookkeeping Tane used to carry), and a store shared across
runs — one per dataset in the benchmark harness — lets later algorithms
and repeats reuse the lattice prefix.  The lattice-width budget
reproduces the paper's 32 GB memory limit on wide relations (Table III)
as a configurable ``max_level``/``max_level_width``.
"""

from __future__ import annotations

from itertools import combinations

from ..core.result import DiscoveryResult, Stopwatch, make_result
from ..engine import PartitionStore, acquire_context
from ..fd import FD, attrset
from ..obs import count, phase
from ..obs.names import TANE_LEVEL, TANE_VALIDATIONS
from ..relation.relation import Relation
from .base import register


class TaneBudgetExceeded(RuntimeError):
    """Raised when the lattice grows beyond the configured budget."""


@register("tane")
class Tane:
    """Exact level-wise FD discovery."""

    name = "Tane"
    kind = "exact"

    def __init__(
        self,
        null_equals_null: bool = True,
        max_level: int | None = None,
        max_level_width: int | None = None,
    ) -> None:
        self.null_equals_null = null_equals_null
        self.max_level = max_level
        self.max_level_width = max_level_width

    def discover(self, relation: Relation) -> DiscoveryResult:
        watch = Stopwatch()
        context = acquire_context(relation, self.null_equals_null)
        store = context.partitions
        num_attributes = context.num_attributes
        universe = attrset.universe(num_attributes)
        fds: list[FD] = []

        cplus: dict[int, int] = {attrset.EMPTY: universe}
        level: list[int] = [attrset.singleton(a) for a in range(num_attributes)]
        level_number = 1
        validations = 0

        while level:
            if self.max_level is not None and level_number > self.max_level:
                raise TaneBudgetExceeded(
                    f"lattice level {level_number} exceeds max_level="
                    f"{self.max_level}"
                )
            if (
                self.max_level_width is not None
                and len(level) > self.max_level_width
            ):
                raise TaneBudgetExceeded(
                    f"lattice level {level_number} holds {len(level)} nodes, "
                    f"exceeding max_level_width={self.max_level_width}"
                )
            with phase(TANE_LEVEL, level=level_number, width=len(level)):
                level_validations = 0
                # -- COMPUTE_DEPENDENCIES -------------------------------
                level_cplus: dict[int, int] = {}
                for lhs in level:
                    candidates = universe
                    for subset in attrset.subsets_one_smaller(lhs):
                        candidates &= cplus.get(subset, 0)
                    level_cplus[lhs] = candidates
                for lhs in level:
                    candidates = level_cplus[lhs] & lhs
                    remaining = candidates
                    while remaining:
                        bit = remaining & -remaining
                        remaining ^= bit
                        rhs = bit.bit_length() - 1
                        generalization = lhs ^ bit
                        level_validations += 1
                        if (
                            store.get(generalization).num_classes_full
                            == store.get(lhs).num_classes_full
                        ):
                            fds.append(FD(generalization, rhs))
                            level_cplus[lhs] &= ~bit
                            level_cplus[lhs] &= lhs  # drop all of R \ X
                # -- PRUNE ----------------------------------------------
                pruned: list[int] = []
                for lhs in level:
                    if level_cplus[lhs] == 0:
                        continue
                    if store.get(lhs).is_superkey():
                        # A superkey determines every attribute; emit the
                        # minimal dependencies and drop the node (supersets
                        # of a superkey can never carry a minimal FD).
                        remaining = level_cplus[lhs] & ~lhs
                        while remaining:
                            bit = remaining & -remaining
                            remaining ^= bit
                            rhs = bit.bit_length() - 1
                            level_validations += 1
                            if self._key_fd_is_minimal(lhs, rhs, store):
                                fds.append(FD(lhs, rhs))
                        continue
                    pruned.append(lhs)
                # -- GENERATE_NEXT_LEVEL --------------------------------
                level = self._next_level(pruned, store, self.max_level_width)
                cplus = level_cplus
                level_number += 1
                validations += level_validations
                count(TANE_VALIDATIONS, level_validations)

        return make_result(
            fds,
            self.name,
            relation.name,
            relation.num_rows,
            num_attributes,
            relation.column_names,
            watch,
            stats={"validations": validations, "levels": level_number - 1},
        )

    @staticmethod
    def _key_fd_is_minimal(lhs: int, rhs: int, store: PartitionStore) -> bool:
        """Direct minimality test for the key-pruning output rule.

        The paper's original rule intersects RHS⁺ sets of sibling lattice
        nodes which may never have been generated (their sub-lattice was
        key-pruned away earlier); treating those as empty silently drops
        minimal FDs.  ``X -> A`` with superkey ``X`` is minimal iff no
        immediate generalization ``X \\ {B} -> A`` holds — validity is
        monotone in the LHS — and each check compares ``π(X \\ {B})``
        with the store-derived ``π((X \\ {B}) ∪ {A})`` (a product with
        the cached singleton ``π(A)`` on a cold cache).
        """
        rhs_bit = attrset.singleton(rhs)
        remaining = lhs
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            generalization = lhs ^ bit
            base = store.get(generalization)
            joint = store.get(generalization | rhs_bit)
            if joint.num_classes_full == base.num_classes_full:
                return False
        return True

    @staticmethod
    def _next_level(
        level: list[int],
        store: PartitionStore,
        max_width: int | None,
    ) -> list[int]:
        """Prefix-block join: combine nodes differing in their last attribute.

        The width budget is enforced *while generating*, before partition
        products are materialized — a level that would blow the budget
        must not first allocate millions of partitions (this is the "ML"
        the paper reports for Tane on wide schemas).  Surviving
        candidates are primed into the partition store, whose derivation
        finds both just-visited parents cached and multiplies them.
        """
        level_set = set(level)
        blocks: dict[int, list[int]] = {}
        for lhs in level:
            highest = attrset.highest_bit_mask(lhs)
            blocks.setdefault(lhs ^ highest, []).append(lhs)
        candidates: list[int] = []
        for members in blocks.values():
            members.sort()
            for left, right in combinations(members, 2):
                candidate = left | right
                if any(
                    subset not in level_set
                    for subset in attrset.subsets_one_smaller(candidate)
                ):
                    continue
                candidates.append(candidate)
                if max_width is not None and len(candidates) > max_width:
                    raise TaneBudgetExceeded(
                        f"next lattice level exceeds max_level_width="
                        f"{max_width} during generation"
                    )
        candidates.sort()
        for candidate in candidates:
            store.get(candidate)
        return candidates
