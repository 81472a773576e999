"""Minimal unique column combinations (UCCs) — key discovery.

A *unique column combination* is an attribute set on which no two tuples
agree; minimal UCCs are the candidate keys of the instance.  UCC
discovery is the sibling problem of FD discovery (and the first half of
the paper's DMS workflow needs keys to decide what uniquely identifies a
record), and it falls out of the same machinery: an attribute set is a
UCC exactly when it intersects the *complement* of every maximal agree
set, so the minimal UCCs are the minimal hitting sets of those
complements.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.result import Stopwatch
from ..engine import acquire_context
from ..fd import attrset
from ..relation.relation import Relation
from .fdep import compute_agree_masks


@dataclass(frozen=True)
class UccResult:
    """Minimal unique column combinations of one relation."""

    uccs: frozenset[int]
    relation_name: str
    num_rows: int
    num_columns: int
    column_names: tuple[str, ...]
    runtime_seconds: float

    def __len__(self) -> int:
        return len(self.uccs)

    def __iter__(self):
        return iter(sorted(self.uccs))

    def format(self) -> list[str]:
        return [
            attrset.format_mask(mask, self.column_names) for mask in sorted(self.uccs)
        ]


def discover_uccs(relation: Relation, null_equals_null: bool = True) -> UccResult:
    """Find all minimal unique column combinations of ``relation``.

    Degenerate cases follow key semantics: a relation with fewer than two
    rows is trivially unique on the empty set; a relation with duplicate
    tuples has no UCC at all.
    """
    watch = Stopwatch()
    data = acquire_context(relation, null_equals_null).data
    num_attributes = data.num_columns
    universe = attrset.universe(num_attributes)
    if relation.num_rows <= 1:
        masks: list[int] = [attrset.EMPTY]
    else:
        agree_masks = compute_agree_masks(data)
        has_duplicates = any(
            len(cluster) > 1
            for cluster in _duplicate_clusters(data)
        )
        if has_duplicates:
            masks = []
        else:
            maximal = _maximal(agree_masks)
            edges = [universe & ~mask for mask in maximal]
            masks = minimal_transversals_levelwise(edges, universe)
    return UccResult(
        uccs=frozenset(masks),
        relation_name=relation.name,
        num_rows=relation.num_rows,
        num_columns=relation.num_columns,
        column_names=relation.column_names,
        runtime_seconds=watch.elapsed(),
    )


def _maximal(agree_masks: set[int]) -> list[int]:
    ordered = sorted(agree_masks, key=lambda mask: -mask.bit_count())
    maximal: list[int] = []
    for mask in ordered:
        if not any(mask & ~kept == 0 for kept in maximal):
            maximal.append(mask)
    return maximal


def minimal_transversals_levelwise(edges: list[int], vertices: int) -> list[int]:
    """Minimal hitting sets of ``edges`` over the ``vertices`` mask.

    Levelwise enumeration: grow candidate vertex sets in canonical order,
    emit a candidate the moment it hits every edge (by construction the
    first time any of its subsets does, hence minimal), and expand only
    candidates that still miss an edge.
    """
    if not edges:
        return [0]
    if any(edge == 0 for edge in edges):
        return []  # an unhittable (empty) edge: no transversal exists
    vertex_list = list(attrset.to_indices(vertices))
    transversals: list[int] = []
    # The candidate masks of the current level.
    frontier: list[int] = [0]
    while frontier:
        next_frontier: list[int] = []
        for candidate in frontier:
            uncovered = [edge for edge in edges if edge & candidate == 0]
            if not uncovered:
                if not any(
                    known & ~candidate == 0 for known in transversals
                ):
                    transversals.append(candidate)
                continue
            # Expand only with vertices beyond the candidate's highest
            # member that appear in some uncovered edge.
            floor = candidate.bit_length()
            expandable = 0
            for edge in uncovered:
                expandable |= edge
            for vertex in vertex_list:
                if vertex < floor:
                    continue
                bit = attrset.singleton(vertex)
                if expandable & bit:
                    next_frontier.append(candidate | bit)
        frontier = next_frontier
    return transversals


def _duplicate_clusters(data):
    """Groups of fully identical rows."""
    groups: dict[bytes, list[int]] = {}
    for row in range(data.num_rows):
        key = data.matrix[row].tobytes()
        groups.setdefault(key, []).append(row)
    return [rows for rows in groups.values() if len(rows) > 1]
