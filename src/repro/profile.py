"""One-call relation profiling: columns, keys, and dependencies.

``profile_relation`` bundles the library's building blocks into the
report a data steward actually wants (and the shape of what DMS surfaces
to its users): per-column statistics, the minimal unique column
combinations (candidate keys), and the non-trivial minimal FDs — exact
when the relation is small enough, EulerFD-approximated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algorithms import Fdep
from .algorithms.ucc import UccResult, discover_uccs
from .core.config import EulerFDConfig
from .core.eulerfd import EulerFD
from .core.result import DiscoveryResult
from .engine import acquire_context
from .relation.relation import Relation


@dataclass(frozen=True)
class ColumnProfile:
    """Statistics of one column."""

    name: str
    cardinality: int
    is_constant: bool
    is_unique: bool
    null_count: int


@dataclass(frozen=True)
class RelationProfile:
    """The full profiling report."""

    relation_name: str
    num_rows: int
    num_columns: int
    columns: tuple[ColumnProfile, ...]
    uccs: UccResult
    fds: DiscoveryResult
    exact: bool

    def render(self, max_fds: int = 20) -> str:
        lines = [
            f"Profile of {self.relation_name} "
            f"({self.num_rows} rows x {self.num_columns} columns)",
            "",
            "Columns:",
        ]
        for column in self.columns:
            flags = []
            if column.is_unique:
                flags.append("unique")
            if column.is_constant:
                flags.append("constant")
            if column.null_count:
                flags.append(f"{column.null_count} nulls")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            lines.append(
                f"  {column.name}: {column.cardinality} distinct{suffix}"
            )
        lines.append("")
        lines.append(f"Candidate keys ({len(self.uccs)} minimal UCCs):")
        for text in self.uccs.format()[:10]:
            lines.append(f"  {text}")
        method = "exact" if self.exact else "approximate (EulerFD)"
        lines.append("")
        lines.append(f"Functional dependencies ({len(self.fds)}, {method}):")
        for text in self.fds.format_fds(limit=max_fds):
            lines.append(f"  {text}")
        if len(self.fds) > max_fds:
            lines.append(f"  ... and {len(self.fds) - max_fds} more")
        return "\n".join(lines)


def profile_relation(
    relation: Relation,
    exact_below_cells: int = 200_000,
    null_equals_null: bool = True,
) -> RelationProfile:
    """Profile ``relation``.

    FD discovery runs exactly (Fdep) when ``rows * columns`` stays under
    ``exact_below_cells``, otherwise approximately with EulerFD — the
    same latency-driven trade-off DMS makes in production.
    """
    data = acquire_context(relation, null_equals_null).data
    columns = []
    for index, name in enumerate(relation.column_names):
        cardinality = data.cardinality(index)
        nulls = sum(1 for value in relation.columns[index] if value is None)
        columns.append(
            ColumnProfile(
                name=name,
                cardinality=cardinality,
                is_constant=cardinality <= 1 and relation.num_rows > 0,
                is_unique=(
                    cardinality == relation.num_rows and relation.num_rows > 1
                ),
                null_count=nulls,
            )
        )
    exact = relation.num_rows * max(relation.num_columns, 1) <= exact_below_cells
    discoverer = (
        Fdep(null_equals_null)
        if exact
        else EulerFD(EulerFDConfig(null_equals_null=null_equals_null))
    )
    fds = discoverer.discover(relation)
    uccs = discover_uccs(relation, null_equals_null)
    return RelationProfile(
        relation_name=relation.name,
        num_rows=relation.num_rows,
        num_columns=relation.num_columns,
        columns=tuple(columns),
        uccs=uccs,
        fds=fds,
        exact=exact,
    )
