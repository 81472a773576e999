"""Violation-degree measures for individual FDs (g1 / g2 / g3).

The FD-discovery literature (Kivinen & Mannila [16]; Kruse & Naumann
[18]) quantifies *how badly* an FD is violated:

* **g1** — fraction of tuple *pairs* that violate the FD;
* **g2** — fraction of *tuples* involved in at least one violation;
* **g3** — minimum fraction of tuples to delete so the FD holds (the
  most common measure; 0 means the FD is exact).

Section II-C distinguishes these *approximate FDs* from the paper's
*approximate discovery* (exact FDs, approximately complete search); this
module bridges the two: when EulerFD overclaims an FD that sampling
never saw violated, its g3 is typically tiny — the claim is "almost
true".  The analysis example and several tests rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fd import FD, attrset
from ..relation.preprocess import PreprocessedRelation
from ..relation.validate import group_keys


@dataclass(frozen=True)
class ViolationProfile:
    """g1/g2/g3 of one FD over one relation."""

    fd: FD
    num_rows: int
    violating_pairs: int
    violating_tuples: int
    tuples_to_remove: int

    @property
    def total_pairs(self) -> int:
        return self.num_rows * (self.num_rows - 1) // 2

    @property
    def g1(self) -> float:
        return self.violating_pairs / self.total_pairs if self.total_pairs else 0.0

    @property
    def g2(self) -> float:
        return self.violating_tuples / self.num_rows if self.num_rows else 0.0

    @property
    def g3(self) -> float:
        return self.tuples_to_remove / self.num_rows if self.num_rows else 0.0

    @property
    def holds(self) -> bool:
        return self.violating_pairs == 0


def violation_profile(data: PreprocessedRelation, fd: FD) -> ViolationProfile:
    """Compute g1/g2/g3 of ``fd`` in one vectorized pass.

    Rows are grouped by their LHS labels; within each group the RHS value
    counts decide everything: a group of size ``s`` with value
    multiplicities ``m_1 >= m_2 >= ...`` contributes

    * ``(s^2 - Σ m_i^2) / 2``  violating pairs,
    * ``s`` violating tuples when it has >= 2 distinct values,
    * ``s - m_1`` deletions (keep the plurality value).

    Both groupings — LHS groups and (LHS, RHS) cells — come from the one
    overflow-guarded fold, so wide high-cardinality LHSs stay exact.
    """
    num_rows = data.num_rows
    if num_rows == 0:
        return ViolationProfile(fd, 0, 0, 0, 0)
    keys = group_keys(data, fd.lhs)
    combined = group_keys(data, fd.lhs | attrset.singleton(fd.rhs))
    # Multiplicity of every (group, value) cell and of every group.
    _, cell_inverse, cell_counts = np.unique(
        combined, return_inverse=True, return_counts=True
    )
    _, group_inverse, group_counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    num_groups = group_counts.size
    # Σ m_i² and max m_i per group.
    cell_group = np.zeros(cell_counts.size, dtype=np.int64)
    cell_group[cell_inverse] = group_inverse
    sum_squares = np.zeros(num_groups, dtype=np.int64)
    np.add.at(sum_squares, cell_group, cell_counts**2)
    max_cell = np.zeros(num_groups, dtype=np.int64)
    np.maximum.at(max_cell, cell_group, cell_counts)

    violating_pairs = int(((group_counts**2 - sum_squares) // 2).sum())
    mixed = sum_squares != group_counts**2
    violating_tuples = int(group_counts[mixed].sum())
    tuples_to_remove = int((group_counts[mixed] - max_cell[mixed]).sum())
    return ViolationProfile(
        fd=fd,
        num_rows=num_rows,
        violating_pairs=violating_pairs,
        violating_tuples=violating_tuples,
        tuples_to_remove=tuples_to_remove,
    )
