"""Vectorized FD validation against a full relation (DESIGN.md §11).

Checking one FD ``X -> A`` on all tuples reduces to: group the rows by
their ``X`` labels and test that each group is constant on ``A``.  The
kernels here read the row-major label matrix column by column
(``matrix[:, j]``) in its storage width and never loop in Python:

* :func:`fold_group_keys` folds the LHS radix-style into per-row keys,
  skipping cardinality-1 columns outright (a constant column never
  splits a group).  Every step goes through :func:`fold_column`, which
  re-densifies the keys via ``np.unique`` whenever the next
  multiplication could overflow, so arbitrarily wide LHSs stay exact.
  A final densify bounds the key domain by ``max(2·rows, 1024)``.
* :func:`constant_on` tests RHS constancy in two linear passes —
  scatter one representative label per group, gather and compare — with
  no sort and no ``np.unique``.  Which group member lands in the table is
  irrelevant: a group is constant iff every member equals *any* fixed
  representative, so the check is deterministic even though numpy leaves
  duplicate-index assignment order unspecified.
* :func:`witness` runs the stable-sort scan for a violating pair, and
  only for candidates the scatter check already refuted.

These kernels are the ``numpy`` backend of the execution engine
(:mod:`repro.engine`); algorithm code obtains them through an
:class:`~repro.engine.context.ExecutionContext`.  They read only
``matrix`` and ``cardinalities``, so worker processes run them against a
bare view of the published matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fd import attrset
from ..fd.fd import FD
from .preprocess import PreprocessedRelation

_KEY_LIMIT = 1 << 62
"""Re-densify group keys before the next fold could overflow."""

_MIN_SCATTER = 1024
"""Key domains up to this size never pay the final densify: the scatter
tables they imply are at most 1 KiB × itemsize."""


@dataclass(frozen=True)
class GroupKeys:
    """Per-row group keys plus the exclusive bound on their values.

    ``keys[i]`` is the group id of row ``i``; rows share an id iff they
    agree on every folded attribute.  ``domain`` bounds the id values
    (``0 <= keys[i] < domain``), letting :func:`constant_on` allocate a
    dense scatter table without inspecting the keys again.
    """

    keys: np.ndarray
    domain: int


def _densified(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Compact key values to ``0..distinct-1``, preserving the grouping.

    Pure: returns fresh arrays; the input is not mutated.
    """
    uniques, inverse = np.unique(keys, return_inverse=True)
    return inverse.reshape(-1), int(uniques.size)


def fold_column(
    keys: np.ndarray, labels: np.ndarray, domain: int, cardinality: int
) -> tuple[np.ndarray, int]:
    """Fold one label column onto group keys, overflow-guarded.

    Returns ``(keys, domain)`` such that two rows share a key iff they
    shared one before *and* agree on ``labels``.  When ``domain *
    cardinality`` could overflow, the keys are first re-densified — the
    grouping is preserved, only the key values shrink — so arbitrarily
    wide folds stay exact.

    Pure: returns a fresh array; neither input is mutated.
    """
    if domain * cardinality >= _KEY_LIMIT:
        keys, domain = _densified(keys)
        if domain * cardinality >= _KEY_LIMIT:  # pragma: no cover
            raise OverflowError("group key fold exceeded the width guard")
    return keys * cardinality + labels, domain * cardinality


def fold_group_keys(data: object, lhs: int) -> GroupKeys:
    """Radix-fold the ``lhs`` columns into per-row group keys.

    ``data`` is anything exposing the label ``matrix`` and per-column
    ``cardinalities`` (a :class:`PreprocessedRelation` or a worker-side
    view of a published matrix).

    Pure: reads the matrix only; returns fresh keys.
    """
    matrix = data.matrix
    cardinalities = data.cardinalities
    num_rows = int(matrix.shape[0])
    live = [j for j in attrset.to_indices(lhs) if cardinalities[j] > 1]
    if not live or num_rows == 0:
        return GroupKeys(np.zeros(num_rows, dtype=np.uint64), 1)
    keys = matrix[:, live[0]].astype(np.uint64)
    domain = cardinalities[live[0]]
    for j in live[1:]:
        keys, domain = fold_column(keys, matrix[:, j], domain, cardinalities[j])
    if domain > max(2 * num_rows, _MIN_SCATTER):
        keys, domain = _densified(keys)
    return GroupKeys(keys, domain)


def constant_on(data: object, grouping: GroupKeys, rhs: int) -> bool:
    """True when every key group is constant on attribute ``rhs``.

    Scatter a representative RHS label per group id, gather it back per
    row, and compare: constant groups agree with their representative
    everywhere, any split group disagrees on at least one row —
    whichever member the scatter kept.  Two O(n) passes, no sort.

    Pure: reads both inputs only.
    """
    column = data.matrix[:, rhs]
    if column.shape[0] <= 1 or data.cardinalities[rhs] <= 1:
        return True
    representative = np.empty(grouping.domain, dtype=column.dtype)
    representative[grouping.keys] = column
    return bool(np.array_equal(representative[grouping.keys], column))


def witness(
    data: object, grouping: GroupKeys, rhs: int
) -> tuple[int, int] | None:
    """A row pair sharing a key but differing on ``rhs``, or None.

    The scatter check rules out the common (valid) case; only violated
    candidates pay the stable-sort scan, which makes the returned pair
    deterministic: the first adjacent conflict in key-sorted order, ties
    broken by row order.

    Pure: a read-only scan.
    """
    if constant_on(data, grouping, rhs):
        return None
    column = data.matrix[:, rhs]
    order = np.argsort(grouping.keys, kind="stable")
    sorted_keys = grouping.keys[order]
    sorted_labels = column[order]
    adjacent = (sorted_keys[1:] == sorted_keys[:-1]) & (
        sorted_labels[1:] != sorted_labels[:-1]
    )
    position = int(np.nonzero(adjacent)[0][0])
    return int(order[position]), int(order[position + 1])


def group_keys(data: PreprocessedRelation, lhs: int) -> np.ndarray:
    """Per-row group ids of each row's projection onto ``lhs``.

    Rows share an id iff they agree on every attribute of ``lhs``.
    """
    return fold_group_keys(data, lhs).keys


def fd_holds(data: PreprocessedRelation, fd: FD) -> bool:
    """True when ``fd`` is valid on every tuple of the relation."""
    return constant_on(data, fold_group_keys(data, fd.lhs), fd.rhs)


def find_violation(data: PreprocessedRelation, fd: FD) -> tuple[int, int] | None:
    """A witnessing tuple pair for an invalid FD, or None when valid.

    The returned rows agree on ``fd.lhs`` and differ on ``fd.rhs``; HyFD
    feeds the pair's full agree set back into its negative cover.
    """
    return witness(data, fold_group_keys(data, fd.lhs), fd.rhs)
