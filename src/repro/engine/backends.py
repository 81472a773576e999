"""Pluggable validation backends (DESIGN.md §8).

A :class:`Backend` owns the three validation kernels every algorithm
needs — fold a LHS into per-row group keys, test RHS constancy within
groups, and extract a witnessing row pair — so the *strategy* (vectorized
numpy vs pure Python) is swappable underneath an unchanged
:class:`~repro.engine.context.ExecutionContext` API.

Two implementations ship:

* :class:`NumpyBackend` — the vectorized kernels of
  :mod:`repro.relation.validate` (radix group-key fold, scatter
  constancy check, stable-sort witness) over the narrow row-major label
  matrix.  The default.
* :class:`PythonBackend` — a dict-based pure-Python oracle with no
  numpy fast path.  Slower, but it shares no code with the vectorized
  kernels, which is what makes it the cross-check that keeps them honest
  (the CI engine job runs the whole suite under ``REPRO_BACKEND=python``).

Both read only ``matrix`` and ``cardinalities`` of the relation, so
worker processes run them against a bare
:class:`~repro.engine.shm.MatrixView`.  Selection order: explicit
argument, then the ``REPRO_BACKEND`` environment variable, then numpy.
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable

from ..fd import attrset
from ..relation.preprocess import PreprocessedRelation
from ..relation.validate import constant_on, fold_group_keys, witness

BACKEND_ENV = "REPRO_BACKEND"
"""Environment variable naming the default backend."""

DEFAULT_BACKEND = "numpy"


@runtime_checkable
class Backend(Protocol):
    """The kernel strategy behind an execution context.

    ``group_keys`` returns an opaque per-row grouping (rows share a key
    iff they agree on every LHS attribute); ``constant_on`` and
    ``witness`` consume that object, so a backend may pick whatever
    representation folds fastest for it.
    """

    name: str

    def group_keys(self, data: PreprocessedRelation, lhs: int) -> object:
        """Per-row group keys of the projection onto ``lhs``."""

    def constant_on(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> bool:
        """True when every key group is constant on attribute ``rhs``."""

    def witness(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> tuple[int, int] | None:
        """A row pair sharing a key but differing on ``rhs``, or None."""


class NumpyBackend:
    """The vectorized kernels of :mod:`repro.relation.validate`."""

    name = "numpy"

    def group_keys(self, data: PreprocessedRelation, lhs: int) -> object:
        """Guarded radix fold into dense group keys.

        Pure: delegates to the read-only numpy kernel.
        """
        return fold_group_keys(data, lhs)

    def constant_on(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> bool:
        """Sort-free scatter/gather representative check.

        Pure: a read-only comparison.
        """
        return constant_on(data, keys, rhs)

    def witness(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> tuple[int, int] | None:
        """Stable-sort scan, entered only for violated candidates.

        Pure: a read-only scan.
        """
        return witness(data, keys, rhs)


class PythonBackend:
    """Dict-based pure-Python kernels — no numpy fast path.

    Group keys are plain tuples of the row's LHS labels (Python ints are
    unbounded, so no overflow guard is needed); constancy and witness
    extraction are single passes over a ``dict``.
    """

    name = "python"

    def group_keys(self, data: PreprocessedRelation, lhs: int) -> object:
        """Rows of the label matrix projected onto ``lhs``, as tuples.

        Pure: builds a fresh list; the relation is not mutated.
        """
        columns = list(attrset.to_indices(lhs))
        if not columns:
            return [()] * data.num_rows
        rows = data.matrix[:, columns].tolist()
        return [tuple(row) for row in rows]

    def constant_on(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> bool:
        """One pass remembering the first RHS label per group.

        Pure: a read-only scan.
        """
        labels = data.matrix[:, rhs].tolist()
        first: dict[object, int] = {}
        for key, label in zip(keys, labels):
            seen = first.setdefault(key, label)
            if seen != label:
                return False
        return True

    def witness(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> tuple[int, int] | None:
        """First conflicting pair in row order, with its earliest peer.

        Pure: a read-only scan.
        """
        labels = data.matrix[:, rhs].tolist()
        first: dict[object, tuple[int, int]] = {}
        for row, (key, label) in enumerate(zip(keys, labels)):
            seen = first.setdefault(key, (row, label))
            if seen[1] != label:
                return seen[0], row
        return None


_BACKENDS: dict[str, type] = {
    "numpy": NumpyBackend,
    "python": PythonBackend,
}


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def get_backend(name: str | Backend | None = None) -> Backend:
    """Resolve a backend instance from a name, instance, or the environment."""
    if name is not None and not isinstance(name, str):
        return name
    if name is None:
        name = os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {backend_names()}"
        ) from None
    return factory()
