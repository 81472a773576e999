"""The shared execution layer: one context per preprocessed relation.

An :class:`ExecutionContext` owns everything derived from a relation —
the preprocessed label matrix, the partition store, the sampling
clusters, and the validation backend — and mediates all partition and
validation work.  Algorithms no longer preprocess privately or call the
validation kernels one candidate at a time; they acquire a context and
ask it.

Sharing model: callers that run several algorithms over one dataset
(the benchmark harness, ``repro-fd compare``) construct a single context
and install it with :func:`use_context`; each algorithm's
``discover(relation)`` then resolves it via :func:`acquire_context`,
which falls back to building a private context when none is installed or
the installed one wraps a different relation.  The partition cache and
cluster lists therefore span the whole algorithm matrix instead of dying
with each run.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

from ..fd import attrset
from ..fd.fd import FD
from ..obs import count, phase
from ..obs.names import (
    APPEND_ROWS,
    PREPROCESS,
    VALIDATE_CANDIDATES,
    VALIDATE_LHS_FOLDS,
    VALIDATE_MANY,
)
from ..relation.partition import StrippedPartition
from ..relation.preprocess import AppendDelta, PreprocessedRelation, preprocess
from ..relation.relation import Relation
from .backends import Backend, get_backend
from .parallel import (
    MIN_GROUPS_PER_WORKER,
    WorkerPool,
    get_pool,
    validate_groups_sharded,
)
from .store import PartitionStore


@dataclass(frozen=True)
class Validation:
    """Outcome of validating one candidate FD against the full relation.

    ``witness`` is a violating row pair when one was requested and the
    FD does not hold; requesting witnesses costs a sort per invalid
    candidate, so batch validators only ask when they will use them.
    """

    fd: FD
    holds: bool
    witness: tuple[int, int] | None = None


class ExecutionContext:
    """Mediated access to one relation's partitions and validation."""

    def __init__(
        self,
        relation: Relation,
        *,
        backend: str | Backend | None = None,
        null_equals_null: bool = True,
        jobs: int | str | WorkerPool | None = None,
        delta: bool = False,
    ) -> None:
        self.backend = get_backend(backend)
        self.pool = jobs if isinstance(jobs, WorkerPool) else get_pool(jobs)
        self.null_equals_null = null_equals_null
        with phase(PREPROCESS, relation=relation.name):
            # ``delta=True`` retains the encoder state so append_rows is
            # O(batch) from the first batch — the streaming cold start.
            self.data: PreprocessedRelation = preprocess(
                relation, null_equals_null, delta=delta
            )
        self.partitions = PartitionStore(self.data)
        self._clusters: list[tuple[int, ...]] | None = None

    # -- identity --------------------------------------------------------------

    @property
    def relation(self) -> Relation:
        return self.data.relation

    @property
    def num_rows(self) -> int:
        return self.data.num_rows

    @property
    def num_attributes(self) -> int:
        return self.data.num_columns

    def matches(self, relation: Relation, null_equals_null: bool) -> bool:
        """True when this context serves ``relation`` under these semantics."""
        return (
            self.data.relation is relation
            and self.null_equals_null == null_equals_null
        )

    # -- change batches ----------------------------------------------------------

    def append_rows(self, rows: Sequence[tuple]) -> AppendDelta:
        """Ingest a batch of new rows; return what the batch changed.

        The change-batch API of the delta engine (DESIGN.md §12): the
        preprocessed relation (label matrix and label → rows lists)
        grows in place at O(batch), with no re-encoding and no partition
        built.  The partition store drops its derived entries and built
        pins, which the next request builds from the grown snapshot, and
        the sampling-cluster list is re-listed on next use.  The returned
        :class:`AppendDelta` names the clusters the new rows landed in.

        Mutates: self
        """
        with phase(APPEND_ROWS, rows=len(rows)):
            data = self.data.append_rows(list(rows))
            self.data = data
            self.partitions.apply_delta(data)
            self._clusters = None
        return data.append_delta

    # -- partitions ------------------------------------------------------------

    def partition(self, mask: int) -> StrippedPartition:
        """The stripped partition on the attribute set ``mask`` (cached)."""
        return self.partitions.get(mask)

    def sampling_clusters(self) -> list[tuple[int, ...]]:
        """All distinct single-attribute stripped clusters.

        The shared cluster list the samplers of EulerFD, HyFD and AID-FD
        draw tuple pairs from, in attribute order.  A cluster containing
        exactly the rows of an already-listed cluster of another
        attribute is dropped: such twins can only replay identical
        pairs.  Computed once and cached until the next append.
        """
        if self._clusters is not None:
            return self._clusters
        clusters: list[tuple[int, ...]] = []
        registered: set[tuple[int, ...]] = set()
        for attribute in range(self.num_attributes):
            for rows in self.partitions.get(attrset.singleton(attribute)).clusters:
                if rows not in registered:
                    registered.add(rows)
                    clusters.append(rows)
        self._clusters = clusters
        return clusters

    # -- validation ------------------------------------------------------------

    def fd_holds(self, fd: FD) -> bool:
        """True when ``fd`` is valid on every tuple of the relation."""
        if self.num_rows <= 1:
            return True
        keys = self.backend.group_keys(self.data, fd.lhs)
        return self.backend.constant_on(self.data, keys, fd.rhs)

    def find_violation(self, fd: FD) -> tuple[int, int] | None:
        """A witnessing row pair for an invalid FD, or None when valid."""
        if self.num_rows <= 1:
            return None
        keys = self.backend.group_keys(self.data, fd.lhs)
        return self.backend.witness(self.data, keys, fd.rhs)

    def validate_many(
        self, fds: Sequence[FD], *, witnesses: bool = False
    ) -> list[Validation]:
        """Validate a candidate batch, folding group keys once per LHS.

        Candidates are processed sorted by LHS so every distinct LHS is
        folded into group keys exactly once and reused across all its
        RHSs — the batched replacement for per-FD ``fd_holds`` loops.
        Results come back in input order.  With ``witnesses=True`` each
        invalid candidate carries a violating row pair.

        On a parallel context (``jobs``), distinct-LHS groups are
        partitioned across the worker pool in sorted order and merged by
        chunk index; a group never straddles workers, so fold counts,
        outcomes and witnesses are identical to the serial path.
        """
        fds = list(fds)
        results: list[Validation | None] = [None] * len(fds)
        with phase(VALIDATE_MANY, candidates=len(fds)):
            if self.num_rows <= 1:
                for index, fd in enumerate(fds):
                    results[index] = Validation(fd, True)
                return [v for v in results if v is not None]
            order = sorted(range(len(fds)), key=lambda i: (fds[i].lhs, fds[i].rhs))
            # Distinct-LHS groups in sorted order: the unit of key-fold
            # reuse, and the unit the worker pool shards by.
            groups: list[tuple[int, list[tuple[int, int]]]] = []
            for index in order:
                fd = fds[index]
                if not groups or groups[-1][0] != fd.lhs:
                    groups.append((fd.lhs, []))
                groups[-1][1].append((index, fd.rhs))
            pool = self.pool
            if (
                not pool.is_serial
                and len(groups) >= pool.jobs * MIN_GROUPS_PER_WORKER
            ):
                for index, holds, pair in validate_groups_sharded(
                    pool, self.data, self.backend.name, groups, witnesses
                ):
                    results[index] = Validation(
                        fds[index], holds, pair if witnesses else None
                    )
            else:
                for lhs, members in groups:
                    keys = self.backend.group_keys(self.data, lhs)
                    for index, rhs in members:
                        if witnesses:
                            pair = self.backend.witness(self.data, keys, rhs)
                            results[index] = Validation(fds[index], pair is None, pair)
                        else:
                            holds = self.backend.constant_on(self.data, keys, rhs)
                            results[index] = Validation(fds[index], holds)
            count(VALIDATE_CANDIDATES, len(fds))
            count(VALIDATE_LHS_FOLDS, len(groups))
        return [v for v in results if v is not None]

    def __repr__(self) -> str:
        return (
            f"ExecutionContext({self.relation.name!r}, "
            f"backend={self.backend.name!r}, "
            f"{self.num_rows}x{self.num_attributes})"
        )


# -- the active-context stack --------------------------------------------------

_ACTIVE = threading.local()


def current_context() -> ExecutionContext | None:
    """The innermost installed context of this thread, or None."""
    stack = getattr(_ACTIVE, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def use_context(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Install ``context`` as this thread's active execution context."""
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = _ACTIVE.stack = []
    stack.append(context)
    try:
        yield context
    finally:
        stack.pop()


def acquire_context(
    relation: Relation, null_equals_null: bool = True
) -> ExecutionContext:
    """The active context when it serves ``relation``, else a fresh one.

    The compat shim behind every ``discover(relation)``: algorithms keep
    their historical signature, and callers opt into sharing by
    installing a context with :func:`use_context`.  A mismatch (other
    relation, other NULL semantics) silently falls back to a private
    context so per-algorithm configuration keeps winning.
    """
    active = current_context()
    if active is not None and active.matches(relation, null_equals_null):
        return active
    return ExecutionContext(relation, null_equals_null=null_equals_null)
