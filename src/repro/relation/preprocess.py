"""The preprocessing module (Section IV-B).

Raw values of arbitrary types are replaced by dense numeric labels, one
label per distinct value *per attribute* (Table II): only value equality
matters for FD discovery, never the values themselves.  The label matrix
enables constant-time tuple-pair comparison, and the per-attribute
stripped partitions (Definition 7) seed the sampling module.

The matrix is one read-only, C-contiguous (row-major) array in the
narrowest unsigned dtype that holds every column's labels
(:func:`dtype_for_cardinality` of the largest column cardinality):
pair comparison reads one contiguous row slab per tuple, and validation
reads ``matrix[:, j]`` columns at 1, 2 or 4 bytes per cell (DESIGN.md
§11).  NULL is ``None`` or a float NaN (any value with ``v != v``); both
encode identically under either NULL semantics.

A column's stripped partition is built on the first
:meth:`PreprocessedRelation.stripped` call for it and cached on the
snapshot: a reader of one column builds no other.

Streaming appends (DESIGN.md §12): :meth:`PreprocessedRelation.append_rows`
extends the label dictionaries, the label matrix and the per-column
label → rows lists **in place** — O(batch) work per append instead of
re-encoding the table — and builds no partition.  The retained encoder
state lives in a :class:`_DeltaState` shared by every snapshot of one
append lineage; snapshots stay frozen and their matrices are read-only
prefixes of one amortized-growth buffer, so an old snapshot never
observes newer rows.  Appends are linear: only the newest snapshot may
be appended to (a stale snapshot raises), which is what keeps the shared
buffer single-writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .partition import StrippedPartition
from .relation import Relation

_NULL = object()
"""Internal sentinel distinguishing SQL NULL from the string 'None'."""

_LABEL_WIDTHS: tuple[tuple[int, "np.dtype"], ...] = (
    (1 << 8, np.dtype(np.uint8)),
    (1 << 16, np.dtype(np.uint16)),
    (1 << 32, np.dtype(np.uint32)),
)
"""Dtype ladder for the label matrix, narrowest first."""


def dtype_for_cardinality(cardinality: int) -> "np.dtype":
    """Narrowest unsigned dtype whose range covers labels ``0..cardinality-1``.

    The bound is tight: a column with exactly 256 distinct values still
    fits u8 (labels 0..255); promotion to u16 happens at 257, and to u32
    at 65537.

    Pure: maps an integer to a dtype.
    """
    if cardinality < 0:
        raise ValueError(f"cardinality must be non-negative, got {cardinality}")
    for bound, dtype in _LABEL_WIDTHS:
        if cardinality <= bound:
            return dtype
    raise OverflowError(  # pragma: no cover - needs > 2**32 rows
        f"cardinality {cardinality} exceeds the u32 label range"
    )


@dataclass(frozen=True)
class AppendDelta:
    """What one :meth:`PreprocessedRelation.append_rows` call changed.

    The new rows are ``first_new .. num_rows - 1``.  ``touched[j]``
    holds the post-append cluster tuples of attribute ``j`` that contain
    at least one new row, ordered by first row (the canonical
    stripped-partition order) — exactly the inverted-cluster-index slice
    the incremental engine walks for partner discovery.
    ``cardinalities`` are the post-append per-column distinct-label
    counts (labels are dense, so this is the next free label).
    """

    first_new: int
    num_rows: int
    cardinalities: tuple[int, ...]
    touched: tuple[tuple[tuple[int, ...], ...], ...]


class _DeltaState:
    """Retained encoder and grouping state shared by one append lineage.

    One instance backs every snapshot produced by successive
    ``append_rows`` calls: the writable amortized-growth matrix buffer
    behind the snapshots' read-only views, the value→label dictionaries,
    and per-column full group membership (label → ascending member rows),
    from which each append reads the clusters it touched.  Only the
    newest snapshot (``size`` rows) may append, which
    keeps the shared buffer single-writer; the state is not thread-safe.
    """

    __slots__ = (
        "null_equals_null",
        "size",
        "matrix",
        "codes",
        "next_labels",
        "members",
    )

    def __init__(self, matrix: np.ndarray, null_equals_null: bool) -> None:
        num_columns = int(matrix.shape[1])
        self.null_equals_null = null_equals_null
        self.size = int(matrix.shape[0])
        # capacity is the buffer's row count; rows past ``size`` are free
        self.matrix = matrix
        self.codes: list[dict[Any, int]] = [{} for _ in range(num_columns)]
        self.next_labels: list[int] = [0] * num_columns
        # label -> member rows (ascending): the full, unstripped grouping.
        self.members: list[list[list[int]]] = [[] for _ in range(num_columns)]

    def adopt_column(
        self, j: int, labels: list[int], codes: dict[Any, int], next_label: int
    ) -> None:
        """Take ownership of one freshly-encoded column's state.

        Mutates: self
        """
        self.codes[j] = codes
        self.next_labels[j] = next_label
        members: list[list[int]] = [[] for _ in range(next_label)]
        for row, label in enumerate(labels):
            members[label].append(row)
        self.members[j] = members

    def _reserve(self, num_rows: int, dtype: "np.dtype") -> None:
        """Make the buffer hold ``num_rows`` rows of ``dtype`` labels.

        Reallocates on amortized growth or on a dtype-ladder crossing
        (the whole buffer widens once); the old buffer stays intact for
        the snapshots that still view it.

        Mutates: self
        """
        capacity = int(self.matrix.shape[0])
        if num_rows <= capacity and dtype == self.matrix.dtype:
            return
        if num_rows > capacity:
            capacity = max(num_rows, capacity * 2, 16)
        grown = np.empty((capacity, self.matrix.shape[1]), dtype=dtype)
        grown[: self.size] = self.matrix[: self.size]
        self.matrix = grown

    def append_batch(
        self, snapshot: "PreprocessedRelation", rows: "list[tuple[Any, ...]]"
    ) -> "PreprocessedRelation":
        """Encode ``rows`` into the lineage and build the next snapshot.

        ``snapshot`` shares this state, so it turns stale here.

        Mutates: self, snapshot
        """
        first_new = self.size
        num_rows = first_new + len(rows)
        batch_labels: list[list[int]] = []
        touched: list[tuple[tuple[int, ...], ...]] = []
        for j, members in enumerate(self.members):
            labels, _, self.next_labels[j] = _encode_column(
                [row[j] for row in rows],
                self.null_equals_null,
                self.codes[j],
                self.next_labels[j],
            )
            batch_labels.append(labels)
            grown: set[int] = set()
            for row_index, label in enumerate(labels, start=first_new):
                if label == len(members):
                    members.append([row_index])
                    continue
                members[label].append(row_index)
                grown.add(label)
            # ascending labels: first-occurrence, the canonical cluster order
            touched.append(tuple(tuple(members[label]) for label in sorted(grown)))
        # dtype-ladder crossing: the one sanctioned O(N) moment, paid only
        # when the widest column outgrows the matrix width (at most twice
        # per lineage).
        self._reserve(num_rows, dtype_for_cardinality(max(self.next_labels)))
        matrix = self.matrix
        for j, labels in enumerate(batch_labels):
            matrix[first_new:num_rows, j] = labels
        self.size = num_rows
        data = _snapshot(
            snapshot.relation,
            matrix[:num_rows],
            tuple(self.next_labels),
            self.null_equals_null,
        )
        object.__setattr__(data, "_delta", self)
        object.__setattr__(
            data,
            "_append_delta",
            AppendDelta(
                first_new=first_new,
                num_rows=num_rows,
                cardinalities=tuple(self.next_labels),
                touched=tuple(touched),
            ),
        )
        return data


@dataclass(frozen=True)
class PreprocessedRelation:
    """Label matrix plus per-attribute stripped partitions.

    ``matrix[i, j]`` is the dense label of tuple ``i`` on attribute ``j``;
    labels of different attributes are independent namespaces and may
    repeat (Example 5).  ``cardinalities[j]`` is the number of distinct
    labels of column ``j`` (labels are dense, so also its next free
    label).  :meth:`stripped` builds a column's partition on first read.

    Snapshots grown by :meth:`append_rows` keep ``relation`` pointing at
    the cold-start schema snapshot — row counts always come from the
    matrix (``num_rows``), never from ``relation``.
    """

    relation: Relation
    matrix: np.ndarray
    cardinalities: tuple[int, ...]
    null_equals_null: bool

    @property
    def num_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_columns(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.relation.column_names

    def cardinality(self, column: int) -> int:
        """Number of distinct labels in ``column``."""
        return self.cardinalities[column]

    def agree_mask(self, row_a: int, row_b: int) -> int:
        """Bitmask of the attributes on which two tuples share a value.

        The agree set of a tuple pair, computed by comparing label rows;
        every attribute outside the mask yields a non-FD
        ``agree -/-> attribute`` (Section IV-C).
        """
        equal = self.matrix[row_a] == self.matrix[row_b]
        packed = np.packbits(equal, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def labels(self, column: int) -> np.ndarray:
        """The dense label vector of one column."""
        return self.matrix[:, column]

    def stripped(self, column: int) -> StrippedPartition:
        """The stripped partition of one column, clusters ordered by first row.

        Built on the first call for ``column`` and cached on the snapshot;
        no other column is built.

        Mutates: self
        """
        cache = self.__dict__.get("_stripped")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_stripped", cache)
        partition = cache.get(column)
        if partition is None:
            partition = _stripped_from_labels(
                self.labels(column), self.cardinalities[column]
            )
            cache[column] = partition
        return partition

    @property
    def append_delta(self) -> "AppendDelta | None":
        """The :class:`AppendDelta` that produced this snapshot, if any.

        ``None`` for cold-start snapshots built by :func:`preprocess`.
        """
        return self.__dict__.get("_append_delta")

    def append_rows(
        self, rows: "list[tuple[Any, ...]]"
    ) -> "PreprocessedRelation":
        """O(batch) append: the next snapshot, sharing this one's buffer.

        Extends the label dictionaries, the label matrix and the label →
        rows lists with the new rows — never re-encoding existing ones,
        and building no partition.
        The returned snapshot's :attr:`append_delta` describes what
        changed; ``self`` stays valid as a read-only view of the
        pre-append prefix, but becomes *stale*: appends are linear, and
        only the lineage's newest snapshot may grow again.  Only a
        snapshot of a ``preprocess(..., delta=True)`` lineage can grow;
        any other raises ``ValueError``.

        Mutates: self
        """
        num_columns = self.num_columns
        for row in rows:
            if len(row) != num_columns:
                raise ValueError(
                    f"row arity {len(row)} != schema width {num_columns}"
                )
        state = self.__dict__.get("_delta")
        if state is None:
            raise ValueError(
                "append_rows on a snapshot built without delta=True: "
                "preprocess the base relation with delta=True to grow it"
            )
        if state.size != self.num_rows:
            raise ValueError(
                "append_rows on a stale snapshot: only the newest snapshot "
                f"of an append lineage may grow (this one has "
                f"{self.num_rows} rows, the lineage is at {state.size})"
            )
        return state.append_batch(self, rows)


def agree_words(
    matrix: np.ndarray,
    rows_a: "np.ndarray | int",
    rows_b: "np.ndarray | slice",
    distinct: bool = False,
) -> np.ndarray:
    """The agree-mask kernel: gather, compare and pack tuple pairs.

    Two index arrays pair ``rows_a[p]`` with ``rows_b[p]``; one anchor row
    against a slice compares the anchor with every row of the slice (the
    Fdep sweep's broadcast block).  Row ``p`` of the result holds pair
    ``p``'s agree mask as ⌈n/64⌉ uint64 words, the positive cover's
    layout: bit ``j`` of word ``k`` is attribute ``64k + j``'s agreement,
    and the explicit ``'<u8'`` view fixes the byte order on every host.
    With ``distinct`` only each mask's first occurrence is kept, in pair
    order: a repeated mask can never carry a novel violation, so every
    novelty loop reaches the same outcome from fewer masks.

    The comparison lands in a zeroed bool buffer whose rows are padded to
    whole bytes, so one flat ``packbits`` packs every pair at once rather
    than row by row; the packed bytes then widen to whole words.

    Pure: reads the matrix and row indices only; returns a fresh array.
    """
    right = matrix[rows_b]  # one row per pair in either form
    pairs, width = len(right), matrix.shape[1]
    num_bytes = -(-width // 8)
    equal = np.zeros((pairs, 8 * num_bytes), dtype=bool)
    np.equal(matrix[rows_a], right, out=equal[:, :width])
    packed = np.packbits(equal, bitorder="little").reshape(pairs, num_bytes)
    words = np.zeros((pairs, -(-width // 64) * 8), dtype=np.uint8)
    words[:, :num_bytes] = packed
    words = words.view("<u8")
    return first_occurrences(words) if distinct else words


def first_occurrences(words: np.ndarray) -> np.ndarray:
    """The first occurrence of each distinct row of ``words``, in order.

    Pure: reads the words only.
    """
    if len(words) < 2:
        return words
    return words[first_rows(words)]


def first_rows(words: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row.

    Pure: reads the words only; returns a fresh index array.
    """
    # One word sorts as uint64; wider rows as opaque byte strings.
    width = words.shape[1]
    keys = words[:, 0] if width == 1 else words.view(f"V{8 * width}").ravel()
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)


def decode_agree_words(words: np.ndarray) -> list[int]:
    """The agree words of :func:`agree_words` as Python int masks, in order.

    Pure: reads the words only; returns a fresh list.
    """
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    width = 8 * words.shape[1]
    data = words.tobytes()
    return [
        int.from_bytes(data[offset : offset + width], "little")
        for offset in range(0, len(data), width)
    ]


def _stripped_from_labels(labels: np.ndarray, cardinality: int) -> StrippedPartition:
    """The stripped partition of one dense label column, by numpy grouping.

    Labels number values in first-occurrence order, so ascending label
    order is the canonical cluster order, and a stable sort keeps each
    cluster's rows ascending: one ``bincount`` and one stable ``argsort``
    of the grouped rows give :func:`partition_from_labels`'s clusters,
    in its order, and only the clusters are tupled.

    Pure: reads the labels only; returns a fresh partition.
    """
    sizes = np.bincount(labels, minlength=cardinality)
    multi = sizes > 1
    grouped = multi[labels]
    order = np.argsort(labels[grouped], kind="stable")
    rows = np.flatnonzero(grouped)[order].tolist()
    counts = sizes[multi]
    clusters = tuple(
        tuple(rows[end - size : end])
        for end, size in zip(np.cumsum(counts).tolist(), counts.tolist())
    )
    return StrippedPartition.from_tuples(clusters, len(labels), len(rows))


def _snapshot(
    relation: Relation,
    matrix: np.ndarray,
    cardinalities: tuple[int, ...],
    null_equals_null: bool,
) -> PreprocessedRelation:
    """A frozen snapshot over a read-only view of ``matrix``.

    Pure: wraps a fresh view; the caller's buffer stays writable.
    """
    view = matrix.view()
    view.setflags(write=False)
    return PreprocessedRelation(
        relation=relation,
        matrix=view,
        cardinalities=cardinalities,
        null_equals_null=null_equals_null,
    )


def preprocess(
    relation: Relation, null_equals_null: bool = True, delta: bool = False
) -> PreprocessedRelation:
    """Run the preprocessing module on ``relation``.

    ``null_equals_null`` selects NULL semantics: when True (the classic
    FD-discovery convention, used by Tane and HyFD) all NULLs of a column
    share one label; when False every NULL receives a fresh label and
    never agrees with anything, including another NULL.  ``None`` and
    float NaN are both NULL.

    ``delta=True`` retains the per-column encoder dictionaries and group
    membership lists so that :meth:`PreprocessedRelation.append_rows`
    runs at O(batch); a snapshot built without it cannot be appended to.
    """
    num_rows = relation.num_rows
    num_columns = relation.num_columns
    if num_columns == 0:
        raise ValueError("cannot preprocess a relation without columns")
    # u32 staging holds any label; the matrix narrows once all column
    # cardinalities are known.
    staging = np.empty((num_rows, num_columns), dtype=np.uint32)
    state = _DeltaState(staging, null_equals_null) if delta else None
    cardinalities = []
    for j, column in enumerate(relation.columns):
        labels, codes, next_label = _encode_column(column, null_equals_null)
        staging[:, j] = labels
        cardinalities.append(next_label)
        if state is not None:
            state.adopt_column(j, labels, codes, next_label)
    matrix = staging.astype(
        dtype_for_cardinality(max(cardinalities)), copy=False
    )
    data = _snapshot(relation, matrix, tuple(cardinalities), null_equals_null)
    if state is not None:
        state.matrix = matrix
        object.__setattr__(data, "_delta", state)
    return data


def _encode_column(
    column: "tuple[Any, ...] | list[Any]",
    null_equals_null: bool,
    codes: "dict[Any, int] | None" = None,
    next_label: int = 0,
) -> tuple[list[int], dict[Any, int], int]:
    """Assign dense labels in first-occurrence order (deterministic).

    Continues from ``codes``/``next_label`` when given (the delta path
    encoding an appended batch), else starts a fresh dictionary.
    Returns ``(labels, codes, next_label)`` — the encoder's dictionary
    and high-water mark come back alongside the labels so the delta path
    can retain them and keep encoding future appends at O(batch).

    ``None`` and NaN (``v != v``) are NULL.  A NaN never matches a
    dictionary key (it is unequal to itself, and no NaN is ever stored),
    so the NULL test runs only on dictionary misses.

    Mutates: codes
    """
    if codes is None:
        codes = {}
    labels = []
    for value in column:
        label = codes.get(value)
        if label is None:
            if value is None or value != value:
                if null_equals_null:
                    label = codes.get(_NULL)
                    if label is None:
                        label = codes[_NULL] = next_label
                        next_label += 1
                else:
                    label = next_label
                    next_label += 1
            else:
                label = codes[value] = next_label
                next_label += 1
        labels.append(label)
    return labels, codes, next_label
