"""Tests for the delta execution engine (DESIGN.md §12).

Covers the three layers an append passes through bottom-up —
preprocessing (``PreprocessedRelation.append_rows``), the partition store
(``PartitionStore.apply_delta``) and the execution context
(``ExecutionContext.append_rows``) — plus the shared-buffer guarantees
that keep an append O(batch).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine.context import ExecutionContext
from repro.engine.store import PartitionStore
from repro.fd import attrset
from repro.relation import Relation
from repro.relation.partition import partition_from_labels
from repro.relation.preprocess import preprocess

NAMES = ["a", "b", "c", "d"]


def random_rows(rng, count, spreads=(5, 3, 8, 2)):
    return [
        tuple(rng.randint(0, spread) for spread in spreads) for _ in range(count)
    ]


def concatenated(base_rows, batches):
    rows = list(base_rows)
    for batch in batches:
        rows.extend(batch)
    return Relation.from_rows(rows, NAMES)


def assert_matches_prefix(data, rows, null_equals_null):
    """``data`` equals a scratch preprocess of its ``num_rows``-row prefix."""
    scratch = preprocess(
        Relation.from_rows(rows[: data.num_rows], NAMES), null_equals_null
    )
    assert np.array_equal(data.matrix, scratch.matrix)
    assert data.cardinalities == scratch.cardinalities
    for j in range(data.num_columns):
        grown, reference = data.stripped(j), scratch.stripped(j)
        # canonical (first-occurrence) cluster order, not just set
        # equality: downstream sampling iterates in order
        assert grown.clusters == reference.clusters
        assert grown.num_rows == reference.num_rows
        assert grown.num_grouped_rows == reference.num_grouped_rows
        # ... and the grouping of the snapshot's own label column
        labels = data.labels(j).tolist()
        assert grown.clusters == partition_from_labels(labels, data.num_rows).clusters


class TestAppendRowsEquivalence:
    @pytest.mark.parametrize(
        ("null_equals_null", "read_late"),
        [
            pytest.param(True, False, id="True"),
            pytest.param(False, False, id="False"),
            pytest.param(True, True, id="late-True"),
            pytest.param(False, True, id="late-False"),
        ],
    )
    def test_matches_scratch_preprocess(self, null_equals_null, read_late):
        """Every snapshot of a lineage equals a scratch preprocess of its
        own prefix.  Read late, a snapshot builds its partitions only
        after the last append, from label → rows lists that newer rows
        have grown, and must still see its prefix alone.  The third
        batch widens the label matrix from u8 to u16 mid-lineage."""
        rng = random.Random(3)
        base = random_rows(rng, 20)
        widening = [(value, value % 3, None, 1) for value in range(300)]
        batches = [
            random_rows(rng, 4),
            random_rows(rng, 1),
            widening,
            random_rows(rng, 7),
        ]
        rows = [row for batch in [base, *batches] for row in batch]
        data = preprocess(
            Relation.from_rows(base, NAMES), null_equals_null, delta=True
        )
        lineage = []
        for batch in batches:
            data = data.append_rows(batch)
            lineage.append(data)
            if not read_late:
                assert_matches_prefix(data, rows, null_equals_null)
        assert lineage[1].matrix.dtype == np.uint8
        assert lineage[2].matrix.dtype == np.uint16
        if read_late:
            for data in lineage:
                assert_matches_prefix(data, rows, null_equals_null)

    def test_nulls_with_distinct_null_semantics(self):
        rows = [(None, 1, 1, 1), (None, 1, 2, 1), (0, 2, 2, 2)]
        data = preprocess(
            Relation.from_rows(rows, NAMES), False, delta=True
        )
        grown = data.append_rows([(None, 1, 1, 1), (0, 2, 2, 2)])
        scratch = preprocess(
            Relation.from_rows(
                rows + [(None, 1, 1, 1), (0, 2, 2, 2)], NAMES
            ),
            False,
        )
        for j in range(grown.num_columns):
            assert grown.stripped(j) == scratch.stripped(j)

    def test_append_delta_shape(self):
        data = preprocess(
            Relation.from_rows([(1, 1, 1, 1), (2, 1, 1, 1)], NAMES),
            delta=True,
        )
        grown = data.append_rows([(1, 2, 1, 1), (3, 1, 1, 1)])
        delta = grown.append_delta
        assert delta.first_new == 2
        assert delta.num_rows == 4
        assert delta.cardinalities == (3, 2, 1, 1)
        # column a: row 2 joins row 0's cluster; column b: rows 0, 1, 3
        assert delta.touched == (((0, 2),), ((0, 1, 3),), ((0, 1, 2, 3),),
                                 ((0, 1, 2, 3),))

    def test_non_delta_snapshot_cannot_grow(self):
        data = preprocess(Relation.from_rows([(1, 1, 1, 1)], NAMES))
        with pytest.raises(ValueError, match="delta=True"):
            data.append_rows([(2, 2, 2, 2)])

    def test_old_snapshot_is_isolated_and_stale(self):
        data = preprocess(
            Relation.from_rows([(1, 1, 1, 1), (2, 1, 1, 1)], NAMES),
            delta=True,
        )
        grown = data.append_rows([(3, 2, 2, 2)])
        assert data.num_rows == 2
        assert grown.num_rows == 3
        with pytest.raises(ValueError, match="stale"):
            data.append_rows([(4, 4, 4, 4)])
        grown.append_rows([(4, 4, 4, 4)])  # the newest snapshot may grow

    def test_matrix_buffer_is_shared_not_copied(self):
        """O(batch): the grown matrix is a view of the same lineage buffer."""
        data = preprocess(
            Relation.from_rows([(1, 1, 1, 1), (2, 2, 2, 2)], NAMES),
            delta=True,
        )
        state = data.__dict__["_delta"]
        grown = data.append_rows([(3, 3, 3, 3)])
        assert grown.matrix.base is state.matrix
        assert not grown.matrix.flags.writeable


class TestMatrixDeltaMaintenance:
    def test_lineage_holds_one_matrix_buffer(self):
        """Appends grow the one label matrix; no second encoded copy."""
        rng = random.Random(11)
        base = random_rows(rng, 30)
        data = preprocess(Relation.from_rows(base, NAMES), delta=True)
        state = data.__dict__["_delta"]
        batches = [random_rows(rng, 6), random_rows(rng, 3)]
        for index, batch in enumerate(batches):
            data = data.append_rows(batch)
            assert data.matrix.base is state.matrix
            scratch = preprocess(concatenated(base, batches[: index + 1]))
            assert data.matrix.dtype == scratch.matrix.dtype
            assert data.cardinalities == scratch.cardinalities
        arrays = [value for value in vars(data).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 1
        assert [
            slot for slot in type(state).__slots__
            if isinstance(getattr(state, slot), np.ndarray)
        ] == ["matrix"]


class TestStoreDelta:
    def test_cold_entries_are_released_not_extended(self):
        """An append extends no derived entry: it drops them all, and each
        one requested again is re-derived from the grown singletons and
        equals a scratch store's."""
        rng = random.Random(19)
        base = random_rows(rng, 25, spreads=(3, 3, 3, 3))
        context = ExecutionContext(
            Relation.from_rows(base, NAMES), delta=True
        )
        masks = [mask for mask in range(1, 16) if attrset.size(mask) >= 2]
        batches = [random_rows(rng, 3, spreads=(3, 3, 3, 3)) for _ in range(3)]
        for index, batch in enumerate(batches):
            for mask in masks:
                context.partition(mask)
            derives = context.partitions.derives
            context.append_rows(batch)
            assert not any(mask in context.partitions for mask in masks)
            assert context.partitions.derives == derives
            reference = PartitionStore(
                preprocess(concatenated(base, batches[: index + 1]))
            )
            for mask in [attrset.EMPTY, *map(attrset.singleton, range(4)), *masks]:
                assert context.partitions.get(mask) == reference.get(mask)
            assert context.partitions.resident_bytes == reference.resident_bytes

    def test_sampling_clusters_refresh_after_append(self):
        rng = random.Random(23)
        base = random_rows(rng, 30)
        context = ExecutionContext(Relation.from_rows(base, NAMES), delta=True)
        context.sampling_clusters()
        batch = random_rows(rng, 6)
        context.append_rows(batch)
        fresh = ExecutionContext(concatenated(base, [batch]))
        assert sorted(context.sampling_clusters()) == sorted(
            fresh.sampling_clusters()
        )
