"""Tests for the delta execution engine (DESIGN.md §12).

Covers the three delta-maintained layers bottom-up — preprocessing
(``PreprocessedRelation.append_rows``), the partition store
(``PartitionStore.apply_delta``) and the execution context
(``ExecutionContext.append_rows``) — plus the O(batch) operation-count
guarantees the layers exist to provide.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine.context import ExecutionContext
from repro.engine.store import PartitionStore
from repro.fd import attrset
from repro.relation import Relation
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


class TestAppendRowsEquivalence:
    @pytest.mark.parametrize("delta", [True, False])
    @pytest.mark.parametrize("null_equals_null", [True, False])
    def test_matches_scratch_preprocess(self, delta, null_equals_null):
        rng = random.Random(3)
        base = random_rows(rng, 20)
        batches = [random_rows(rng, 4), random_rows(rng, 1), random_rows(rng, 7)]
        data = preprocess(
            Relation.from_rows(base, NAMES), null_equals_null, delta=delta
        )
        for index, batch in enumerate(batches):
            data = data.append_rows(batch)
            scratch = preprocess(
                concatenated(base, batches[: index + 1]), null_equals_null
            )
            assert np.array_equal(data.matrix, scratch.matrix)
            for grown, reference in zip(data.stripped, scratch.stripped):
                # canonical (first-occurrence) cluster order, not just
                # set equality: downstream sampling iterates in order
                assert grown.clusters == reference.clusters
                assert grown.num_rows == reference.num_rows

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
        for grown_partition, reference in zip(grown.stripped, scratch.stripped):
            assert grown_partition == reference

    def test_append_delta_shape(self):
        data = preprocess(
            Relation.from_rows([(1, 1, 1, 1), (2, 1, 1, 1)], NAMES),
            delta=True,
        )
        grown = data.append_rows([(1, 2, 1, 1), (3, 1, 1, 1)])
        delta = grown.append_delta
        assert delta.first_new == 2
        assert delta.num_new == 2
        assert delta.num_rows == 4
        assert len(delta.touched) == 4
        # ops assertion: exactly batch x columns cells were encoded
        assert delta.cells_encoded == 2 * 4

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
    MASKS = [
        attrset.from_indices([0, 1]),
        attrset.from_indices([1, 2]),
        attrset.from_indices([0, 2, 3]),
        attrset.from_indices([2, 3]),
    ]

    def test_extended_entries_match_scratch_derivation(self):
        rng = random.Random(7)
        base = random_rows(rng, 40)
        context = ExecutionContext(
            Relation.from_rows(base, NAMES), delta=True
        )
        for mask in self.MASKS:
            context.partition(mask)
        batches = [random_rows(rng, 5), random_rows(rng, 2), random_rows(rng, 8)]
        for index, batch in enumerate(batches):
            context.append_rows(batch)
            reference = PartitionStore(
                preprocess(concatenated(base, batches[: index + 1]))
            )
            for mask in self.MASKS:
                assert context.partitions.get(mask) == reference.get(mask)
            for attribute in range(4):
                singleton = attrset.singleton(attribute)
                assert context.partitions.get(singleton) == reference.get(
                    singleton
                )
            assert context.partitions.get(attrset.EMPTY) == reference.get(
                attrset.EMPTY
            )
        stats = context.partitions.stats()
        assert stats["delta_applied"] == len(self.MASKS) * len(batches)
        assert stats["delta_rebuilt"] == 0

    def test_cold_entries_are_released_not_extended(self, monkeypatch):
        import repro.engine.store as store_module

        monkeypatch.setattr(store_module, "DELTA_EXTEND_LIMIT", 4)
        rng = random.Random(19)
        base = random_rows(rng, 25, spreads=(3, 3, 3, 3))
        context = ExecutionContext(
            Relation.from_rows(base, NAMES), delta=True
        )
        # more cached derived entries than the per-append extend budget
        masks = [
            mask
            for mask in range(1, 16)
            if attrset.size(mask) >= 2
        ]
        for mask in masks:
            context.partition(mask)
        batch = random_rows(rng, 3, spreads=(3, 3, 3, 3))
        context.append_rows(batch)
        stats = context.partitions.stats()
        assert stats["delta_applied"] + stats["delta_rebuilt"] == len(masks)
        assert stats["delta_applied"] == 4
        assert stats["delta_rebuilt"] == len(masks) - 4
        # every entry — extended or re-derived on demand — is exact
        reference = PartitionStore(preprocess(concatenated(base, [batch])))
        for mask in masks:
            assert context.partitions.get(mask) == reference.get(mask)

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
