"""The narrow label matrix at its edges: the mmap transport that ships it
to process workers, degenerate relations, and the store's cost model.

The label matrix is stored row-major in the narrowest unsigned dtype its
widest column needs; these cases check that every path which moves or
reads it keeps that dtype and those labels intact.
"""

from __future__ import annotations

import glob
import os
import tempfile

import numpy as np
import pytest

import repro.engine.parallel as parallel
from repro.datasets import registry
from repro.engine import close_all_pools, get_pool
from repro.engine.shm import (
    MMAP_PREFIX,
    InlineMatrix,
    MmapMatrixRef,
    MmapSegment,
    publish_matrix,
    resolve_matrix,
)
from repro.relation import Relation, preprocess
from repro.relation.preprocess import agree_words
from repro.relation.validate import constant_on, fold_group_keys


@pytest.fixture(autouse=True)
def fresh_pools():
    close_all_pools()
    yield
    close_all_pools()


def _matrix_of_rows(rows, names=None):
    return preprocess(Relation.from_rows(rows, names), True).matrix


def _mmap_files() -> set[str]:
    pattern = os.path.join(tempfile.gettempdir(), f"{MMAP_PREFIX}*")
    return set(glob.glob(pattern))


class TestNullAndDegenerateLabels:
    def test_empty_relation(self):
        data = preprocess(Relation.from_rows([], ["a", "b"]), True)
        assert data.matrix.shape == (0, 2)
        assert data.cardinalities == (0, 0)
        keys = fold_group_keys(data, 0b11)
        assert keys.keys.size == 0
        assert constant_on(data, keys, 1)


class TestMmapTransport:
    def test_round_trip(self):
        matrix = _matrix_of_rows([(i % 5, i, "k") for i in range(100)])
        before = _mmap_files()
        handle, cleanup = publish_matrix(matrix)
        try:
            assert isinstance(handle, MmapMatrixRef)
            assert os.path.exists(handle.path)
            attached = resolve_matrix(handle)
            assert attached.shape == matrix.shape
            assert attached.dtype == matrix.dtype
            assert np.array_equal(attached, matrix)
            assert not attached.flags.writeable
        finally:
            cleanup()
        assert _mmap_files() == before

    def test_cleanup_is_idempotent(self):
        matrix = _matrix_of_rows([(1, 2), (3, 4)])
        handle, cleanup = publish_matrix(matrix)
        cleanup()
        cleanup()
        assert not os.path.exists(handle.path)

    def test_inline_fallback(self, unwritable_temp_dir):
        matrix = _matrix_of_rows([(1, 2), (3, 4)])
        handle, cleanup = publish_matrix(matrix)
        assert isinstance(handle, InlineMatrix)
        assert resolve_matrix(handle) is matrix
        cleanup()

    def test_no_leaked_mmap_files_after_pool_close(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PAIRS_PER_WORKER", 1)
        before = _mmap_files()
        data = preprocess(registry.make("fd-reduced-30", rows=200, seed=11), True)
        pool = get_pool("process:2")
        rows_a, rows_b = np.arange(150), np.arange(50, 200)
        masks = parallel.agree_masks_sharded(pool, data, rows_a, rows_b)
        assert np.array_equal(masks, agree_words(data.matrix, rows_a, rows_b))
        close_all_pools()
        assert _mmap_files() - before == set()

    def test_mmap_metrics_rise_and_fall(self):
        from repro.obs import names
        from repro.obs import collecting_metrics

        matrix = _matrix_of_rows([(i, i % 3) for i in range(64)])
        with collecting_metrics() as registry_:
            _, cleanup = publish_matrix(matrix)
            assert registry_.gauges[names.MMAP_FILES] == 1.0
            assert registry_.gauges[names.MMAP_BYTES] >= matrix.nbytes
            cleanup()
            assert registry_.gauges[names.MMAP_FILES] == 0.0
            assert registry_.gauges[names.MMAP_BYTES] == 0.0
            cleanup()  # idempotent: a second call must not go negative
            assert registry_.gauges[names.MMAP_FILES] == 0.0

    def test_failed_write_discards_the_file_and_reraises(self, monkeypatch):
        # e.g. disk full mid-write: the half-written file must not outlive
        # the failed publish, and no gauge may count it.
        from repro.obs import collecting_metrics, names

        def full_disk(self, payload):
            raise OSError("No space left on device")

        monkeypatch.setattr(MmapSegment, "write", full_disk)
        matrix = _matrix_of_rows([(i, i % 3) for i in range(64)])
        before = _mmap_files()
        with collecting_metrics() as registry_:
            with pytest.raises(OSError, match="No space left"):
                publish_matrix(matrix)
        assert _mmap_files() == before
        assert names.MMAP_FILES not in registry_.gauges
        assert names.MMAP_BYTES not in registry_.gauges
