"""Tests for the preprocessing module (Section IV-B, Table II)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import create
from repro.core import IncrementalEulerFD
from repro.datasets import patients
from repro.engine import ExecutionContext
from repro.fd import FD, attrset
from repro.relation import Relation, preprocess
from repro.relation.partition import partition_from_labels
from repro.engine.parallel import distinct_agree_masks_sharded
from repro.engine.shm import MatrixView
from repro.relation.preprocess import (
    agree_words,
    decode_agree_words,
    dtype_for_cardinality,
)


class TestLabelMatrix:
    def test_table2_reproduction(self, patient_relation):
        """Preprocessing Table I must yield exactly Table II."""
        data = preprocess(patient_relation)
        expected = np.array(
            [
                [1, 1, 1, 1, 1],
                [2, 2, 2, 2, 2],
                [3, 3, 3, 1, 3],
                [4, 4, 2, 1, 4],
                [5, 2, 3, 1, 3],
                [6, 4, 3, 1, 3],
                [7, 2, 2, 1, 2],
                [8, 5, 3, 2, 4],
                [9, 6, 2, 3, 2],
            ]
        ) - 1  # the paper labels from 1, we label from 0
        assert (data.matrix == expected).all()

    def test_labels_independent_per_column(self):
        relation = Relation.from_rows([("a", "a"), ("b", "a")], ["x", "y"])
        data = preprocess(relation)
        assert list(data.matrix[:, 0]) == [0, 1]
        assert list(data.matrix[:, 1]) == [0, 0]

    def test_matrix_is_readonly(self, patient_relation):
        data = preprocess(patient_relation)
        with pytest.raises(ValueError):
            data.matrix[0, 0] = 99

    def test_rejects_zero_columns(self):
        with pytest.raises(ValueError):
            preprocess(Relation.from_rows([], column_names=[]))

    def test_cardinality(self, patient_relation):
        data = preprocess(patient_relation)
        assert data.cardinality(0) == 9  # Name: all distinct
        assert data.cardinality(3) == 3  # Gender: F, M, Q

    def test_cardinality_of_empty_relation(self):
        data = preprocess(Relation.from_rows([], ["a"]))
        assert data.cardinality(0) == 0


class TestLabelDtype:
    @pytest.mark.parametrize(
        "cardinality,expected",
        [
            (0, "uint8"),
            (1, "uint8"),
            (256, "uint8"),
            (257, "uint16"),
            (65536, "uint16"),
            (65537, "uint32"),
            (1 << 32, "uint32"),
        ],
    )
    def test_tight_ladder(self, cardinality, expected):
        assert dtype_for_cardinality(cardinality) == np.dtype(expected)

    def test_negative_cardinality_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            dtype_for_cardinality(-1)

    @pytest.mark.parametrize(
        "distinct,expected",
        [(256, "uint8"), (257, "uint16"), (65536, "uint16"), (65537, "uint32")],
    )
    def test_one_matrix_in_the_widest_columns_dtype(self, distinct, expected):
        rows = [(i % distinct, "k") for i in range(max(distinct, 300))]
        data = preprocess(Relation.from_rows(rows, ["wide", "const"]))
        assert data.cardinalities == (distinct, 1)
        assert data.matrix.dtype == np.dtype(expected)
        assert data.matrix.flags.c_contiguous
        assert not data.matrix.flags.writeable
        # labels survive the narrow storage bit-for-bit
        assert data.matrix[:, 0].tolist() == [row[0] for row in rows]

    def test_mid_stream_promotion_widens_the_whole_matrix(self):
        base = [(value, value % 7) for value in range(250)]
        data = preprocess(Relation.from_rows(base, ["a", "b"]), delta=True)
        assert data.matrix.dtype == np.uint8
        grown = data.append_rows([(value, value % 7) for value in range(250, 300)])
        assert grown.matrix.dtype == np.uint16
        assert grown.matrix.flags.c_contiguous
        # the pre-append snapshot keeps its own narrow buffer
        assert data.matrix.dtype == np.uint8
        assert not np.shares_memory(data.matrix, grown.matrix)
        scratch = preprocess(Relation.from_rows(
            base + [(value, value % 7) for value in range(250, 300)], ["a", "b"]
        ))
        assert np.array_equal(grown.matrix, scratch.matrix)
        assert grown.matrix.dtype == scratch.matrix.dtype
        # no crossing: the next append keeps the widened buffer
        assert grown.append_rows([(1, 1)]).matrix.dtype == np.uint16


class TestNullSemantics:
    def test_null_equals_null(self):
        relation = Relation.from_rows([(None,), (None,), ("x",)], ["a"])
        data = preprocess(relation, null_equals_null=True)
        assert data.matrix[0, 0] == data.matrix[1, 0]
        assert data.matrix[2, 0] != data.matrix[0, 0]

    def test_null_not_equals_null(self):
        relation = Relation.from_rows([(None,), (None,), ("x",)], ["a"])
        data = preprocess(relation, null_equals_null=False)
        assert data.matrix[0, 0] != data.matrix[1, 0]

    def test_none_distinct_from_string_none(self):
        relation = Relation.from_rows([(None,), ("None",)], ["a"])
        data = preprocess(relation)
        assert data.matrix[0, 0] != data.matrix[1, 0]

    @pytest.mark.parametrize("null_equals_null", [True, False])
    def test_nan_encodes_like_none(self, null_equals_null):
        nan_rows = [(float("nan"), 1), (float("nan"), 1), ("x", 2)]
        none_rows = [(None, 1), (None, 1), ("x", 2)]
        with_nan = preprocess(Relation.from_rows(nan_rows, ["a", "b"]), null_equals_null)
        with_none = preprocess(Relation.from_rows(none_rows, ["a", "b"]), null_equals_null)
        assert np.array_equal(with_nan.matrix, with_none.matrix)

    @pytest.mark.parametrize("appended", [False, True])
    def test_nan_column_is_constant(self, appended):
        """Regression: two NaNs are one NULL value, so ``[] -> a`` holds."""
        rows = [(float("nan"), 1), (float("nan"), 1)]
        if appended:
            session = IncrementalEulerFD(
                Relation.from_rows(rows[:1], ["a", "b"]), exhaustive_base=True
            )
            fds = session.append(rows[1:]).fds
            assert session.context.data.cardinalities == (1, 1)
        else:
            relation = Relation.from_rows(rows, ["a", "b"])
            assert preprocess(relation).cardinalities == (1, 1)
            fds = create("tane").discover(relation).fds
        assert fds == {FD(0, 0), FD(0, 1)}

    def test_append_keeps_nan_as_null(self):
        data = preprocess(Relation.from_rows([(float("nan"),)], ["a"]), delta=True)
        grown = data.append_rows([(float("nan"),), (None,)])
        assert grown.matrix[:, 0].tolist() == [0, 0, 0]

    ROWS = [
        ("a", None, ""),
        ("a", None, "x"),
        ("b", "", ""),
        ("b", None, "x"),
        (None, "", None),
    ]

    @pytest.mark.parametrize("null_equals_null", [True, False])
    def test_null_and_empty_string_parity_across_backends(self, null_equals_null):
        """NULL and empty-string labels validate identically on both backends."""
        relation = Relation.from_rows(self.ROWS, ["a", "b", "c"])
        contexts = [
            ExecutionContext(relation, backend=name, null_equals_null=null_equals_null)
            for name in ("numpy", "python")
        ]
        universe = attrset.universe(3)
        for lhs in range(universe + 1):
            for rhs in range(3):
                fd = FD(lhs & ~attrset.singleton(rhs), rhs)
                assert len({context.fd_holds(fd) for context in contexts}) == 1, fd


class TestAgreeMask:
    def test_agree_mask_of_paper_pair(self, patient_relation):
        data = preprocess(patient_relation)
        # t2 and t8 (0-based rows 1, 7) share only Gender = Male (bit 3).
        assert data.agree_mask(1, 7) == 0b01000

    def test_agree_mask_identity(self, patient_relation):
        data = preprocess(patient_relation)
        assert data.agree_mask(2, 2) == 0b11111

    def test_agree_mask_disjoint(self):
        relation = Relation.from_rows([(1, 2), (3, 4)], ["a", "b"])
        data = preprocess(relation)
        assert data.agree_mask(0, 1) == 0

    def test_agree_mask_wide_relation(self):
        # More than 64 columns exercises the multi-byte packing path.
        width = 130
        row_a = list(range(width))
        row_b = [v if i % 3 == 0 else -v - 1 for i, v in enumerate(row_a)]
        relation = Relation.from_rows([row_a, row_b])
        data = preprocess(relation)
        expected = sum(1 << i for i in range(width) if i % 3 == 0)
        assert data.agree_mask(0, 1) == expected


def bulk(data, rows_a, rows_b, distinct=False):
    """Decoded agree masks of row pairs through the word kernel."""
    rows_a = np.asarray(rows_a, dtype=np.intp)
    rows_b = np.asarray(rows_b, dtype=np.intp)
    return decode_agree_words(agree_words(data.matrix, rows_a, rows_b, distinct))


def brute_mask(matrix, row_a, row_b):
    """Per-attribute reference agree mask, no bit packing involved."""
    return sum(
        1 << j for j in range(matrix.shape[1]) if matrix[row_a, j] == matrix[row_b, j]
    )


class TestAgreeMasksBulk:
    def test_matches_single_pair_api(self, patient_relation):
        data = preprocess(patient_relation)
        rows_a = [0, 1, 2, 3]
        rows_b = [4, 5, 6, 7]
        singles = [data.agree_mask(a, b) for a, b in zip(rows_a, rows_b)]
        assert bulk(data, rows_a, rows_b) == singles

    def test_empty_batch(self, patient_relation):
        data = preprocess(patient_relation)
        assert bulk(data, [], []) == []
        words = agree_words(data.matrix, np.empty(0, np.intp), np.empty(0, np.intp))
        assert words.shape == (0, 1)
        assert agree_words(data.matrix, [], [], distinct=True).shape == (0, 1)
        one_row = MatrixView(data.matrix[:1], ())
        assert distinct_agree_masks_sharded(None, one_row).shape == (0, 1)

    def test_wide_bulk(self):
        width = 100
        rows = [tuple(range(width)), tuple(-v for v in range(width))]
        data = preprocess(Relation.from_rows(rows))
        assert bulk(data, [0], [1]) == [1]  # only column 0 agrees (0 == -0)

    def test_beyond_64_attributes(self):
        """> 64 columns exercises the per-pair decode fallback."""
        rng = np.random.default_rng(5)
        rows = [tuple(rng.integers(0, 3, size=70).tolist()) for _ in range(20)]
        data = preprocess(Relation.from_rows(rows))
        rows_a, rows_b = list(range(10)), list(range(10, 20))
        masks = bulk(data, rows_a, rows_b)
        assert masks == [data.agree_mask(a, b) for a, b in zip(rows_a, rows_b)]
        assert any(mask >> 64 for mask in masks)

    def test_random_agreement(self):
        import random

        rng = random.Random(1)
        rows = [tuple(rng.randint(0, 2) for _ in range(9)) for _ in range(30)]
        data = preprocess(Relation.from_rows(rows))
        rows_a = list(range(15))
        rows_b = list(range(15, 30))
        for a, b, mask in zip(rows_a, rows_b, bulk(data, rows_a, rows_b)):
            assert mask == data.agree_mask(a, b)

    @pytest.mark.parametrize("width", [1, 8, 9, 16, 17, 63, 64, 65, 130])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_word_boundary_widths_and_label_dtypes(self, width, dtype):
        """Every kernel mode at and around the byte and 64-attribute word
        boundaries: comparison rows that need no byte padding (8, 16, 64)
        and rows that do (9, 17, 63)."""
        rng = np.random.default_rng(width)
        base = np.iinfo(dtype).max - 2  # labels from the top of the dtype
        matrix = (base + rng.integers(0, 3, size=(24, width))).astype(dtype)
        rows_a = rng.integers(0, 24, size=60).astype(np.intp)
        rows_b = rng.integers(0, 24, size=60).astype(np.intp)
        words = agree_words(matrix, rows_a, rows_b)
        assert words.dtype == np.dtype("<u8")
        assert words.shape == (60, -(-width // 64))
        plain = decode_agree_words(words)
        assert plain == [brute_mask(matrix, a, b) for a, b in zip(rows_a, rows_b)]
        distinct = decode_agree_words(agree_words(matrix, rows_a, rows_b, True))
        assert distinct == list(dict.fromkeys(plain))
        # Fdep's anchor sweep: first-occurrence order of the serial scan.
        expected = list(
            dict.fromkeys(
                brute_mask(matrix, i, j)
                for i in range(24)
                for j in range(i + 1, 24)
            )
        )
        swept = distinct_agree_masks_sharded(None, MatrixView(matrix, ()))
        assert decode_agree_words(swept) == expected


class TestStrippedPartitions:
    def test_clusters_iteration(self, patient_relation):
        data = preprocess(patient_relation)
        # Name is a key: no clusters; Age has 2; Blood 2; Gender 2; Medicine 3.
        counts = [len(data.stripped(j).clusters) for j in range(data.num_columns)]
        assert counts == [0, 2, 2, 2, 3]

    def test_partition_of_key_column_is_empty(self, patient_relation):
        data = preprocess(patient_relation)
        assert data.stripped(0).is_superkey()

    def test_labels_view(self, patient_relation):
        data = preprocess(patient_relation)
        assert list(data.labels(3)) == [0, 1, 0, 0, 0, 0, 0, 1, 2]

    @pytest.mark.parametrize("null_equals_null", [True, False])
    @pytest.mark.parametrize(
        "rows,dtype",
        [
            ([], np.uint8),
            ([("x", 1, 0)], np.uint8),
            (
                [(None, 1, 0), (float("nan"), 1, 1), ("x", 1, 2), (None, 1, 3),
                 ("x", 1, 4), (float("nan"), 1, 5), ("y", 1, 6)],
                np.uint8,
            ),
            ([((i * 7) % 13, 1, i) for i in range(40)], np.uint8),
            ([((i * 7) % 300, 1, i) for i in range(700)], np.uint16),
        ],
        ids=["empty", "one-row", "nulls", "u8", "u16"],
    )
    def test_cold_partitions_match_the_label_grouping(
        self, rows, dtype, null_equals_null
    ):
        """A cold snapshot's numpy-grouped clusters are
        ``partition_from_labels``' clusters, tuple for tuple and in its
        order (``StrippedPartition.__eq__`` sorts, so it cannot see
        order), with a constant and an all-unique column."""
        relation = Relation.from_rows(rows, ["a", "const", "key"])
        data = preprocess(relation, null_equals_null)
        assert data.matrix.dtype == dtype
        for j in range(data.num_columns):
            expected = partition_from_labels(data.labels(j).tolist(), data.num_rows)
            built = data.stripped(j)
            assert built.clusters == expected.clusters
            assert built.num_rows == expected.num_rows
            assert built.num_grouped_rows == expected.num_grouped_rows
