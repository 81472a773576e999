"""Relational instances, preprocessing, and partitions."""

from .csvio import read_csv, write_csv
from .partition import (
    StrippedPartition,
    full_partition_from_labels,
    partition_from_labels,
)
from .preprocess import PreprocessedRelation, dtype_for_cardinality, preprocess
from .relation import Relation, default_column_names
from .validate import fd_holds, find_violation, group_keys

__all__ = [
    "PreprocessedRelation",
    "Relation",
    "StrippedPartition",
    "dtype_for_cardinality",
    "default_column_names",
    "full_partition_from_labels",
    "partition_from_labels",
    "fd_holds",
    "find_violation",
    "group_keys",
    "preprocess",
    "read_csv",
    "write_csv",
]
