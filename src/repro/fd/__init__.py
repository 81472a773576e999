"""Functional-dependency value types, covers, indexes, and inference."""

from . import attrset, inference
from .binary_tree import BinaryLhsTree
from .covers import (
    NegativeCover,
    PositiveCover,
    attribute_frequency_priority,
    default_index_factory,
    minimal_cover_from_fds,
)
from .fd import FD, sort_for_cover_insertion, violations_from_pair
from .fdtree import FDTreeIndex
from .lhs_index import BitsetLhsIndex, LhsIndex

__all__ = [
    "FD",
    "BinaryLhsTree",
    "BitsetLhsIndex",
    "FDTreeIndex",
    "LhsIndex",
    "NegativeCover",
    "PositiveCover",
    "attrset",
    "attribute_frequency_priority",
    "default_index_factory",
    "inference",
    "minimal_cover_from_fds",
    "sort_for_cover_insertion",
    "violations_from_pair",
]
