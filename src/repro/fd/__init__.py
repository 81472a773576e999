"""Functional-dependency value types, covers, LHS trees, and inference."""

from . import attrset, inference
from .binary_tree import BinaryLhsTree
from .covers import NegativeCover, PositiveCover
from .fd import FD, sort_for_cover_insertion
from .fdtree import FDTreeIndex

__all__ = [
    "FD",
    "BinaryLhsTree",
    "FDTreeIndex",
    "NegativeCover",
    "PositiveCover",
    "attrset",
    "inference",
    "sort_for_cover_insertion",
]
