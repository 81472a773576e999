"""RPR114 fixture: a streaming path that re-encodes the whole relation.

A bare ``preprocess(...)`` call rebuilds the label matrix per append.
"""

from __future__ import annotations


def per_append_reencode(relation, encoder) -> object:
    data = encoder.preprocess(relation)
    return data
