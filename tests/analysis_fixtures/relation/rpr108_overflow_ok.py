"""RPR108 clean variant: fold-limit guard + np.unique re-densify.

Mirrors ``relation/validate.fold_column``: every path into the fold has
passed the false edge of a ``bound * cardinality >= _FOLD_LIMIT`` check,
so the width analysis proves the multiply safe.
"""

from __future__ import annotations

import numpy as np

_FOLD_LIMIT = 1 << 62


def fold_guarded(keys, labels) -> object:
    cardinality = int(labels.max(initial=0)) + 1
    bound = int(keys.max(initial=0)) + 1
    if bound * cardinality >= _FOLD_LIMIT:
        _, keys = np.unique(keys, return_inverse=True)
        keys = keys.astype(np.int64, copy=False)
        bound = int(keys.max(initial=0)) + 1
        if bound * cardinality >= _FOLD_LIMIT:
            raise OverflowError("group key fold exceeded int64")
    return keys * cardinality + labels
