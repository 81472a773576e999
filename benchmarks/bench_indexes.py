"""E-IDX (index structures) — the extended binary tree, the FD-tree and the word store.

Section IV-D motivates the extended binary tree over the classic FD-tree
("consumes less memory while quickly searching for specializations and
generalizations").  Those searches run in negative-cover construction
(Algorithm 2).  This benchmark replays one violation stream — the one
EulerFD's sampler yields on the plista workload — three ways: Algorithm
2's insertion into per-RHS ``BinaryLhsTree`` objects, the same into
per-RHS ``FDTreeIndex`` objects, and the library's word-store
``NegativeCover``, which takes each agree set for all its RHSs at once.
The three covers must come out identical.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.datasets import registry
from repro.fd import FD, BinaryLhsTree, FDTreeIndex, NegativeCover, attrset


@pytest.fixture(scope="module")
def workload():
    """The column cardinalities and the exact ``(agree, novel)`` violation
    stream of one EulerFD sampler drain on plista."""
    from repro.core import EulerFDConfig
    from repro.core.sampler import SamplingModule
    from repro.engine import ExecutionContext

    relation = registry.make("plista", rows=400, columns=20)
    context = ExecutionContext(relation)
    data = context.data
    sampler = SamplingModule(data, EulerFDConfig(), context.sampling_clusters())
    violations: list[tuple[int, int]] = []
    while sampler.has_more():
        batch, stats = sampler.run_pass()
        if stats.pairs_compared == 0:
            break
        violations.extend(batch)
    return data.cardinalities, violations


def per_rhs_trees(tree_type, cardinalities, violations):
    """Algorithm 2's insertion, one non-FD at a time, into one tree per RHS."""
    trees = [tree_type() for _ in cardinalities]
    varying = [a for a, cardinality in enumerate(cardinalities) if cardinality > 1]
    stream = [(attrset.EMPTY, attrset.from_indices(varying)), *violations]
    for agree, novel in stream:
        for rhs in attrset.to_indices(novel):
            tree = trees[rhs]
            if tree.contains_superset(agree):
                continue
            for general in tree.find_subsets(agree):
                tree.remove(general)
            tree.add(agree)
    return frozenset(FD(lhs, rhs) for rhs, tree in enumerate(trees) for lhs in tree)


def word_store(cardinalities, violations):
    """The library's negative cover: one whole-store step per agree set."""
    ncover = NegativeCover(len(cardinalities))
    pending: list[FD] = []
    ncover.add_empty_lhs(cardinalities, pending)
    for agree, novel in violations:
        ncover.add_violations(agree, novel, pending)
    return frozenset(ncover)


BUILDERS = {
    "binary-tree": partial(per_rhs_trees, BinaryLhsTree),
    "fd-tree": partial(per_rhs_trees, FDTreeIndex),
    "word-store": word_store,
}


@pytest.mark.parametrize("structure", list(BUILDERS))
def test_ncover_with_index(benchmark, workload, structure):
    cardinalities, violations = workload
    result = benchmark.pedantic(
        lambda: BUILDERS[structure](cardinalities, violations),
        rounds=5,
        iterations=1,
    )
    reference = per_rhs_trees(BinaryLhsTree, cardinalities, violations)
    assert result == reference  # all three structures must agree exactly
