"""E-IDX (index structures) — the extended binary tree vs the FD-tree.

Section IV-D motivates the extended binary tree over the classic FD-tree
("consumes less memory while quickly searching for specializations and
generalizations").  Those searches run in negative-cover construction
(Algorithm 2): this benchmark replays an identical violation stream — the
one EulerFD's sampler yields on the plista workload — into a
``NegativeCover`` over each of the three LhsIndex implementations and
times it; covers must come out identical.
"""

from __future__ import annotations

import pytest

from repro.datasets import registry
from repro.fd import FD, BinaryLhsTree, BitsetLhsIndex, FDTreeIndex, NegativeCover

FACTORIES = {
    "binary-tree": BinaryLhsTree,
    "fd-tree": FDTreeIndex,
    "bitset": BitsetLhsIndex,
}


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


def ncover_with(factory, cardinalities, violations):
    ncover = NegativeCover(len(cardinalities), index_factory=factory)
    pending: list[FD] = []
    ncover.add_empty_lhs(cardinalities, pending)
    for agree, novel in violations:
        ncover.add_violations(agree, novel, pending)
    return frozenset(ncover)


@pytest.mark.parametrize("index_name", list(FACTORIES))
def test_ncover_with_index(benchmark, workload, index_name):
    cardinalities, violations = workload
    result = benchmark.pedantic(
        lambda: ncover_with(FACTORIES[index_name], cardinalities, violations),
        rounds=1,
        iterations=1,
    )
    reference = ncover_with(BinaryLhsTree, cardinalities, violations)
    assert result == reference  # all indexes must agree exactly
