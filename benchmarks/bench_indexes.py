"""E-IDX (index structures) — the extended binary tree vs the FD-tree.

Section IV-D motivates the extended binary tree over the classic FD-tree
("consumes less memory while quickly searching for specializations and
generalizations").  Those searches run in negative-cover construction
(Algorithm 2): this benchmark replays an identical non-FD stream — the
one EulerFD collects on the plista workload — into a ``NegativeCover``
over each of the three LhsIndex implementations and times it; covers must
come out identical.
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
    """The exact non-FD stream of one EulerFD run on plista."""
    from repro.core import EulerFDConfig
    from repro.core.sampler import SamplingModule
    from repro.engine import ExecutionContext

    relation = registry.make("plista", rows=400, columns=20)
    context = ExecutionContext(relation)
    data = context.data
    sampler = SamplingModule(data, EulerFDConfig(), context.sampling_clusters())
    non_fds: list[FD] = []
    for attribute in range(data.num_columns):
        if data.cardinality(attribute) > 1:
            non_fds.append(FD(0, attribute))
    while sampler.has_more():
        violations, stats = sampler.run_pass()
        if stats.pairs_compared == 0:
            break
        for agree, novel in violations:
            remaining = novel
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                non_fds.append(FD(agree, bit.bit_length() - 1))
    return data.num_columns, non_fds


def ncover_with(factory, num_columns, non_fds):
    ncover = NegativeCover(num_columns, index_factory=factory)
    ncover.add_all(non_fds)
    return frozenset(ncover)


@pytest.mark.parametrize("index_name", list(FACTORIES))
def test_ncover_with_index(benchmark, workload, index_name):
    num_columns, non_fds = workload
    result = benchmark.pedantic(
        lambda: ncover_with(FACTORIES[index_name], num_columns, non_fds),
        rounds=1,
        iterations=1,
    )
    reference = ncover_with(BinaryLhsTree, num_columns, non_fds)
    assert result == reference  # all indexes must agree exactly
