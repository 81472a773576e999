"""Tests for the execution engine: backends, partition store, contexts.

The equivalence tests treat a naive pure-Python grouping as the oracle,
so both backends are checked against something that shares no code with
either kernel.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest

from repro.bench.runner import default_algorithms, run_algorithm
from repro.datasets import registry
from repro.engine import (
    BACKEND_ENV,
    ExecutionContext,
    NumpyBackend,
    PartitionStore,
    PythonBackend,
    acquire_context,
    backend_names,
    current_context,
    get_backend,
    use_context,
)
from repro.fd import FD, attrset
from repro.relation import Relation, group_keys, preprocess
from repro.relation.partition import partition_from_labels

BACKENDS = ("numpy", "python")


def random_relation(seed: int, rows: int = 40, columns: int = 5, card: int = 3):
    rng = random.Random(seed)
    data = [
        tuple(rng.randint(0, card - 1) for _ in range(columns))
        for _ in range(rows)
    ]
    return Relation.from_rows(
        data, [f"c{i}" for i in range(columns)], name=f"rand{seed}"
    )


def naive_fd_holds(relation: Relation, fd: FD) -> bool:
    """Dict-of-sets oracle over the raw rows, independent of any kernel."""
    columns = list(attrset.to_indices(fd.lhs))
    groups: dict[tuple, set] = {}
    for row in zip(*relation.columns):
        key = tuple(row[c] for c in columns)
        groups.setdefault(key, set()).add(row[fd.rhs])
    return all(len(values) == 1 for values in groups.values())


class TestBackendSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert get_backend().name == "numpy"

    def test_environment_variable_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert get_backend().name == "python"
        assert ExecutionContext(random_relation(0)).backend.name == "python"

    def test_explicit_name_beats_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert get_backend("numpy").name == "numpy"

    def test_instance_passes_through(self):
        backend = PythonBackend()
        assert get_backend(backend) is backend

    def test_unknown_name_raises(self):
        for name in ("cuda", "columnar"):
            with pytest.raises(ValueError, match="unknown backend"):
                get_backend(name)

    def test_registered_names(self):
        assert backend_names() == ["numpy", "python"]
        assert isinstance(NumpyBackend(), object)


class TestValidateManyEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_per_fd_oracle_on_random_batches(self, backend):
        for seed in range(6):
            relation = random_relation(seed, rows=30 + seed * 7)
            context = ExecutionContext(relation, backend=backend)
            rng = random.Random(100 + seed)
            universe = attrset.universe(relation.num_columns)
            fds = []
            for _ in range(25):
                lhs = rng.randint(0, universe)
                rhs = rng.randrange(relation.num_columns)
                fds.append(FD(lhs & ~attrset.singleton(rhs), rhs))
            outcomes = context.validate_many(fds)
            assert [v.fd for v in outcomes] == fds  # input order kept
            for fd, outcome in zip(fds, outcomes):
                assert outcome.holds == naive_fd_holds(relation, fd), fd
                assert outcome.holds == context.fd_holds(fd)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_witnesses_actually_violate(self, backend):
        relation = random_relation(3, rows=50, columns=4, card=2)
        context = ExecutionContext(relation, backend=backend)
        fds = [
            FD(lhs & ~attrset.singleton(rhs), rhs)
            for lhs in range(2**4)
            for rhs in range(4)
        ]
        for outcome in context.validate_many(fds, witnesses=True):
            if outcome.holds:
                assert outcome.witness is None
                continue
            row_a, row_b = outcome.witness
            agree = context.data.agree_mask(row_a, row_b)
            assert outcome.fd.lhs & ~agree == 0
            assert not (agree >> outcome.fd.rhs) & 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degenerate_batches(self, backend):
        context = ExecutionContext(
            Relation.from_rows([(1, 2)], ["a", "b"]), backend=backend
        )
        assert context.validate_many([]) == []
        # a single-row relation satisfies everything
        outcomes = context.validate_many([FD.of([0], 1), FD(0, 0)])
        assert all(v.holds for v in outcomes)

    def test_folds_once_per_distinct_lhs(self):
        relation = random_relation(11)

        class CountingBackend(NumpyBackend):
            name = "counting"
            folds = 0

            def group_keys(self, data, lhs):
                CountingBackend.folds += 1
                return super().group_keys(data, lhs)

        context = ExecutionContext(relation, backend=CountingBackend())
        lhs_a, lhs_b = 0b11, 0b101
        context.validate_many(
            [FD(lhs_a, 2), FD(lhs_b, 1), FD(lhs_a, 3), FD(lhs_b, 3), FD(lhs_a, 4)]
        )
        assert CountingBackend.folds == 2


class TestPartitionStore:
    def test_derived_partitions_match_direct_construction(self):
        relation = random_relation(7, rows=60, columns=5)
        data = preprocess(relation)
        store = PartitionStore(data)
        universe = attrset.universe(relation.num_columns)
        masks = [mask for mask in range(1, universe + 1) if attrset.size(mask) <= 3]
        for mask in masks:
            derived = store.get(mask)
            direct = partition_from_labels(
                group_keys(data, mask).tolist(), data.num_rows
            )
            assert derived == direct, bin(mask)
        # every mask is now cached: a second pass is pure hits
        before = store.stats()
        for mask in masks:
            store.get(mask)
        after = store.stats()
        assert after["hits"] - before["hits"] == len(masks)
        assert after["misses"] == before["misses"]

    def test_lru_eviction_then_rederive(self):
        relation = random_relation(9, rows=40, columns=6)
        data = preprocess(relation)
        store = PartitionStore(data, cache_size=2)
        masks = [0b11, 0b110, 0b1100, 0b11000]
        first_pass = [store.get(mask) for mask in masks]
        assert store.evictions > 0
        # the first mask was evicted; rederiving must reproduce it exactly
        evicted = masks[0]
        assert evicted not in store
        misses_before = store.misses
        again = store.get(evicted)
        assert store.misses == misses_before + 1
        assert again == first_pass[0]

    def test_derive_probes_parents_instead_of_scanning_the_cache(self):
        """Each derive looks up its one-smaller parents by key; scanning
        the whole cache on every miss made each miss cost O(cache)."""

        class UnscannableCache(OrderedDict):
            def _scanned(self, *args):
                raise AssertionError("derive scanned the partition cache")

            __iter__ = items = keys = values = _scanned

        data = preprocess(random_relation(5, rows=60, columns=4))
        store = PartitionStore(data)
        store._cache = UnscannableCache()

        def direct(mask):
            return partition_from_labels(group_keys(data, mask).tolist(), data.num_rows)

        # no parent cached: π(1100) is derived first, then × π(0010)
        assert store.get(0b1110) == direct(0b1110)
        assert 0b1100 in store and 0b1110 in store
        # one parent cached (1100): × the pinned singleton π(0001)
        assert store.get(0b1101) == direct(0b1101)
        # two parents cached (1110, 1101): their product
        assert store.get(0b1111) == direct(0b1111)
        assert store.derives == store.misses == 4

    def test_singletons_are_pinned_hits(self):
        data = preprocess(random_relation(1, columns=4))
        store = PartitionStore(data)
        for attribute in range(4):
            assert store.get(attrset.singleton(attribute)) == data.stripped(attribute)
        assert store.misses == 0
        assert store.hits == 4

    def test_rejects_non_positive_cache_size(self):
        with pytest.raises(ValueError, match="cache_size"):
            PartitionStore(preprocess(random_relation(2)), cache_size=0)


class TestContextSharing:
    def test_acquire_returns_matching_active_context(self):
        relation = random_relation(4)
        context = ExecutionContext(relation)
        assert current_context() is None
        with use_context(context):
            assert current_context() is context
            assert acquire_context(relation) is context
            # different NULL semantics -> private context
            assert acquire_context(relation, null_equals_null=False) is not context
            # different relation -> private context
            assert acquire_context(random_relation(5)) is not context
        assert current_context() is None

    def test_use_context_nests(self):
        outer = ExecutionContext(random_relation(4))
        inner = ExecutionContext(random_relation(5))
        with use_context(outer):
            with use_context(inner):
                assert current_context() is inner
            assert current_context() is outer

    def test_shared_context_produces_cache_hits_across_algorithms(self):
        """Acceptance: a bench matrix over one dataset reuses partitions."""
        relation = registry.make("iris", rows=60, seed=1)
        context = ExecutionContext(relation)
        algorithms = default_algorithms()
        runs = [
            run_algorithm(algorithms[name], relation, context=context)
            for name in ("Tane", "EulerFD")
        ]
        assert all(run.ok for run in runs)
        assert all(run.backend == context.backend.name for run in runs)
        # the second algorithm rides on partitions the first one warmed
        assert runs[1].partition_cache["hits"] > 0
        total = context.partitions.stats()
        assert total["hits"] == sum(r.partition_cache["hits"] for r in runs)


class TestBackendEndToEndEquivalence:
    @pytest.mark.parametrize("algorithm", ("Tane", "HyFD", "EulerFD"))
    def test_backends_find_identical_fd_sets(self, algorithm):
        relation = registry.make("echocardiogram", rows=120, seed=2)
        results = {}
        for backend in BACKENDS:
            context = ExecutionContext(relation, backend=backend)
            with use_context(context):
                results[backend] = (
                    default_algorithms()[algorithm]().discover(relation).fds
                )
        assert results["numpy"] == results["python"]
