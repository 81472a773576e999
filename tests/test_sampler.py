"""Tests for the sampling module: sliding windows, capa, MLFQ rounds."""

from __future__ import annotations

from collections import Counter, deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import EulerFDConfig, MlfqPolicy, SamplingModule
import repro.core.sampler as sampler_module
from repro.core.sampler import SMALL_CLUSTER_ROWS
from repro.datasets import patients
from repro.engine import ExecutionContext
from repro.fd import attrset
from repro.obs import collecting_metrics
from repro.relation import Relation


def sampler_for(relation: Relation, **config_kwargs) -> SamplingModule:
    context = ExecutionContext(relation)
    return SamplingModule(
        context.data, EulerFDConfig(**config_kwargs), context.sampling_clusters()
    )


def mixed_cluster_relation() -> Relation:
    """70 attributes whose clusters fall on both sides of the table limit."""
    rng = np.random.default_rng(7)
    sizes = [2, 3, 5, 8, 13, 21, 31, 32, 33, 40]
    group = [g for g, size in enumerate(sizes) for _ in range(size)]
    columns = [group] + [
        rng.integers(0, 6 if j % 10 == 0 else 80, size=len(group)).tolist()
        for j in range(1, 70)
    ]
    return Relation.from_rows(list(zip(*columns)))


class ReferenceDrain:
    """Algorithm 1 written out plainly, as the sampler's reference.

    Each cluster keeps its last ``retire_history`` capas in a deque, the
    MLFQ is one deque per queue served one cluster at a time, a queue is
    picked with a loop over its bounds, and every window position is one
    ``data.agree_mask`` call: no kernel, window table, dedup or rounds.
    Counters are tallied per event under the sampler's names;
    ``drain_promotions`` also counts the promotions made while draining,
    the places where the sampler must cut a round short.
    """

    def __init__(self, data, config, clusters):
        self.data = data
        self.policy = config.mlfq
        self.clusters = [
            SimpleNamespace(
                rows=rows,
                window=config.initial_window,
                history=deque(maxlen=config.retire_history),
                samples=0,
                last_capa=0.0,
                queue_level=None,
            )
            for rows in clusters
        ]
        self.queues = [deque() for _ in self.policy.lower_bounds]
        self.seen: dict[int, int] = {}
        self.counters: Counter[str] = Counter()
        self.drain_promotions = 0

    @staticmethod
    def retired(cluster) -> bool:
        history = cluster.history
        return len(history) == history.maxlen and not any(history)

    def active(self, cluster) -> bool:
        return cluster.window <= len(cluster.rows) and not self.retired(cluster)

    def push(self, cluster, capa: float) -> None:
        bounds = self.policy.lower_bounds
        level = next(i for i, bound in enumerate(bounds) if capa >= bound)
        self.queues[level].append(cluster)
        if cluster.queue_level is not None and level != cluster.queue_level:
            up = level < cluster.queue_level
            self.counters["mlfq.promotions" if up else "mlfq.demotions"] += 1
        cluster.queue_level = level

    def adapted_policy(self) -> MlfqPolicy:
        """Section VI's re-division: the new bounds are the positive last
        capas found 1/q, 2/q, ... of the way down their descending order,
        each halved below its predecessor when not strictly lower; with
        fewer such capas than queues, or a bound that is not positive,
        the policy stays."""
        observed = sorted(
            (c.last_capa for c in self.clusters if c.samples and c.last_capa > 0),
            reverse=True,
        )
        queues = self.policy.num_queues
        if queues == 1 or len(observed) < queues:
            return self.policy
        bounds: list[float] = []
        for k in range(1, queues):
            bound = observed[min(len(observed) * k // queues, len(observed) - 1)]
            if bounds and bound >= bounds[-1]:
                bound = bounds[-1] / 2
            bounds.append(bound)
        if min(bounds) <= 0:
            return self.policy
        return MlfqPolicy((*bounds, 0.0), adaptive=True)

    def sample(self, cluster, out: list, stats) -> float:
        rows, window = cluster.rows, cluster.window
        positions = len(rows) - window + 1
        universe = attrset.universe(self.data.num_columns)
        found = 0
        for i in range(positions):
            agree = self.data.agree_mask(rows[i], rows[i + window - 1])
            prior = self.seen.get(agree, 0)
            novel = universe & ~agree & ~prior
            if novel:
                self.seen[agree] = prior | novel
                found += novel.bit_count()
                out.append((agree, novel))
        stats.pairs_compared += positions
        stats.new_non_fds += found
        self.counters["sampler.window_hits"] += found > 0
        capa = found / positions
        cluster.history.append(capa)
        cluster.last_capa = capa
        cluster.samples += 1
        cluster.window += 1
        return capa

    def run_pass(self, max_samples=None):
        out: list = []
        stats = sampler_module.RoundStats()
        if not any(self.queues):
            if self.policy.adaptive:
                self.policy = self.adapted_policy()
                self.queues = [deque() for _ in self.policy.lower_bounds]
            for cluster in self.clusters:
                if self.active(cluster):
                    capa = cluster.last_capa if cluster.samples else float("inf")
                    self.push(cluster, capa)
        while any(self.queues) and (
            max_samples is None or stats.cluster_samples < max_samples
        ):
            cluster = next(queue for queue in self.queues if queue).popleft()
            capa = self.sample(cluster, out, stats)
            stats.cluster_samples += 1
            if self.active(cluster):
                level = cluster.queue_level
                self.push(cluster, capa)
                self.drain_promotions += cluster.queue_level < level
        stats.queue_occupancy = tuple(len(queue) for queue in self.queues)
        self.counters["sampler.passes"] += 1
        self.counters["sampler.cluster_visits"] += stats.cluster_samples
        self.counters["sampler.pairs_compared"] += stats.pairs_compared
        self.counters["sampler.new_non_fds"] += stats.new_non_fds
        return out, stats

    def revive(self) -> int:
        revived = [
            cluster
            for cluster in self.clusters
            if self.retired(cluster) and cluster.window <= len(cluster.rows)
        ]
        for cluster in revived:
            cluster.history.clear()
        self.counters["sampler.revived_clusters"] += len(revived)
        return len(revived)


def generated_relation(seed: int) -> Relation:
    """60 rows of seven skewed low-cardinality columns."""
    rng = np.random.default_rng(seed)
    columns = [
        (rng.integers(0, card, size=60) ** 2 % card).tolist()
        for card in rng.integers(2, 12, size=7)
    ]
    return Relation.from_rows(list(zip(*columns)))


class TestReferenceDrain:
    @pytest.mark.parametrize("seed", [None, 3, 8])
    @pytest.mark.parametrize("queues", [1, 4, 6])
    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("retire_history", [1, 3])
    @pytest.mark.parametrize("initial_window", [2, 3])
    def test_drain_matches_algorithm_1(
        self, seed, queues, adaptive, retire_history, initial_window
    ):
        """Pass by pass, with revives between passes and one bounded
        pass, the sampler draws what the reference draws: the same
        violations in the same order, the same round statistics, the same
        per-cluster state and the same counter totals.  ``seed`` None is
        the 70-attribute relation whose clusters straddle the window-table
        limit.  With 4 and 6 queues the reference promotes clusters while
        draining, so the sampler's rounds are cut."""
        if seed is None:
            context = ExecutionContext(mixed_cluster_relation())
        else:
            context = ExecutionContext(generated_relation(seed))
        config = EulerFDConfig(
            mlfq=MlfqPolicy.with_queues(queues, adaptive),
            retire_history=retire_history,
            initial_window=initial_window,
        )
        clusters = context.sampling_clusters()
        sampler = SamplingModule(context.data, config, clusters)
        reference = ReferenceDrain(context.data, config, clusters)
        with collecting_metrics() as registry:
            for step in range(6):
                bound = 5 if step == 0 else None
                assert sampler.run_pass(bound) == reference.run_pass(bound)
                state = zip(
                    sampler.window.tolist(),
                    sampler.samples.tolist(),
                    sampler.last_capa.tolist(),
                    sampler.queue_level.tolist(),
                    sampler.retired().tolist(),
                    sampler.exhausted().tolist(),
                )
                assert list(state) == [
                    (
                        expected.window,
                        expected.samples,
                        expected.last_capa,
                        -1 if expected.queue_level is None else expected.queue_level,
                        reference.retired(expected),
                        expected.window > len(expected.rows),
                    )
                    for expected in reference.clusters
                ]
                if step:
                    assert sampler.revive() == reference.revive()
        totals = {
            name: value
            for name, value in registry.counters.items()
            if name.startswith(("sampler.", "mlfq.")) and value
        }
        assert totals == {name: n for name, n in reference.counters.items() if n}
        assert reference.counters["sampler.revived_clusters"] > 0
        assert (reference.drain_promotions > 0) == (queues > 1)


class TestClusterState:
    """The per-cluster state arrays, on relations whose only clusters are
    the groups of their ``g`` column."""

    def make(self, sizes=(6,), window=2, history=3) -> SamplingModule:
        groups = [g for g, size in enumerate(sizes) for _ in range(size)]
        sampler = sampler_for(
            Relation.from_rows(list(zip(groups, range(len(groups)))), ["g", "id"]),
            initial_window=window,
            retire_history=history,
        )
        assert sampler.size.tolist() == list(sizes)
        return sampler

    @staticmethod
    def record(sampler: SamplingModule, *capas: float) -> None:
        clusters = np.arange(sampler.num_clusters)
        for capa in capas:
            sampler.record(clusters, np.full(len(clusters), capa))

    def test_initial_state(self):
        sampler = self.make()
        assert sampler.active().tolist() == [True]
        assert not sampler.exhausted()[0]
        assert not sampler.retired()[0]
        assert sampler.queue_level.tolist() == [-1]

    def test_exhaustion(self):
        sampler = self.make(sizes=(3,), window=4)
        assert sampler.exhausted()[0]
        assert not sampler.active()[0]

    def test_window_equal_to_size_not_exhausted(self):
        # window == size still yields exactly one pair (ends of cluster);
        # only the window past it exhausts the cluster.
        sampler = self.make(sizes=(3,), window=3)
        assert not sampler.exhausted()[0]
        self.record(sampler, 0.5)
        assert sampler.window.tolist() == [4]
        assert sampler.exhausted()[0]

    def test_retirement_after_zero_streak(self):
        sampler = self.make(history=3)
        self.record(sampler, 0.0, 0.0)
        assert not sampler.retired()[0]
        self.record(sampler, 0.0)
        assert sampler.retired()[0]
        assert (sampler.zeros[0], sampler.samples[0]) == (3, 3)

    def test_recent_nonzero_prevents_retirement(self):
        sampler = self.make(history=3)
        self.record(sampler, 0.0, 0.5, 0.0)
        assert not sampler.retired()[0]
        assert (sampler.zeros[0], sampler.last_capa[0]) == (1, 0.0)

    def test_old_capa_falls_out_of_history(self):
        sampler = self.make(history=2)
        self.record(sampler, 5.0, 0.0, 0.0)
        assert sampler.retired()[0]  # the 5.0 fell out of the window

    def test_revive_clears_streak(self):
        """``revive`` clears the streak of a retired cluster but skips one
        that is also exhausted."""
        sampler = self.make(sizes=(6, 2), history=1)
        self.record(sampler, 0.0)
        assert sampler.retired().tolist() == [True, True]
        assert sampler.exhausted().tolist() == [False, True]
        assert sampler.revive() == 1
        assert sampler.active().tolist() == [True, False]
        assert sampler.zeros.tolist() == [0, 1]


class TestClusterCollection:
    def test_patient_clusters(self, patient_relation):
        sampler = sampler_for(patient_relation)
        # Age 2, Blood 2, Gender 2, Medicine 3 clusters; Name none.
        assert sampler.num_clusters == 9

    def test_dedupe_drops_identical_clusters(self):
        # Two columns with identical grouping produce identical clusters.
        relation = Relation.from_rows(
            [(1, "a"), (1, "a"), (2, "b"), (2, "b")], ["x", "y"]
        )
        # Each column has 2 clusters; the twins of the second are dropped.
        assert sampler_for(relation).num_clusters == 2


class TestRounds:
    def test_first_pass_samples_every_cluster(self, patient_relation):
        sampler = sampler_for(patient_relation)
        violations, stats = sampler.run_pass()
        # A full drain samples every cluster at least once and keeps
        # productive clusters going.
        assert stats.cluster_samples >= sampler.num_clusters
        assert stats.pairs_compared > 0
        assert violations  # the patient data has plenty of non-FDs

    def test_violations_have_novel_rhs_only(self, patient_relation):
        sampler = sampler_for(patient_relation)
        seen: set[tuple[int, int]] = set()
        for _ in range(20):
            violations, stats = sampler.run_pass()
            if stats.pairs_compared == 0:
                break
            for agree, novel in violations:
                for rhs in range(5):
                    if (novel >> rhs) & 1:
                        assert (agree, rhs) not in seen
                        seen.add((agree, rhs))

    def test_agree_mask_contains_cluster_attribute(self, patient_relation):
        """Sampling within a cluster guarantees at least one agreement."""
        sampler = sampler_for(patient_relation)
        violations, _ = sampler.run_pass()
        for agree, _ in violations:
            assert agree != 0

    def test_sampler_eventually_dries_up(self, patient_relation):
        sampler = sampler_for(patient_relation)
        for _ in range(100):
            _, stats = sampler.run_pass()
            if stats.pairs_compared == 0:
                break
        else:
            pytest.fail("sampler never dried up")
        assert not sampler.has_more()

    def test_exhaustive_sampling_covers_all_intra_cluster_pairs(self):
        """With retirement effectively disabled, every pair that agrees on
        some attribute is eventually compared (coverage, Section IV-C), and
        the sampled violations are exactly the brute-force ones.  Cluster
        sizes run from 2 to 40 rows, across the window-table limit, over
        70 attributes (two agree words)."""
        context = ExecutionContext(mixed_cluster_relation())
        data = context.data
        clusters = context.sampling_clusters()
        assert {len(rows) <= SMALL_CLUSTER_ROWS for rows in clusters} == {True, False}
        sampler = SamplingModule(data, EulerFDConfig(retire_history=50), clusters)
        total = 0
        sampled: set[tuple[int, int]] = set()
        while sampler.has_more():
            violations, stats = sampler.run_pass()
            if stats.pairs_compared == 0:
                break
            total += stats.pairs_compared
            for agree, novel in violations:
                sampled.update((agree, rhs) for rhs in attrset.to_indices(novel))
        expected = 0
        brute: set[tuple[int, int]] = set()
        registered = set()
        columns = range(data.num_columns)
        for rows in (rows for j in columns for rows in data.stripped(j).clusters):
            if rows in registered:
                continue
            registered.add(rows)
            for window in range(2, len(rows) + 1):
                for i in range(len(rows) - window + 1):
                    expected += 1
                    agree = data.agree_mask(rows[i], rows[i + window - 1])
                    brute.update(
                        (agree, rhs)
                        for rhs in range(70)
                        if not attrset.contains(agree, rhs)
                    )
        assert total == expected
        assert sampled == brute

    def test_window_table_replays_per_sample_gathers(self, monkeypatch):
        """Samples read off the window table equal gathering each sample's
        pairs: the same violations in the same order, pass by pass."""

        def passes():
            context = ExecutionContext(mixed_cluster_relation())
            sampler = SamplingModule(
                context.data, EulerFDConfig(), context.sampling_clusters()
            )
            trace = []
            while sampler.has_more():
                violations, stats = sampler.run_pass()
                trace.append(
                    (violations, stats.pairs_compared, stats.cluster_samples)
                )
                if stats.pairs_compared == 0:
                    break
                sampler.revive()
            return trace

        tabled = passes()
        monkeypatch.setattr(sampler_module, "SMALL_CLUSTER_ROWS", 0)
        assert passes() == tabled

    def test_grown_cluster_samples_its_grown_rows(self):
        """After ``extend_clusters`` a small cluster's next sample compares
        the grown rows, not the rest of its pre-append window table."""
        old = [(0, 0, i) for i in range(6)]  # pairs agree on {g, x}
        context = ExecutionContext(
            Relation.from_rows(old, ["g", "x", "z"]), delta=True
        )
        sampler = SamplingModule(
            context.data, EulerFDConfig(), context.sampling_clusters()
        )
        _, stats = sampler.run_pass(max_samples=1)  # window 2, from the table
        assert stats.pairs_compared == 5
        delta = context.append_rows([(0, 1, 6), (0, 2, 7)])  # agree on {g}
        sampler.extend_clusters(delta, context.data)
        violations, stats = sampler.run_pass(max_samples=1)  # window 3
        rows = list(range(8))
        masks = [context.data.agree_mask(a, b) for a, b in zip(rows, rows[2:])]
        assert masks == [0b011] * 4 + [0b001] * 2
        assert stats.pairs_compared == 6
        assert violations == [(0b001, 0b110)]

    def test_total_counters_accumulate(self, patient_relation):
        sampler = sampler_for(patient_relation)
        sampler.run_pass()
        sampler.run_pass()
        assert sampler.rounds_run == 2
        assert sampler.total_pairs > 0


class TestRevive:
    def test_revive_reactivates_retired_clusters(self, patient_relation):
        sampler = sampler_for(patient_relation, retire_history=1)
        while sampler.has_more():
            _, stats = sampler.run_pass()
            if stats.pairs_compared == 0:
                break
        revived = sampler.revive()
        assert revived > 0
        assert sampler.has_more()
        assert sampler.revivals == 1

    def test_revive_skips_exhausted_clusters(self):
        relation = Relation.from_rows([(1,), (1,)], ["a"])  # one pair total
        sampler = sampler_for(relation)
        while sampler.has_more():
            _, stats = sampler.run_pass()
            if stats.pairs_compared == 0:
                break
        assert sampler.revive() == 0


class TestPairCap:
    def test_uncapped_first_sample_compares_all_window_positions(self):
        rows = [(0, i) for i in range(10)]  # a single 10-row cluster
        relation = Relation.from_rows(rows, ["group", "id"])
        sampler = sampler_for(relation)
        _, stats = sampler.run_pass(max_samples=1)
        assert stats.pairs_compared == 9  # window 2: positions 0..8

    def test_max_samples_bounds_a_pass(self, patient_relation):
        sampler = sampler_for(patient_relation)
        _, stats = sampler.run_pass(max_samples=3)
        assert stats.cluster_samples == 3


class TestAdaptivePolicy:
    def test_adaptive_config_still_discovers(self, patient_relation):
        from repro.core import EulerFD, MlfqPolicy
        from repro.core.config import EulerFDConfig

        config = EulerFDConfig(mlfq=MlfqPolicy(adaptive=True))
        result = EulerFD(config).discover(patient_relation)
        baseline = EulerFD().discover(patient_relation)
        assert result.fds == baseline.fds
