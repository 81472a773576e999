"""Tests for incremental FD maintenance under insertions."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import BruteForce, Fdep
from repro.core import IncrementalEulerFD
from repro.core.incremental import partner_pairs
from repro.datasets import patients, registry
from repro.fd import FD, inference
from repro.relation import Relation
from repro.relation.partition import StrippedPartition
from repro.relation.preprocess import preprocess


def rows_of(*rows):
    return [tuple(row) for row in rows]


class TestExhaustiveBaseIsExact:
    def test_append_invalidates_fd(self):
        base = Relation.from_rows(
            rows_of((1, "a"), (2, "b")), ["x", "y"]
        )
        session = IncrementalEulerFD(base, exhaustive_base=True)
        assert FD.of([0], 1) in session.current_result().fds
        result = session.append(rows_of((1, "z")))
        assert FD.of([0], 1) not in result.fds

    def test_matches_scratch_discovery_after_each_append(self):
        rng = random.Random(6)
        all_rows = [
            tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(40)
        ]
        base = Relation.from_rows(all_rows[:10], ["a", "b", "c", "d"])
        session = IncrementalEulerFD(base, exhaustive_base=True)
        cursor = 10
        for batch_size in (1, 5, 12, 12):
            batch = all_rows[cursor : cursor + batch_size]
            cursor += batch_size
            result = session.append(batch)
            scratch = BruteForce().discover(
                Relation.from_rows(all_rows[:cursor], ["a", "b", "c", "d"])
            )
            assert result.fds == scratch.fds, cursor

    def test_patients_appended_row_by_row(self, patient_relation):
        rows = list(patient_relation.iter_rows())
        base = Relation.from_rows(rows[:3], patient_relation.column_names)
        session = IncrementalEulerFD(base, exhaustive_base=True)
        for row in rows[3:]:
            result = session.append([row])
        truth = BruteForce().discover(patient_relation).fds
        assert result.fds == truth

    def test_empty_base(self):
        base = Relation.from_rows([], ["a", "b"])
        session = IncrementalEulerFD(base, exhaustive_base=True)
        result = session.append(rows_of((1, "x"), (2, "x"), (1, "x")))
        scratch = BruteForce().discover(
            Relation.from_rows(rows_of((1, "x"), (2, "x"), (1, "x")), ["a", "b"])
        )
        assert result.fds == scratch.fds

    def test_duplicate_rows_append(self):
        base = Relation.from_rows(rows_of((1, 2)), ["a", "b"])
        session = IncrementalEulerFD(base, exhaustive_base=True)
        result = session.append(rows_of((1, 2), (1, 2)))
        assert result.fds == {FD(0, 0), FD(0, 1)}


class TestApproximateBase:
    def test_safety_invariant(self):
        """True FDs of the grown relation are always implied."""
        rng = random.Random(9)
        all_rows = [
            (rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 2))
            for _ in range(120)
        ]
        base = Relation.from_rows(all_rows[:80], ["a", "b", "c"])
        session = IncrementalEulerFD(base)
        result = session.append(all_rows[80:])
        truth = BruteForce().discover(
            Relation.from_rows(all_rows, ["a", "b", "c"])
        ).fds
        for fd in truth:
            assert inference.implies(result.fds, fd)

    def test_stats_track_appends(self):
        base = Relation.from_rows(rows_of((1, "a"), (2, "b")), ["x", "y"])
        session = IncrementalEulerFD(base)
        session.append(rows_of((3, "c")))
        result = session.append(rows_of((4, "d")))
        assert result.stats["appends"] == 2
        assert result.num_rows == 4
        assert result.stats["pairs_compared"] >= 0


class TestValidation:
    def test_arity_mismatch_rejected(self):
        session = IncrementalEulerFD(
            Relation.from_rows(rows_of((1, 2)), ["a", "b"]),
            exhaustive_base=True,
        )
        with pytest.raises(ValueError, match="arity"):
            session.append([(1, 2, 3)])

    def test_append_empty_batch_is_noop(self):
        session = IncrementalEulerFD(
            Relation.from_rows(rows_of((1, 2), (2, 2)), ["a", "b"]),
            exhaustive_base=True,
        )
        before = session.current_result().fds
        after = session.append([]).fds
        assert before == after


class TestDeltaEquivalenceAcrossBackends:
    """K appended batches == from-scratch discovery, on every engine.

    The delta path (in-place matrix growth, partitions built on first
    read, touched-cluster pair enumeration) must be invisible in the output:
    identical FD sets to a cold run over the concatenated relation, for
    every backend and for serial and process-parallel pools alike.
    """

    BACKENDS = ["numpy", "python"]
    JOBS = [None, "process:2"]

    @pytest.mark.parametrize("jobs", JOBS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batches_equal_scratch(self, backend, jobs):
        rng = random.Random(77)
        all_rows = [
            tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(60)
        ]
        base = Relation.from_rows(all_rows[:20], ["a", "b", "c", "d"])
        session = IncrementalEulerFD(
            base, exhaustive_base=True, jobs=jobs, backend=backend
        )
        cursor = 20
        for batch_size in (7, 1, 18, 14):
            batch = all_rows[cursor : cursor + batch_size]
            cursor += batch_size
            result = session.append(batch)
            scratch = BruteForce().discover(
                Relation.from_rows(all_rows[:cursor], ["a", "b", "c", "d"])
            )
            assert result.fds == scratch.fds, (backend, jobs, cursor)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dtype_promotion_batch(self, backend):
        """A batch pushing a column across the u8/u16 ladder stays exact."""
        rng = random.Random(5)
        base_rows = [
            (value, value % 7, rng.randint(0, 2)) for value in range(250)
        ]
        batch = [
            (value, value % 7, rng.randint(0, 2))
            for value in range(250, 300)
        ]
        session = IncrementalEulerFD(
            Relation.from_rows(base_rows, ["a", "b", "c"]),
            exhaustive_base=True,
            backend=backend,
        )
        result = session.append(batch)
        assert session.context.data.matrix.dtype.itemsize >= 2
        scratch = BruteForce().discover(
            Relation.from_rows(base_rows + batch, ["a", "b", "c"])
        )
        assert result.fds == scratch.fds

    def test_result_diff_reports_retractions(self):
        base = Relation.from_rows(rows_of((1, "a"), (2, "b")), ["x", "y"])
        session = IncrementalEulerFD(base, exhaustive_base=True)
        before = session.current_result()
        after = session.append(rows_of((1, "z")))
        diff = after.diff(before)
        assert FD.of([0], 1) in diff.retracted
        assert after.stats["fds_retracted"] >= 1
        assert all(fd in after.fds for fd in diff.added)


class TestIngestStream:
    """A 352-row base of fd-reduced-30[400] at seed 5, then three 16-row
    batches: a 30-column stream, wider and longer than the ones above."""

    BASE = 352
    BATCH = 16

    @pytest.fixture(scope="class")
    def stream(self):
        relation = registry.make("fd-reduced-30", rows=400, seed=5)
        return relation.column_names, list(relation.iter_rows())

    @pytest.fixture(scope="class")
    def replays(self, stream):
        """Per base: the session after the stream, per batch the rows so
        far, the result and the inverter's cover at that point, and the
        partitions built during the appends."""
        names, rows = stream
        replays = {}
        for exhaustive_base in (True, False):
            session = IncrementalEulerFD(
                Relation.from_rows(rows[: self.BASE], names),
                exhaustive_base=exhaustive_base,
            )
            results = []
            with pytest.MonkeyPatch.context() as patch:
                builds = count_partition_builds(patch)
                for cursor in range(self.BASE, len(rows), self.BATCH):
                    batch = rows[cursor : cursor + self.BATCH]
                    result = session.append(batch)
                    cover = frozenset(session.inverter.pcover)
                    results.append((cursor + len(batch), result, cover))
            replays[exhaustive_base] = session, results, builds
        return replays

    def test_exhaustive_base_matches_fdep_after_each_batch(self, stream, replays):
        names, rows = stream
        _, results, _ = replays[True]
        assert len(results) == 3
        for cursor, result, _ in results:
            scratch = Fdep().discover(Relation.from_rows(rows[:cursor], names))
            assert result.fds == scratch.fds, cursor

    @pytest.mark.parametrize("exhaustive_base", [True, False])
    def test_appends_derive_no_partition(self, replays, exhaustive_base):
        """Appends read no partition: they construct none, the store
        builds no pin and derives nothing, so dropping its entries on
        append costs nothing."""
        session, _, builds = replays[exhaustive_base]
        assert builds == []
        assert session.context.partitions.resident_bytes == 0
        assert session.context.partitions.stats()["derives"] == 0

    @pytest.mark.parametrize("exhaustive_base", [True, False])
    def test_counts_are_exact(self, replays, exhaustive_base):
        """Every result is the inverter's cover, and its counts are the
        set differences from the previous result; the first result has
        no previous one, so it carries no counts."""
        _, results, _ = replays[exhaustive_base]
        previous = None
        for _, result, cover in results:
            assert result.fds == cover
            if previous is None:
                assert "fds_added" not in result.stats
            else:
                assert_counts_match_diff(previous, result)
            previous = result

    def test_counts_around_current_result(self, stream):
        """A snapshot between appends reports 0/0, and the next append
        counts against it."""
        names, rows = stream
        session = IncrementalEulerFD(
            Relation.from_rows(rows[:16], names), exhaustive_base=True
        )
        before = session.current_result()
        assert "fds_added" not in before.stats
        first = session.append(rows[16:32])
        assert_counts_match_diff(before, first)
        between = session.current_result()
        assert between.fds == first.fds
        assert (between.stats["fds_added"], between.stats["fds_retracted"]) == (0, 0)
        second = session.append(rows[32:48])
        assert_counts_match_diff(between, second)
        assert second.stats["fds_added"] > 0 and second.stats["fds_retracted"] > 0
        assert second.fds == frozenset(session.inverter.pcover)


def count_partition_builds(patch):
    """Record every ``StrippedPartition`` constructed while ``patch`` holds."""
    builds = []
    init = StrippedPartition.__init__
    from_tuples = StrippedPartition.from_tuples.__func__

    def counted_init(self, *args, **kwargs):
        builds.append("init")
        init(self, *args, **kwargs)

    def counted_from_tuples(cls, *args, **kwargs):
        builds.append("from_tuples")
        return from_tuples(cls, *args, **kwargs)

    patch.setattr(StrippedPartition, "__init__", counted_init)
    patch.setattr(StrippedPartition, "from_tuples", classmethod(counted_from_tuples))
    return builds


def assert_counts_match_diff(previous, result):
    assert result.stats["fds_added"] == len(result.fds - previous.fds)
    assert result.stats["fds_retracted"] == len(previous.fds - result.fds)


class TestPropertyExactMaintenance:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=24,
        ),
        st.integers(min_value=0, max_value=23),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_point_never_matters(self, rows, cut):
        cut = min(cut, len(rows))
        base = Relation.from_rows(rows[:cut], ["a", "b", "c"])
        session = IncrementalEulerFD(base, exhaustive_base=True)
        result = session.append(rows[cut:])
        scratch = BruteForce().discover(
            Relation.from_rows(rows, ["a", "b", "c"])
        )
        assert result.fds == scratch.fds


def loop_partner_pairs(delta):
    """The per-cluster loop :func:`partner_pairs` replaced: the reference."""
    first_new = delta.first_new
    num_rows = delta.num_rows
    pair_keys = []
    for column_clusters in delta.touched:
        for cluster in column_clusters:
            members = np.asarray(cluster, dtype=np.int64)
            split = int(np.searchsorted(members, first_new))
            for position in range(split, members.size):
                # all earlier cluster-mates of one new row
                pair_keys.append(members[:position] * num_rows + members[position])
    if pair_keys:
        keys = np.unique(np.concatenate(pair_keys))
        rows_a = (keys // num_rows).astype(np.intp)
        rows_b = (keys % num_rows).astype(np.intp)
    else:
        rows_a = rows_b = np.empty(0, dtype=np.intp)
    return rows_a, rows_b


ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([0, 1, None]),
    ),
    max_size=12,
)


class TestPartnerPairs:
    @given(ROWS, ROWS, st.booleans())
    @example([(0, 0, 0), (1, 1, 1)], [(0, 2, 2), (0, 3, 2), (0, 2, 2)], True)
    @example([(0, 0, 0), (1, 1, 1)], [(0, 0, 0), (1, 1, 1)], True)
    @example([(0, 0, 0), (1, 1, 1)], [(2, 2, None), (3, 3, None)], False)
    @example([(0, 0, 0), (1, 1, 1), (0, 1, 1)], [(0, 1, 1)], True)
    @settings(max_examples=80, deadline=None)
    def test_vectorized_step_matches_the_loop(self, base, batch, null_equals_null):
        """Equal ``(rows_a, rows_b)`` arrays, in the same order, on real
        deltas.  The examples: several new rows in one cluster, one pair
        reached through several attributes, a batch touching no cluster
        (distinct NULLs stay apart), and a one-row batch."""
        data = preprocess(
            Relation.from_rows(base, ["a", "b", "c"]), null_equals_null, delta=True
        )
        delta = data.append_rows(batch).append_delta
        rows_a, rows_b = partner_pairs(delta)
        expected_a, expected_b = loop_partner_pairs(delta)
        assert rows_a.dtype == rows_b.dtype == np.intp
        assert np.array_equal(rows_a, expected_a)
        assert np.array_equal(rows_b, expected_b)
