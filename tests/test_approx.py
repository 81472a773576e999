"""Tests for ε-approximate dependency discovery."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BruteForce
from repro.algorithms.approx import ApproxFDs
from repro.fd import FD, attrset
from repro.metrics import violation_profile
from repro.relation import Relation, preprocess


class TestEpsilonZeroIsExact:
    def test_patients(self, patient_relation):
        truth = BruteForce().discover(patient_relation).fds
        assert ApproxFDs(epsilon=0.0).discover(patient_relation).fds == truth

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=18,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, rows):
        relation = Relation.from_rows(rows, ["a", "b", "c"])
        assert (
            ApproxFDs(epsilon=0.0).discover(relation).fds
            == BruteForce().discover(relation).fds
        )


class TestTolerance:
    def noisy_relation(self) -> Relation:
        # c0 determines c1 except for one corrupted row out of 50.
        rows = [(i % 10, (i % 10) * 3) for i in range(49)]
        rows.append((0, 999))
        return Relation.from_rows(rows, ["a", "b"])

    def test_exact_discovery_rejects_noisy_fd(self):
        relation = self.noisy_relation()
        assert FD.of([0], 1) not in BruteForce().discover(relation).fds

    def test_tolerant_discovery_accepts_it(self):
        relation = self.noisy_relation()
        result = ApproxFDs(epsilon=0.05).discover(relation)
        assert FD.of([0], 1) in result.fds

    def test_threshold_is_sharp(self):
        relation = self.noisy_relation()
        data = preprocess(relation)
        error = violation_profile(data, FD.of([0], 1)).g3  # 1/50 = 0.02
        below = ApproxFDs(epsilon=error - 0.001).discover(relation)
        at = ApproxFDs(epsilon=error).discover(relation)
        assert FD.of([0], 1) not in below.fds
        assert FD.of([0], 1) in at.fds

    def test_results_are_minimal(self):
        relation = self.noisy_relation()
        result = ApproxFDs(epsilon=0.05).discover(relation)
        for fd in result.fds:
            for other in result.fds:
                if other != fd and other.rhs == fd.rhs:
                    assert not other.generalizes(fd)

    def test_every_result_meets_the_threshold(self):
        relation = self.noisy_relation()
        data = preprocess(relation)
        epsilon = 0.05
        for fd in ApproxFDs(epsilon=epsilon).discover(relation).fds:
            assert violation_profile(data, fd).g3 <= epsilon

    def test_larger_epsilon_gives_more_general_cover(self):
        relation = self.noisy_relation()
        strict = ApproxFDs(epsilon=0.0).discover(relation).fds
        loose = ApproxFDs(epsilon=0.1).discover(relation).fds
        # Every loose FD is at least as general as some strict FD.
        for strict_fd in strict:
            assert any(
                loose_fd.generalizes(strict_fd) for loose_fd in loose
            )


class TestGuards:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ApproxFDs(epsilon=-0.1)
        with pytest.raises(ValueError):
            ApproxFDs(epsilon=1.0)

    def test_width_guard(self):
        relation = Relation.from_rows([tuple(range(25))])
        with pytest.raises(ValueError, match="max_columns"):
            ApproxFDs().discover(relation)

    def test_stats(self, patient_relation):
        stats = ApproxFDs(epsilon=0.2).discover(patient_relation).stats
        assert stats["epsilon"] == 0.2
        assert stats["validations"] > 0
