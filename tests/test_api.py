"""Tests for the top-level package API and result types."""

from __future__ import annotations

import pytest

import repro
from repro import available_algorithms, create, discover_fds
from repro.core.result import DiscoveryResult, Stopwatch, make_result
from repro.fd import FD


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_available_algorithms(self):
        assert set(available_algorithms()) == {
            "eulerfd", "tane", "fdep", "hyfd", "aidfd", "bruteforce"
        }

    def test_create_unknown(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            create("does-not-exist")

    def test_create_returns_fresh_instances(self):
        assert create("eulerfd") is not create("eulerfd")

    def test_discover_fds_default(self, patient_relation):
        result = discover_fds(patient_relation)
        assert result.algorithm == "EulerFD"
        assert len(result) == 9

    def test_discover_fds_named(self, patient_relation):
        result = discover_fds(patient_relation, "tane")
        assert result.algorithm == "Tane"

    def test_every_registered_algorithm_runs(self, patient_relation):
        expected = discover_fds(patient_relation, "bruteforce").fds
        for key in available_algorithms():
            result = discover_fds(patient_relation, key)
            assert result.fds == expected, key


class TestDiscoveryResult:
    def make(self) -> DiscoveryResult:
        watch = Stopwatch()
        return make_result(
            [FD.of([0], 1), FD.of([1], 0)],
            "TestAlgo",
            "rel",
            10,
            2,
            ["x", "y"],
            watch,
            stats={"k": 1},
        )

    def test_container_protocol(self):
        result = self.make()
        assert len(result) == 2
        assert FD.of([0], 1) in result
        assert FD.of([0], 0) not in result
        assert list(result) == sorted(result.fds)

    def test_format_fds_uses_names(self):
        result = self.make()
        assert result.format_fds() == ["[x] -> y", "[y] -> x"]

    def test_format_fds_limit(self):
        assert len(self.make().format_fds(limit=1)) == 1

    def test_summary(self):
        text = self.make().summary()
        assert "TestAlgo" in text
        assert "2 FDs" in text
        assert "10x2" in text

    def test_stats_copied(self):
        stats = {"a": 1}
        result = make_result(
            [], "A", "r", 1, 1, ["c"], Stopwatch(), stats=stats
        )
        stats["a"] = 2
        assert result.stats["a"] == 1

    def test_fds_frozen(self):
        result = self.make()
        with pytest.raises(AttributeError):
            result.fds = frozenset()
