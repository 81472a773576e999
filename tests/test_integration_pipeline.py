"""End-to-end integration flows across subsystem boundaries."""

from __future__ import annotations

import json

from repro import EulerFD, discover_fds, profile_relation
from repro.algorithms import BruteForce, Fdep
from repro.cli import main
from repro.core.result import DiscoveryResult
from repro.datasets import make, patients
from repro.fd import inference
from repro.metrics import f1_score
from repro.relation import read_csv, write_csv


class TestCsvRoundtripDiscovery:
    def test_generated_csv_rediscovers_same_fds(self, tmp_path):
        relation = make("bridges", rows=108)
        path = tmp_path / "bridges.csv"
        write_csv(relation, path)
        loaded = read_csv(path)
        # Values come back as strings; label-based discovery must agree.
        original = Fdep().discover(relation).fds
        reloaded = Fdep().discover(loaded).fds
        assert original == reloaded

    def test_cli_discovery_matches_api(self, tmp_path, capsys):
        path = tmp_path / "patients.csv"
        write_csv(patients(), path)
        assert main(["discover", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        loaded = read_csv(path)
        via_cli = DiscoveryResult.fds_from_dict(payload, loaded.column_names)
        via_api = discover_fds(loaded).fds
        assert via_cli == via_api


class TestCoverPostprocessing:
    def test_profile_fds_feed_key_computation(self, patient_relation):
        profile = profile_relation(patient_relation)
        keys = inference.candidate_keys(
            patient_relation.num_columns, list(profile.fds.fds)
        )
        # The FD-derived keys must agree with the UCC discovery.
        assert set(keys) == set(profile.uccs.uccs)


class TestApproximateVsExactPipeline:
    def test_eulerfd_approximation_quality_on_every_algorithm_pair(self):
        relation = make("abalone", rows=800)
        truth = Fdep().discover(relation).fds
        approx = EulerFD().discover(relation).fds
        assert f1_score(approx, truth) >= 0.95
        # Implication safety: the approximate cover implies the truth.
        for fd in truth:
            assert inference.implies(approx, fd)

    def test_obfuscation_closure_consistency(self, patient_relation):
        """Determinants computed from approximate and exact covers agree
        when the covers agree."""
        exact = BruteForce().discover(patient_relation).fds
        approx = EulerFD().discover(patient_relation).fds
        assert exact == approx
        age = patient_relation.column_index("Age")
        exact_det = inference.determinants_of(age, exact, 5)
        approx_det = inference.determinants_of(age, approx, 5)
        assert exact_det == approx_det


class TestResultSerialization:
    def test_json_roundtrip_preserves_fds(self, patient_relation):
        result = EulerFD().discover(patient_relation)
        payload = json.loads(result.to_json())
        rebuilt = DiscoveryResult.fds_from_dict(
            payload, patient_relation.column_names
        )
        assert rebuilt == result.fds

    def test_json_contains_stats(self, patient_relation):
        result = EulerFD().discover(patient_relation)
        payload = json.loads(result.to_json())
        assert payload["stats"]["cycles"] >= 1
        assert payload["num_columns"] == 5
