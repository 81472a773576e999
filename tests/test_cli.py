"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.datasets import patients
from repro.relation import write_csv


@pytest.fixture()
def patients_csv(tmp_path):
    path = tmp_path / "patients.csv"
    write_csv(patients(), path)
    return str(path)


class TestDiscover:
    def test_discover_default_algorithm(self, patients_csv, capsys):
        assert main(["discover", patients_csv]) == 0
        out = capsys.readouterr().out
        assert "EulerFD" in out
        assert "9 FDs" in out
        assert "-> " in out

    def test_discover_tane(self, patients_csv, capsys):
        assert main(["discover", patients_csv, "--algorithm", "tane"]) == 0
        assert "Tane" in capsys.readouterr().out

    def test_discover_limit(self, patients_csv, capsys):
        assert main(["discover", patients_csv, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "and 7 more" in out

    def test_discover_max_rows(self, patients_csv, capsys):
        assert main(["discover", patients_csv, "--max-rows", "3"]) == 0
        assert "(3x5)" in capsys.readouterr().out

    def test_unknown_algorithm_rejected(self, patients_csv):
        with pytest.raises(SystemExit):
            main(["discover", patients_csv, "--algorithm", "nope"])

    def test_bad_jobs_flag_is_a_usage_error_before_reading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exit_info:
            main(["discover", missing, "--jobs", "thread:2"])
        assert exit_info.value.code == 2
        assert "process:N" in capsys.readouterr().err

    def test_bad_jobs_env_is_a_usage_error_before_reading(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", "thread:2")
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exit_info:
            main(["discover", missing])
        assert exit_info.value.code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err


class TestDiscoverJson:
    def test_json_output_roundtrips(self, patients_csv, capsys):
        import json

        from repro.core.result import DiscoveryResult
        from repro.datasets import patients
        from repro.relation import preprocess
        from repro.algorithms import BruteForce

        assert main(["discover", patients_csv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "EulerFD"
        assert payload["num_rows"] == 9
        relation = patients()
        rebuilt = DiscoveryResult.fds_from_dict(payload, relation.column_names)
        assert rebuilt == BruteForce().discover(relation).fds


class TestProfile:
    def test_profile_command(self, patients_csv, capsys):
        assert main(["profile", patients_csv]) == 0
        out = capsys.readouterr().out
        assert "Candidate keys" in out
        assert "Functional dependencies" in out


class TestCompare:
    def test_compare(self, patients_csv, capsys):
        assert main(
            ["compare", patients_csv, "--algorithms", "fdep", "eulerfd"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fdep" in out
        assert "EulerFD" in out
        assert "F1" in out


class TestGenerate:
    def test_generate_csv(self, tmp_path, capsys):
        target = tmp_path / "iris.csv"
        assert main(
            ["generate", "iris", str(target), "--rows", "25"]
        ) == 0
        assert target.exists()
        assert "25x5" in capsys.readouterr().out

    def test_generate_with_columns(self, tmp_path):
        target = tmp_path / "plista.csv"
        assert main(
            [
                "generate", "plista", str(target),
                "--rows", "10", "--columns", "6",
            ]
        ) == 0
        header = target.read_text().splitlines()[0]
        assert len(header.split(",")) == 6


class TestListings:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "iris" in out
        assert "uniprot" in out

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "eulerfd" in out
        assert "tane" in out

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
