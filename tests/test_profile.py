"""Tests for the one-call relation profiler."""

from __future__ import annotations

from repro import profile_relation
from repro.algorithms import Fdep
from repro.relation import Relation


class TestColumnProfiles:
    def test_patient_columns(self, patient_relation):
        profile = profile_relation(patient_relation)
        by_name = {column.name: column for column in profile.columns}
        assert by_name["Name"].is_unique
        assert by_name["Name"].cardinality == 9
        assert not by_name["Gender"].is_unique
        assert by_name["Gender"].cardinality == 3

    def test_constant_and_null_detection(self):
        relation = Relation.from_rows(
            [(1, "c", None), (2, "c", "x")], ["id", "const", "sparse"]
        )
        profile = profile_relation(relation)
        by_name = {column.name: column for column in profile.columns}
        assert by_name["const"].is_constant
        assert not by_name["id"].is_constant
        assert by_name["sparse"].null_count == 1

    def test_empty_relation_has_no_constant_columns(self):
        profile = profile_relation(Relation.from_rows([], ["a"]))
        assert not profile.columns[0].is_constant


class TestDiscoverySelection:
    def test_small_relation_profiled_exactly(self, patient_relation):
        profile = profile_relation(patient_relation)
        assert profile.exact
        assert profile.fds.algorithm == "Fdep"
        assert len(profile.fds) == 9

    def test_large_relation_uses_eulerfd(self, patient_relation):
        profile = profile_relation(patient_relation, exact_below_cells=10)
        assert not profile.exact
        assert profile.fds.algorithm == "EulerFD"

    def test_eulerfd_path_keeps_null_semantics(self):
        relation = Relation.from_rows(
            [(None, 1, "x"), (None, 2, "x"), (3, 2, "y")], ["a", "b", "c"]
        )
        profile = profile_relation(
            relation, exact_below_cells=0, null_equals_null=False
        )
        assert not profile.exact
        assert profile.fds.fds == Fdep(False).discover(relation).fds

    def test_uccs_included(self, patient_relation):
        profile = profile_relation(patient_relation)
        assert len(profile.uccs) == 3


class TestRendering:
    def test_render_contains_sections(self, patient_relation):
        text = profile_relation(patient_relation).render()
        assert "Profile of patients" in text
        assert "Candidate keys" in text
        assert "Functional dependencies" in text
        assert "[Name] -> Age" in text

    def test_render_limits_fds(self, patient_relation):
        text = profile_relation(patient_relation).render(max_fds=2)
        assert "... and 7 more" in text
