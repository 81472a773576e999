"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

import repro.engine.shm as shm
from repro.datasets import patients
from repro.relation import Relation


@pytest.fixture(scope="session")
def patient_relation() -> Relation:
    """Table I of the paper (9 tuples, 5 attributes N, A, B, G, M)."""
    return patients()


@pytest.fixture()
def tiny_relation() -> Relation:
    """A 4x3 relation with obvious structure: c0 key, c2 constant."""
    return Relation.from_rows(
        [
            (1, "x", 0),
            (2, "x", 0),
            (3, "y", 0),
            (4, "y", 0),
        ],
        ["c0", "c1", "c2"],
        name="tiny",
    )


@pytest.fixture()
def unwritable_temp_dir(monkeypatch):
    """Every mmap publish fails to create its file, as in a read-only
    temp dir, so ``publish_matrix`` takes its inline fallback."""

    def refuse(path):
        raise OSError(f"cannot create {path}")

    monkeypatch.setattr(shm, "MmapSegment", refuse)


def relation_of(rows, name="test"):
    """Shorthand for building relations from row tuples in tests."""
    width = len(rows[0]) if rows else 0
    return Relation.from_rows(rows, [f"c{i}" for i in range(width)], name=name)
