"""RPR111 clean variant: the protocol's steps in declared order."""

from __future__ import annotations


def teardown(path: str) -> None:
    segment = MmapSegment(path)
    segment.close()
    segment.unlink()
