"""RPR111 suppressed variant: inline disable on the early unlink."""

from __future__ import annotations


def teardown(path: str) -> None:
    segment = MmapSegment(path)
    segment.unlink()  # repro-lint: disable=RPR111
    segment.close()
