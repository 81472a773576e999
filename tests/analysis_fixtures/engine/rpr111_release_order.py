"""RPR111 fixture: unlink before close on an mmap-backed matrix file.

``MmapSegment`` is deliberately unimported: the fixture is parsed, not
executed.
"""

from __future__ import annotations


def teardown(path: str) -> None:
    segment = MmapSegment(path)
    segment.unlink()
    segment.close()
