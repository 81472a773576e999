"""The worker transport for the preprocessed label matrix (DESIGN.md §9).

Process workers of :mod:`repro.engine.parallel` need read access to the
label matrix every kernel runs against.  Pickling the matrix into every
task would ship ``rows × columns × itemsize`` bytes per chunk; instead
the coordinator *publishes* the matrix once to a memory-mapped file
under the temp directory (``repro_mmap_<pid>_<n>``) and tasks carry only
a tiny :class:`MmapMatrixRef` descriptor.  Each task maps the file
read-only: the kernel shares the page cache across every worker, so
there is no per-worker copy, just a zero-copy ``np.frombuffer`` view.

Two handle flavors:

* :class:`MmapMatrixRef` — path + shape + dtype of a published file;
* :class:`InlineMatrix` — the array itself, the degradation path when
  the temp dir is unwritable (the executor's own pickling then ships it
  once per task).

Lifecycle: :func:`publish_matrix` returns the handle plus a cleanup
callable that closes *and unlinks* the file.  The worker pool owning the
publication runs the cleanup when it shuts down (and at interpreter
exit), so a clean exit leaves no ``repro_mmap_*`` temp file behind — the
property the CI no-leak check asserts.  A worker keeps no mapping
between tasks: the array view :func:`resolve_matrix` returns holds the
mapping, which closes when the task drops the view.  So once the pool
unlinks a file, its pages are freed, even while the workers live on.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..obs import gauge_add
from ..obs.names import MMAP_BYTES, MMAP_FILES

MMAP_PREFIX = "repro_mmap_"
"""Filename prefix of every published matrix file (greppable in the temp
directory)."""


@dataclass(frozen=True)
class InlineMatrix:
    """The matrix itself — the unwritable-temp-dir fallback."""

    matrix: np.ndarray


@dataclass(frozen=True)
class MmapMatrixRef:
    """Descriptor of a published mmap-backed matrix file."""

    path: str
    shape: tuple[int, int]
    dtype: str


_SEQUENCE = 0


def _next_mmap_path() -> str:
    """A collision-resistant temp-file path, unique per (pid, counter)."""
    global _SEQUENCE
    _SEQUENCE += 1
    return os.path.join(
        tempfile.gettempdir(), f"{MMAP_PREFIX}{os.getpid()}_{_SEQUENCE}"
    )


class MmapSegment:
    """One mmap-backed matrix file this process owns.

    The publisher-side resource of the transport.  Release protocol:
    ``close()`` the write handle, then ``unlink()`` the temp file.
    Workers never hold one of these; they attach read-only via
    :func:`resolve_matrix`.
    """

    def __init__(self, path: str) -> None:
        """Create (truncate) the backing file and hold the write handle."""
        self.path = path
        self.size = 0
        self._file = open(path, "wb")

    def write(self, payload: bytes) -> None:
        """Write the matrix bytes and flush them down to the file.

        The flush is required before the handle escapes to workers: a
        small matrix fits entirely in the write handle's userspace
        buffer, and ``mmap`` refuses the still-empty on-disk file.

        Mutates: self
        """
        self._file.write(payload)
        self._file.flush()
        self.size += len(payload)

    def close(self) -> None:
        """Close the write handle (idempotent).

        Mutates: self
        """
        if self._file is not None:
            self._file.close()
            self._file = None

    def unlink(self) -> None:
        """Remove the backing file from the temp directory (idempotent).

        Mutates: self
        """
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def _discard_mmap_segment(segment: MmapSegment) -> None:
    """Close and unlink one mmap-backed file this module created."""
    segment.close()
    segment.unlink()


def publish_matrix(matrix: np.ndarray) -> tuple[object, Callable[[], None]]:
    """Publish ``matrix`` for process workers; return (handle, cleanup).

    The matrix is written once, row-major, to a ``repro_mmap_*`` file in
    the temp directory and the returned handle is a
    :class:`MmapMatrixRef`; the cleanup callable closes and unlinks the
    file and is safe to call more than once.  When the temp dir is
    unwritable the publish degrades to :class:`InlineMatrix` — correct,
    just shipped per task by the executor — and a failure after creation
    discards the half-written file before re-raising.
    """
    try:
        segment = MmapSegment(_next_mmap_path())
    except OSError:  # the temp dir is unwritable
        return InlineMatrix(matrix), lambda: None
    try:
        segment.write(np.ascontiguousarray(matrix).tobytes())
        handle = MmapMatrixRef(
            path=segment.path,
            shape=(int(matrix.shape[0]), int(matrix.shape[1])),
            dtype=str(matrix.dtype),
        )
    except BaseException:
        # e.g. disk-full mid-write: without this the temp file would
        # outlive the failed publish.
        _discard_mmap_segment(segment)
        raise
    done = False
    file_bytes = segment.size
    gauge_add(MMAP_FILES, 1.0)
    gauge_add(MMAP_BYTES, float(file_bytes))

    def cleanup() -> None:
        nonlocal done
        if done:
            return
        done = True
        gauge_add(MMAP_FILES, -1.0)
        gauge_add(MMAP_BYTES, -float(file_bytes))
        _discard_mmap_segment(segment)

    return handle, cleanup


def _attach(ref: MmapMatrixRef) -> np.ndarray:
    """Map a published file read-only; the view owns the mapping."""
    dtype = np.dtype(ref.dtype)
    if ref.shape[0] * ref.shape[1] == 0:
        # mmap rejects empty files; an empty matrix needs no backing
        array = np.empty(ref.shape, dtype=dtype)
    else:
        with open(ref.path, "rb") as file:
            # the mapping holds its own reference to the underlying pages
            mapping = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        array = np.frombuffer(mapping, dtype=dtype).reshape(ref.shape)
    array.setflags(write=False)
    return array


def resolve_matrix(handle: object) -> np.ndarray:
    """The label matrix behind any handle flavor (worker side).

    An mmap handle is mapped afresh on every call, and the mapping lives
    as long as the returned view; inline handles hand the array straight
    through (the executor's pickling already rebuilt it).
    """
    if isinstance(handle, InlineMatrix):
        return handle.matrix
    if isinstance(handle, MmapMatrixRef):
        return _attach(handle)
    raise TypeError(f"not a matrix handle: {handle!r}")


class MatrixView:
    """What the validation kernels read of a preprocessed relation.

    ``matrix`` plus per-column ``cardinalities`` — enough for both
    backends, so worker processes run the unchanged kernels against a
    resolved matrix without reconstructing relation metadata.
    """

    __slots__ = ("matrix", "cardinalities")

    def __init__(self, matrix: np.ndarray, cardinalities: tuple[int, ...]) -> None:
        self.matrix = matrix
        self.cardinalities = cardinalities

    @property
    def num_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_columns(self) -> int:
        return int(self.matrix.shape[1])
