"""A multilevel feedback queue over sampling clusters (Section IV-C).

Classic MLFQ scheduling [Corbató et al. 1962] keeps several FIFO queues of
decreasing priority and learns where each process belongs from observed
behaviour.  EulerFD treats *clusters* as processes and their sampling
capacity ``capa`` as the observed behaviour: clusters whose recent samples
yielded many new non-FDs are scheduled before clusters that went quiet.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import Generic, TypeVar

from .config import MlfqPolicy

T = TypeVar("T")


class MultilevelFeedbackQueue(Generic[T]):
    """Priority buckets of FIFO queues, keyed by capa ranges.

    The caller picks each item's queue with ``policy.queues_for`` and
    ``extend`` appends it at that queue's tail (Algorithm 1: "reassigns it
    to the tail of a new queue").  Items are served off the head of the
    highest-priority non-empty queue: ``head_level`` names that queue,
    ``take`` removes items off its head, and ``give_back`` returns
    untouched ones to the head.
    """

    __slots__ = ("policy", "_queues", "_size")

    def __init__(self, policy: MlfqPolicy) -> None:
        self.policy = policy
        self._queues: list[deque[T]] = [deque() for _ in range(policy.num_queues)]
        self._size = 0

    def extend(self, level: int, items: Iterable[T]) -> None:
        """Append ``items``, in order, to the tail of queue ``level``."""
        queue = self._queues[level]
        before = len(queue)
        queue.extend(items)
        self._size += len(queue) - before

    def head_level(self) -> int:
        """Index of the highest-priority non-empty queue.

        Raises ``IndexError`` when the MLFQ is empty.
        """
        for level, queue in enumerate(self._queues):
            if queue:
                return level
        raise IndexError("the multilevel feedback queue is empty")

    def take(self, level: int, limit: int) -> list[T]:
        """Remove up to ``limit`` items off the head of queue ``level``, in
        queue order."""
        queue = self._queues[level]
        if limit >= len(queue):
            items = list(queue)
            queue.clear()
        else:
            items = [queue.popleft() for _ in range(limit)]
        self._size -= len(items)
        return items

    def give_back(self, level: int, items: list[T]) -> None:
        """Return items taken off queue ``level`` to its head, in order."""
        self._queues[level].extendleft(reversed(items))
        self._size += len(items)

    def queue_sizes(self) -> tuple[int, ...]:
        """Current occupancy per queue, highest priority first."""
        return tuple(len(queue) for queue in self._queues)

    def clear(self) -> None:
        for queue in self._queues:
            queue.clear()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultilevelFeedbackQueue(sizes={self.queue_sizes()})"
