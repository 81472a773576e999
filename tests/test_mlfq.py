"""Tests for the multilevel feedback queue."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MlfqPolicy, MultilevelFeedbackQueue


def make_queue(num_queues: int = 4) -> MultilevelFeedbackQueue[str]:
    return MultilevelFeedbackQueue(MlfqPolicy.with_queues(num_queues))


def push(queue: MultilevelFeedbackQueue[str], item: str, capa: float) -> int:
    """Enqueue ``item`` by its capa, as the sampler does; return its queue."""
    level = int(queue.policy.queues_for(np.array([capa]))[0])
    queue.extend(level, [item])
    return level


def pop(queue: MultilevelFeedbackQueue[str]) -> str:
    """Dequeue the head of the highest-priority non-empty queue."""
    return queue.take(queue.head_level(), 1)[0]


class TestScheduling:
    def test_high_capa_served_first(self):
        queue = make_queue()
        push(queue, "slow", 0.05)
        push(queue, "fast", 20.0)
        push(queue, "medium", 2.0)
        assert pop(queue) == "fast"
        assert pop(queue) == "medium"
        assert pop(queue) == "slow"

    def test_fifo_within_a_queue(self):
        queue = make_queue()
        push(queue, "first", 5.0)
        push(queue, "second", 3.0)  # same [1, 10) bucket
        assert pop(queue) == "first"
        assert pop(queue) == "second"

    def test_reassignment_to_tail(self):
        """Algorithm 1: a resampled cluster re-enters at the queue tail."""
        queue = make_queue()
        push(queue, "a", 5.0)
        push(queue, "b", 5.0)
        item = pop(queue)
        push(queue, item, 5.0)
        assert pop(queue) == "b"
        assert pop(queue) == "a"

    def test_push_returns_queue_index(self):
        queue = make_queue()  # bounds 10, 1, 0.1, 0
        assert push(queue, "x", 100.0) == 0
        assert push(queue, "y", 0.5) == 2
        assert push(queue, "z", 0.0) == 3
        assert push(queue, "unsampled", float("inf")) == 0
        # lower bounds are inclusive
        assert push(queue, "at 10", 10.0) == 0
        assert push(queue, "at 1", 1.0) == 1
        assert push(queue, "at 0.1", 0.1) == 2

    def test_zero_capa_lands_in_lowest_queue(self):
        queue = make_queue()
        assert push(queue, "idle", 0.0) == 3

    def test_take_and_give_back_keep_queue_order(self):
        queue = make_queue()
        queue.extend(1, ["a", "b", "c", "d"])
        assert queue.take(1, 3) == ["a", "b", "c"]
        queue.give_back(1, ["b", "c"])
        assert len(queue) == 3
        assert queue.take(1, 10) == ["b", "c", "d"]
        assert not queue


class TestBookkeeping:
    def test_len_and_bool(self):
        queue = make_queue()
        assert not queue
        assert len(queue) == 0
        push(queue, "a", 1.0)
        assert queue
        assert len(queue) == 1
        pop(queue)
        assert not queue

    def test_queue_sizes(self):
        queue = make_queue()
        push(queue, "a", 50.0)
        push(queue, "b", 50.0)
        push(queue, "c", 0.0)
        assert queue.queue_sizes() == (2, 0, 0, 1)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            make_queue().head_level()

    def test_clear(self):
        queue = make_queue()
        push(queue, "a", 1.0)
        push(queue, "b", 0.0)
        queue.clear()
        assert len(queue) == 0
        assert queue.queue_sizes() == (0, 0, 0, 0)

    def test_single_queue_is_plain_fifo(self):
        queue = make_queue(1)
        for name, capa in (("a", 0.0), ("b", 99.0), ("c", 1.0)):
            push(queue, name, capa)
        assert [pop(queue) for _ in range(3)] == ["a", "b", "c"]
