"""Tests for the multilevel feedback queue."""

from __future__ import annotations

import pytest

from repro.core import MlfqPolicy, MultilevelFeedbackQueue


def make_queue(num_queues: int = 4) -> MultilevelFeedbackQueue[str]:
    return MultilevelFeedbackQueue(MlfqPolicy.with_queues(num_queues))


class TestScheduling:
    def test_high_capa_served_first(self):
        queue = make_queue()
        queue.push("slow", 0.05)
        queue.push("fast", 20.0)
        queue.push("medium", 2.0)
        assert queue.pop() == "fast"
        assert queue.pop() == "medium"
        assert queue.pop() == "slow"

    def test_fifo_within_a_queue(self):
        queue = make_queue()
        queue.push("first", 5.0)
        queue.push("second", 3.0)  # same [1, 10) bucket
        assert queue.pop() == "first"
        assert queue.pop() == "second"

    def test_reassignment_to_tail(self):
        """Algorithm 1: a resampled cluster re-enters at the queue tail."""
        queue = make_queue()
        queue.push("a", 5.0)
        queue.push("b", 5.0)
        item = queue.pop()
        queue.push(item, 5.0)
        assert queue.pop() == "b"
        assert queue.pop() == "a"

    def test_push_returns_queue_index(self):
        queue = make_queue()  # bounds 10, 1, 0.1, 0
        assert queue.push("x", 100.0) == 0
        assert queue.push("y", 0.5) == 2
        assert queue.push("z", 0.0) == 3
        assert queue.push("unsampled", float("inf")) == 0
        # lower bounds are inclusive
        assert queue.push("at 10", 10.0) == 0
        assert queue.push("at 1", 1.0) == 1
        assert queue.push("at 0.1", 0.1) == 2

    def test_zero_capa_lands_in_lowest_queue(self):
        queue = make_queue()
        assert queue.push("idle", 0.0) == 3


class TestBookkeeping:
    def test_len_and_bool(self):
        queue = make_queue()
        assert not queue
        assert len(queue) == 0
        queue.push("a", 1.0)
        assert queue
        assert len(queue) == 1
        queue.pop()
        assert not queue

    def test_queue_sizes(self):
        queue = make_queue()
        queue.push("a", 50.0)
        queue.push("b", 50.0)
        queue.push("c", 0.0)
        assert queue.queue_sizes() == (2, 0, 0, 1)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            make_queue().pop()

    def test_clear(self):
        queue = make_queue()
        queue.push("a", 1.0)
        queue.push("b", 0.0)
        queue.clear()
        assert len(queue) == 0
        assert queue.queue_sizes() == (0, 0, 0, 0)

    def test_single_queue_is_plain_fifo(self):
        queue = make_queue(1)
        for name, capa in (("a", 0.0), ("b", 99.0), ("c", 1.0)):
            queue.push(name, capa)
        assert [queue.pop() for _ in range(3)] == ["a", "b", "c"]
