"""Tests for EulerFD configuration (thresholds, MLFQ ranges of Table IV)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EulerFDConfig, MlfqPolicy, mlfq_ranges


def queue_for(policy: MlfqPolicy, capa: float) -> int:
    """The queue ``policy`` picks for one capa value."""
    return int(policy.queues_for(np.array([capa]))[0])


class TestMlfqRanges:
    """Table IV: capa ranges for 1-7 queues."""

    def test_single_queue(self):
        assert mlfq_ranges(1) == (0.0,)

    def test_two_queues(self):
        assert mlfq_ranges(2) == (10.0, 0.0)

    def test_four_queues(self):
        assert mlfq_ranges(4) == (10.0, 1.0, 0.1, 0.0)

    def test_seven_queues_matches_table4(self):
        bounds = mlfq_ranges(7)
        assert bounds == pytest.approx(
            (10.0, 1.0, 0.1, 0.01, 0.001, 0.0001, 0.0)
        )

    def test_rejects_zero_queues(self):
        with pytest.raises(ValueError):
            mlfq_ranges(0)


class TestMlfqPolicy:
    def test_default_is_six_queues(self):
        policy = MlfqPolicy()
        assert policy.num_queues == 6
        assert policy.lower_bounds[0] == 10.0

    def test_queue_for_assigns_by_range(self):
        policy = MlfqPolicy.with_queues(4)  # bounds 10, 1, 0.1, 0
        assert queue_for(policy, 25.0) == 0
        assert queue_for(policy, 10.0) == 0  # inclusive lower bound
        assert queue_for(policy, 1.25) == 1  # the paper's Fig. 3 example
        assert queue_for(policy, 0.8) == 2  # capa 0.8 -> q3 in Fig. 3
        assert queue_for(policy, 0.0) == 3
        # one call places a whole batch, each capa as on its own
        capas = np.array([25.0, 10.0, 1.25, 0.8, 0.0])
        assert policy.queues_for(capas).tolist() == [0, 0, 1, 2, 3]

    def test_queue_for_infinity_is_top(self):
        assert queue_for(MlfqPolicy(), float("inf")) == 0

    def test_queue_for_rejects_negative_and_nan(self):
        policy = MlfqPolicy()
        with pytest.raises(ValueError):
            queue_for(policy, -0.1)
        with pytest.raises(ValueError):
            queue_for(policy, float("nan"))
        with pytest.raises(ValueError):
            policy.queues_for(np.array([1.0, -0.1, 0.0]))

    def test_bounds_must_descend(self):
        with pytest.raises(ValueError):
            MlfqPolicy((0.1, 1.0, 0.0))

    def test_lowest_bound_must_be_zero(self):
        with pytest.raises(ValueError):
            MlfqPolicy((10.0, 1.0))

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            MlfqPolicy(())


class TestEulerFDConfig:
    def test_paper_defaults(self):
        config = EulerFDConfig()
        assert config.th_ncover == 0.01
        assert config.th_pcover == 0.01
        assert config.mlfq.num_queues == 6
        assert config.initial_window == 2

    def test_with_queues(self):
        config = EulerFDConfig().with_queues(3)
        assert config.mlfq.num_queues == 3
        assert EulerFDConfig().mlfq.num_queues == 6  # original untouched

    def test_with_thresholds(self):
        config = EulerFDConfig().with_thresholds(th_ncover=0.1)
        assert config.th_ncover == 0.1
        assert config.th_pcover == 0.01
        config = config.with_thresholds(th_pcover=0.0)
        assert config.th_pcover == 0.0
        assert config.th_ncover == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            EulerFDConfig(th_ncover=-0.1)
        with pytest.raises(ValueError):
            EulerFDConfig(retire_history=0)
        with pytest.raises(ValueError):
            EulerFDConfig(initial_window=1)
        with pytest.raises(ValueError):
            EulerFDConfig(max_cycles=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EulerFDConfig().th_ncover = 0.5
