"""Accuracy and timing metrics for FD-discovery experiments."""

from .accuracy import AccuracyReport, f1_score, fd_set_metrics, semantic_equivalence
from .error import ViolationProfile, violation_profile
from .timing import TimedRun, timed

__all__ = [
    "AccuracyReport",
    "TimedRun",
    "ViolationProfile",
    "f1_score",
    "fd_set_metrics",
    "semantic_equivalence",
    "timed",
    "violation_profile",
]
