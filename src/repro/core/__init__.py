"""EulerFD core: configuration, sampling, covers, inversion, driver."""

from .config import EulerFDConfig, MlfqPolicy, mlfq_ranges
from .eulerfd import EulerFD
from .incremental import IncrementalEulerFD
from .inversion import Inverter, InversionStats
from .mlfq import MultilevelFeedbackQueue
from .result import DiscoveryResult, Stopwatch, make_result
from .sampler import RoundStats, SamplingModule

__all__ = [
    "DiscoveryResult",
    "EulerFD",
    "EulerFDConfig",
    "IncrementalEulerFD",
    "Inverter",
    "InversionStats",
    "MlfqPolicy",
    "MultilevelFeedbackQueue",
    "RoundStats",
    "SamplingModule",
    "Stopwatch",
    "make_result",
    "mlfq_ranges",
]
