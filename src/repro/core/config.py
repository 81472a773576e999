"""Configuration of the EulerFD algorithm.

Defaults follow Section V-A of the paper: ``Th_Ncover = Th_Pcover = 0.01``
and the 6-queue MLFQ of Table IV.  Everything the experiments of Sections
V-E/V-F vary (queue count, capa ranges, thresholds) is a plain field here
so the benchmark harness can sweep it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


def mlfq_ranges(num_queues: int) -> tuple[float, ...]:
    """Lower bounds of the capa ranges for ``num_queues`` queues (Table IV).

    Returned highest priority first.  The top queue is ``[10, +inf)`` and
    the remaining ranges are exponentially divided by decades, the last
    one reaching down to 0 — exactly the paper's Table IV: e.g. 4 queues
    give ``[10, inf), [1, 10), [0.1, 1), [0, 0.1)``.
    """
    if num_queues < 1:
        raise ValueError(f"need at least one queue, got {num_queues}")
    if num_queues == 1:
        return (0.0,)
    bounds = [10.0 / (10.0**level) for level in range(num_queues - 1)]
    bounds.append(0.0)
    return tuple(bounds)


@dataclass(frozen=True)
class MlfqPolicy:
    """Multilevel-feedback-queue parameters (Section V-E).

    ``lower_bounds`` holds the inclusive lower capa bound of each queue,
    highest priority first; a cluster with capa ``c`` is assigned to the
    first queue whose bound is ``<= c``.  ``adaptive`` enables the paper's
    future-work extension: re-dividing the bounds from the observed capa
    distribution at the start of every sampling pass.
    """

    lower_bounds: tuple[float, ...] = field(default_factory=lambda: mlfq_ranges(6))
    adaptive: bool = False

    def __post_init__(self) -> None:
        if not self.lower_bounds:
            raise ValueError("an MLFQ needs at least one queue")
        if list(self.lower_bounds) != sorted(self.lower_bounds, reverse=True):
            raise ValueError(
                f"queue bounds must be strictly ordered high to low, got "
                f"{self.lower_bounds}"
            )
        if self.lower_bounds[-1] != 0.0:
            raise ValueError("the lowest-priority queue must reach capa 0")
        # Negated, the bounds ascend: the first queue whose bound is <= c
        # is the first key >= -c, one left-side binary search.
        object.__setattr__(self, "_keys", -np.array(self.lower_bounds))

    @property
    def num_queues(self) -> int:
        return len(self.lower_bounds)

    def queues_for(self, capas: np.ndarray) -> np.ndarray:
        """Queue index (0 = highest priority) of each capa value."""
        if not (capas >= 0).all():
            raise ValueError(f"capas must be non-negative numbers, got {capas}")
        return np.searchsorted(self._keys, -capas)

    @classmethod
    def with_queues(cls, num_queues: int, adaptive: bool = False) -> "MlfqPolicy":
        """The Table IV preset for ``num_queues`` queues."""
        return cls(mlfq_ranges(num_queues), adaptive)


@dataclass(frozen=True)
class EulerFDConfig:
    """All tunables of EulerFD.

    * ``th_ncover`` / ``th_pcover`` — the empirical growth-rate stopping
      thresholds of the two cycles (Algorithms 2 and 3); 0.01 per Sec. V-F.
    * ``mlfq`` — queue policy (Table IV, 6 queues by default).
    * ``retire_history`` — a cluster permanently retires once its average
      capa over this many most recent samples is 0 (Algorithm 1, line 17).
    * ``initial_window`` — sliding-window size of the first sample of each
      cluster (Algorithm 1, line 3).
    * ``max_cycles`` — safety bound on outer double-cycle iterations; the
      growth-rate criteria terminate far earlier in practice.
    * ``null_equals_null`` — NULL comparison semantics at preprocessing.
    """

    th_ncover: float = 0.01
    th_pcover: float = 0.01
    mlfq: MlfqPolicy = field(default_factory=MlfqPolicy)
    retire_history: int = 3
    initial_window: int = 2
    max_cycles: int = 64
    null_equals_null: bool = True

    def __post_init__(self) -> None:
        if self.th_ncover < 0 or self.th_pcover < 0:
            raise ValueError("growth-rate thresholds must be non-negative")
        if self.retire_history < 1:
            raise ValueError("retire_history must be at least 1")
        if self.initial_window < 2:
            raise ValueError("a sliding window needs at least 2 tuples")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be at least 1")

    def with_queues(self, num_queues: int) -> "EulerFDConfig":
        """Copy of this config with a Table IV MLFQ of ``num_queues``."""
        return replace(self, mlfq=MlfqPolicy.with_queues(num_queues))

    def with_thresholds(
        self, th_ncover: float | None = None, th_pcover: float | None = None
    ) -> "EulerFDConfig":
        """Copy of this config with overridden stopping thresholds."""
        return replace(
            self,
            th_ncover=self.th_ncover if th_ncover is None else th_ncover,
            th_pcover=self.th_pcover if th_pcover is None else th_pcover,
        )
