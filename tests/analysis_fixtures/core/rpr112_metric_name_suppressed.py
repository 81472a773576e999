"""RPR112 suppressed variant: a reviewed literal behind the pragma."""

from __future__ import annotations


def count(name: str, amount: float = 1) -> None:
    """Stand-in for the repro.obs front door."""


def record_pass(passes: int) -> None:
    count("sampler.passes", passes)  # repro-lint: disable=RPR112
