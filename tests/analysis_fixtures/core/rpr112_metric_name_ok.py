"""RPR112 clean variant: names flow through catalog constants."""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext

SAMPLER_PASSES = "sampler.passes"
SAMPLING = "sampling"


def count(name: str, amount: float = 1) -> None:
    """Stand-in for the repro.obs front door."""


def phase(name: str, **attrs: object) -> AbstractContextManager[None]:
    """Stand-in for the repro.obs front door."""
    return nullcontext()


def record_pass(passes: int) -> None:
    count(SAMPLER_PASSES, passes)
    with phase(SAMPLING, passes=passes):
        pass
