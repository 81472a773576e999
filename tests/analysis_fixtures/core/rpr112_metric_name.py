"""RPR112 fixture: ad-hoc name literals at front-door call sites."""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext


def count(name: str, amount: float = 1) -> None:
    """Stand-in for the repro.obs front door."""


def phase(name: str, **attrs: object) -> AbstractContextManager[None]:
    """Stand-in for the repro.obs front door."""
    return nullcontext()


def record_pass(passes: int) -> None:
    count("sampler.passes", passes)
    with phase(f"sampling.{passes}"):
        pass
