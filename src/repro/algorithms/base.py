"""Common interface and registry for FD-discovery algorithms.

Every algorithm — EulerFD itself, the exact baselines (Tane, Fdep, HyFD),
the brute-force oracle and the approximate baseline AID-FD — consumes a
:class:`~repro.relation.relation.Relation` and produces a
:class:`~repro.core.result.DiscoveryResult` holding the non-trivial
minimal FDs, so benchmarks and metrics treat them uniformly.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import Protocol, runtime_checkable

from ..core.result import DiscoveryResult
from ..obs import phase
from ..obs.names import DISCOVER
from ..relation.relation import Relation


KIND_EXACT = "exact"
KIND_APPROXIMATE = "approximate"


@runtime_checkable
class FDAlgorithm(Protocol):
    """An FD discovery algorithm.

    Implementations declare ``kind`` as ``"exact"`` (the discovered set
    is provably the complete minimal cover) or ``"approximate"``
    (sampling-based; the set may over- or under-claim).  The benchmark
    harness relies on this to pick ground-truth producers, and lint rule
    RPR003 enforces the declaration on every class in this package.
    """

    name: str
    kind: str

    def discover(self, relation: Relation) -> DiscoveryResult:
        """Discover the non-trivial minimal FDs of ``relation``."""


_REGISTRY: dict[str, Callable[[], FDAlgorithm]] = {}


def instrument_discover(cls: type) -> type:
    """The shared observability hook: every ``discover`` call is a phase.

    Wraps the class's ``discover`` in the ``discover`` phase, carrying
    the algorithm and relation names — every registered algorithm gets a
    uniform trace root and a ``phase.discover.seconds`` histogram without
    touching its body.  With no obs sink installed the phase is the
    shared null handle.  Idempotent: re-registering a class does not
    stack wrappers.
    """
    original = cls.discover
    if getattr(original, "__repro_traced__", False):
        return cls

    @functools.wraps(original)
    def discover(self: FDAlgorithm, relation: Relation) -> DiscoveryResult:
        with phase(
            DISCOVER,
            algorithm=getattr(self, "name", cls.__name__),
            relation=relation.name,
        ):
            return original(self, relation)

    discover.__repro_traced__ = True  # type: ignore[attr-defined]
    cls.discover = discover
    return cls


def register(key: str) -> Callable[[type], type]:
    """Class decorator registering a zero-argument-constructible algorithm.

    Registration routes through :func:`instrument_discover`, so being in
    the registry implies being traceable.
    """

    def decorate(cls: type) -> type:
        _REGISTRY[key] = instrument_discover(cls)
        return cls

    return decorate


def available_algorithms() -> list[str]:
    """Registered algorithm keys, sorted."""
    return sorted(_REGISTRY)

def create(key: str) -> FDAlgorithm:
    """Instantiate a registered algorithm with its default configuration."""
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {key!r}; available: {available_algorithms()}"
        ) from None
    return factory()
