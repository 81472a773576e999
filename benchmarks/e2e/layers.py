# repro-lint: disable-file=RPR104 — the benchmark times the library from
# outside with its own clock; repro.obs is what later changes rewrite, so
# the harness must not depend on it.
"""Outside-in layer timing for the traced pass.

A :class:`Tracer` swaps each entry point of :data:`HOOKS` for a wrapper
while a traced op runs, and restores the originals afterwards, so
untraced ops execute the library unmodified.  The wrappers keep a
stack: a layer's *self* time is its duration minus the time of wrapped
calls nested inside it.  Whatever no wrapper claims is the algorithm's
own loop, ``driver.self_s``.

A hook target that no longer exists is reported as missing; every
metric fed only by missing targets reads ``None``.  Which end-to-end
metric each layer should move, and on which workload, is in README.md.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

# -- observers: counts read off a wrapped call's arguments and result --------
#
# ``before(args)`` runs ahead of the call; ``after(counts, args, result,
# token, elapsed_ns)`` adds to the layer's ``counts``, ``token`` being
# what ``before`` returned.


def _sampler_pass(counts: Counter, args: tuple, result: Any, token: Any,
                  elapsed: int) -> None:
    violations, stats = result
    counts["pairs"] += stats.pairs_compared
    counts["violations"] += len(violations)


def _ncover_add(counts: Counter, args: tuple, result: Any, token: Any,
                elapsed: int) -> None:
    counts["admitted"] += bool(result)


def _inversion(counts: Counter, args: tuple, result: Any, token: Any,
               elapsed: int) -> None:
    counts["non_fds"] += result.non_fds_processed
    counts["cover_edits"] += result.candidates_removed + result.candidates_added


def _validate(counts: Counter, args: tuple, result: Any, token: Any,
              elapsed: int) -> None:
    counts["candidates"] += len(result)
    counts["valid"] += sum(1 for outcome in result if outcome.holds)


def _all_pairs(counts: Counter, args: tuple, result: Any, token: Any,
               elapsed: int) -> None:
    rows = args[0].num_rows
    counts["pairs"] += rows * (rows - 1) // 2


def _pair_list(counts: Counter, args: tuple, result: Any, token: Any,
               elapsed: int) -> None:
    counts["pairs"] += len(args[2])


def _pool_busy_before(args: tuple) -> float:
    return args[0].busy_seconds


def _pool_busy(counts: Counter, args: tuple, result: Any, token: float,
               elapsed: int) -> None:
    pool = args[0]
    counts["busy_ns"] += (pool.busy_seconds - token) * 1e9
    counts["capacity_ns"] += elapsed * pool.jobs


def _store_hits_before(args: tuple) -> int:
    return args[0].hits


def _store_get(counts: Counter, args: tuple, result: Any, token: int,
               elapsed: int) -> None:
    counts["hits"] += args[0].hits - token


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: the layer it feeds, where it lives, and
    how to read counts off a call."""

    layer: str
    module: str
    attribute: str
    after: Callable[..., None] | None = None
    before: Callable[[tuple], Any] | None = None


HOOKS: tuple[Hook, ...] = (
    Hook("engine.context.init", "repro.engine.context", "ExecutionContext.__init__"),
    Hook("core.sampler.run_pass", "repro.core.sampler", "SamplingModule.run_pass",
         after=_sampler_pass),
    Hook("fd.covers.ncover_add", "repro.fd.covers", "NegativeCover.add",
         after=_ncover_add),
    Hook("core.inversion.process", "repro.core.inversion", "Inverter.process",
         after=_inversion),
    Hook("engine.context.validate_many", "repro.engine.context",
         "ExecutionContext.validate_many", after=_validate),
    Hook("agree.compute", "repro.algorithms.fdep", "compute_agree_masks",
         after=_all_pairs),
    Hook("agree.compute", "repro.algorithms.hyfd", "agree_masks_sharded",
         after=_pair_list),
    Hook("agree.compute", "repro.core.incremental", "agree_masks_sharded",
         after=_pair_list),
    Hook("engine.parallel.map_chunks", "repro.engine.parallel",
         "WorkerPool.map_chunks", before=_pool_busy_before, after=_pool_busy),
    Hook("engine.store.get", "repro.engine.store", "PartitionStore.get",
         before=_store_hits_before, after=_store_get),
    Hook("engine.context.append_rows", "repro.engine.context",
         "ExecutionContext.append_rows"),
    Hook("engine.store.apply_delta", "repro.engine.store",
         "PartitionStore.apply_delta"),
    Hook("core.sampler.extend_clusters", "repro.core.sampler",
         "SamplingModule.extend_clusters"),
)


@dataclass
class Layer:
    """What the wrappers of one layer accumulated."""

    calls: int = 0
    self_ns: int = 0
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Installs :data:`HOOKS` around traced ops and accumulates per layer."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS) -> None:
        self.hooks = hooks
        self.layers: dict[str, Layer] = {hook.layer: Layer() for hook in hooks}
        self.ops = 0
        self.wall_ns = 0
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, Any, Callable]] = []
        self.missing: list[Hook] = []
        for hook in hooks:
            target = _resolve(hook)
            if target is None:
                self.missing.append(hook)
                print(f"warning: hook target {hook.module}.{hook.attribute} "
                      f"not found; {hook.layer} reports null", file=sys.stderr)
                continue
            owner, name, original = target
            self._targets.append((owner, name, original, self._wrap(hook, original)))

    @property
    def absent_layers(self) -> set[str]:
        """Layers all of whose hook targets are missing."""
        present = {hook.layer for hook in self.hooks if hook not in self.missing}
        return {hook.layer for hook in self.missing} - present

    @contextmanager
    def active(self) -> Iterator[None]:
        """Run the enclosed op traced; counts it as one op of ``wall_ns``."""
        for owner, name, _, wrapper in self._targets:
            setattr(owner, name, wrapper)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.wall_ns += time.perf_counter_ns() - start
            self.ops += 1
            for owner, name, original, _ in self._targets:
                setattr(owner, name, original)

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        layer = self.layers[hook.layer]
        counts = layer.counts
        before, after = hook.before, hook.after
        stack = self._stack

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before else None
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                layer.calls += 1
                layer.self_ns += elapsed - nested
            if after:
                after(counts, args, result, token, elapsed)
            return result

        return timed


def _resolve(hook: Hook) -> tuple[object, str, Any] | None:
    """(owner, attribute name, original) of a hook target, or None."""
    try:
        owner: object = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # the raw attribute, so a method is restored exactly as it was
    original = vars(owner).get(name)
    if not callable(original):
        return None
    return owner, name, original


# -- per-layer metrics ----------------------------------------------------------


#: (metric, layer, numerator, denominator).  Terms are a layer's
#: ``self_ns`` or ``calls``, one of its counts, or :data:`OPS` (traced ops,
#: making the metric per op).  Metrics named ``*_s`` convert ns to s.
OPS = "ops"
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("engine.context.init_s", "engine.context.init", "self_ns", OPS),
    ("core.sampler.run_pass_s", "core.sampler.run_pass", "self_ns", OPS),
    ("core.sampler.pairs", "core.sampler.run_pass", "pairs", OPS),
    ("core.sampler.violation_yield", "core.sampler.run_pass", "violations", "pairs"),
    ("fd.covers.ncover_add_s", "fd.covers.ncover_add", "self_ns", OPS),
    ("fd.covers.ncover_add_calls", "fd.covers.ncover_add", "calls", OPS),
    ("fd.covers.ncover_admit_ratio", "fd.covers.ncover_add", "admitted", "calls"),
    ("core.inversion.process_s", "core.inversion.process", "self_ns", OPS),
    ("core.inversion.non_fds", "core.inversion.process", "non_fds", OPS),
    ("core.inversion.cover_edits", "core.inversion.process", "cover_edits", OPS),
    ("engine.context.validate_many_s", "engine.context.validate_many", "self_ns", OPS),
    ("engine.context.validate_candidates", "engine.context.validate_many",
     "candidates", OPS),
    ("engine.context.validate_valid_ratio", "engine.context.validate_many",
     "valid", "candidates"),
    ("agree.compute_s", "agree.compute", "self_ns", OPS),
    ("agree.pairs", "agree.compute", "pairs", OPS),
    ("engine.parallel.map_chunks_s", "engine.parallel.map_chunks", "self_ns", OPS),
    ("engine.parallel.busy_s", "engine.parallel.map_chunks", "busy_ns", OPS),
    ("engine.parallel.efficiency", "engine.parallel.map_chunks",
     "busy_ns", "capacity_ns"),
    ("engine.store.get_s", "engine.store.get", "self_ns", OPS),
    ("engine.store.get_calls", "engine.store.get", "calls", OPS),
    ("engine.store.hit_rate", "engine.store.get", "hits", "calls"),
    ("engine.context.append_rows_s", "engine.context.append_rows", "self_ns", OPS),
    ("engine.store.apply_delta_s", "engine.store.apply_delta", "self_ns", OPS),
    ("core.sampler.extend_clusters_s", "core.sampler.extend_clusters",
     "self_ns", OPS),
)


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float | None]:
    """Every per-layer metric, per traced op.

    ``overhead`` is the traced/untraced median ratio minus one, measured
    by the caller on interleaved ops.  A rate whose denominator is zero
    (the layer never ran) reads 0.
    """
    absent = tracer.absent_layers

    def term(layer: Layer, key: str) -> float:
        if key == OPS:
            return tracer.ops
        if key in ("self_ns", "calls"):
            return getattr(layer, key)
        return layer.counts[key]

    metrics: dict[str, float | None] = {}
    for name, layer_name, numerator, denominator in PER_LAYER:
        if layer_name in absent:
            metrics[name] = None
            continue
        layer = tracer.layers[layer_name]
        below = term(layer, denominator)
        value = term(layer, numerator) / below if below else 0.0
        metrics[name] = value / 1e9 if name.endswith("_s") else value
    claimed_ns = sum(
        layer.self_ns
        for name, layer in tracer.layers.items()
        if name not in absent
    )
    ops = max(tracer.ops, 1)
    metrics["driver.self_s"] = (tracer.wall_ns - claimed_ns) / ops / 1e9
    metrics["coverage"] = claimed_ns / tracer.wall_ns if tracer.wall_ns else 0.0
    metrics["trace_overhead"] = overhead
    return metrics
