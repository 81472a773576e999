"""Runtime enforcement of the docstring contracts (``--sanitize``).

This module is *copied into the root of the sanitized package* by
:mod:`repro.analysis.sanitize`; instrumented modules import it relatively
(``from ._contracts_runtime import contract``) so the shadow package
stays self-contained.  It therefore imports nothing from ``repro`` and
depends only on the standard library.

The :func:`contract` decorator turns one declared contract into checks
around every call:

* ``Pure:`` / undeclared parameters of ``Mutates:`` — every parameter
  the contract promises untouched is snapshotted (pickled) before the
  call and compared after; a differing snapshot raises
  :class:`ContractViolation`.  Unpicklable values (open files, live
  generators) are skipped rather than consumed or guessed at.
* ``Monotone: p via probe`` — the members of ``p`` (``list(p)``) are
  collected before the call; afterwards every old member must still
  satisfy ``p.probe(member)``.  This is the negative cover's append-only
  promise: inversion may consult it, never shrink it.

Checks are budgeted: after ``REPRO_CONTRACTS_MAX_CHECKS`` calls
(default 128) a wrapper becomes a plain passthrough, so instrumented
test runs stay roughly linear.

The :func:`probe` decorator attaches two runtime checks of the worker
pool to the sanitized tree:

* ``shard_permutation`` (on ``WorkerPool.map_chunks``) — the runtime
  half of RPR107: re-dispatches the same chunk plan in reversed order
  and asserts the index-restored results are identical, i.e. the merge
  really is permutation-invariant and not accidentally completion-order
  dependent.  Only the deterministic kernels are replayed (wall-time
  payloads would differ by construction), and only on a non-serial pool
  with 2+ chunks.
* ``live_resources`` (on ``WorkerPool.close``) — per call it asserts the
  closed pool really released everything (no surviving publications or
  executor) and that no ``repro_mmap_<pid>_*`` matrix file of this
  process lingers in the temp directory without a live owning pool;
  installing the probe also registers a process-exit check (running
  after ``close_all_pools``) that asserts zero surviving own-pid files
  and a balanced ``use_context`` stack, exiting non-zero on violation so
  CI fails.

Probes budget separately (:data:`PROBE_MAX_CHECKS` calls each — they
re-run kernels, so they are costlier than snapshots).
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
from collections.abc import Callable, Iterable

_SKIP = object()
"""Sentinel for parameters that could not be snapshotted."""

_PROTOCOL = 4

PROBE_MAX_CHECKS = 32
"""Calls per probed function that run the probe; later calls pass through."""


class ContractViolation(AssertionError):
    """An instrumented call broke its declared docstring contract."""


class ProbeViolation(AssertionError):
    """An instrumented call failed a runtime determinism/resource probe."""


def _max_checks() -> int:
    try:
        return int(os.environ.get("REPRO_CONTRACTS_MAX_CHECKS", "128"))
    except ValueError:
        return 128


def _snapshot(value: object) -> object:
    """Pickle a value for later comparison; ``_SKIP`` when impossible.

    Byte-comparing two pickles of the *same, unmutated* object is
    reliable: container iteration order only changes on mutation.
    """
    try:
        return pickle.dumps(value, protocol=_PROTOCOL)
    except Exception:
        return _SKIP


def _members(value: object) -> object:
    """Snapshot the membership of an iterable contract parameter."""
    if not isinstance(value, Iterable):
        return _SKIP
    try:
        return list(value)
    except Exception:
        return _SKIP


#: task kernels whose payloads are deterministic data (safe to replay);
#: any other task is passed through unreplayed.
_PERMUTATION_SAFE_TASKS = frozenset(
    {"_agree_masks_task", "_distinct_masks_task", "_validate_task"}
)


def _check_shard_permutation(
    func: Callable, args: tuple, kwargs: dict, result: object
) -> None:
    """Replay ``map_chunks`` with the chunk plan reversed; results must
    restore to the same list once indexed back."""
    if kwargs or len(args) != 3:
        return  # unusual call shape: nothing to assert
    pool, task_fn, tasks = args
    if getattr(task_fn, "__name__", "") not in _PERMUTATION_SAFE_TASKS:
        return
    if getattr(pool, "is_serial", True) or len(tasks) <= 1:
        return
    snapshot = (pool.busy_seconds, pool.tasks_dispatched, pool.chunks_dispatched)
    try:
        replay = func(pool, task_fn, list(reversed(list(tasks))))
    finally:
        # the replay is a shadow dispatch: keep the accounting untouched
        pool.busy_seconds, pool.tasks_dispatched, pool.chunks_dispatched = snapshot
    # Payloads may be numpy arrays, whose == is elementwise: compare pickles.
    if _snapshot(list(reversed(replay))) != _snapshot(list(result)):
        raise ProbeViolation(
            f"map_chunks({task_fn.__name__}): dispatching the same chunk "
            "plan in reversed order changed the index-restored results — "
            "the merge is completion-order dependent, not chunk-indexed"
        )


def _segment_prefix(package: str) -> str:
    """The engine's matrix-file name prefix, read from its shm module."""
    import sys

    shm = sys.modules.get(package + ".shm")
    return getattr(shm, "MMAP_PREFIX", "repro_mmap_")


def _own_segments(prefix: str) -> set[str]:
    """Temp-directory matrix files this process created."""
    import tempfile

    marker = f"{prefix}{os.getpid()}_"
    try:
        names = os.listdir(tempfile.gettempdir())
    except OSError:  # pragma: no cover - directory vanished mid-scan
        return set()
    return {name for name in names if name.startswith(marker)}


def _pool_owned_segments(pool_type: type) -> set[str]:
    """Matrix file names some live pool still legitimately owns."""
    import gc

    owned: set[str] = set()
    for candidate in gc.get_objects():
        if not isinstance(candidate, pool_type):
            continue
        for entry in list(getattr(candidate, "_published", {}).values()):
            path = getattr(entry[1], "path", None)
            if path:
                owned.add(os.path.basename(path))
    return owned


def _check_live_resources(
    func: Callable, args: tuple, kwargs: dict, result: object
) -> None:
    """After ``close()``: the pool holds nothing, and every surviving
    own-pid matrix file belongs to some other still-open pool."""
    if kwargs or len(args) != 1:
        return
    pool = args[0]
    if getattr(pool, "_published", None):
        raise ProbeViolation(
            "WorkerPool.close: matrix publications survived close()"
        )
    if getattr(pool, "_executor", None) is not None:
        raise ProbeViolation("WorkerPool.close: the executor survived close()")
    package = type(pool).__module__.rsplit(".", 1)[0]
    leftovers = _own_segments(_segment_prefix(package))
    if not leftovers:
        return
    orphans = leftovers - _pool_owned_segments(type(pool))
    if orphans:
        raise ProbeViolation(
            "WorkerPool.close: matrix file(s) with no live owning pool "
            f"remain in the temp directory: {sorted(orphans)}"
        )


_EXIT_CHECK = {"registered": False}


def _exit_live_resources_check(module_name: str) -> None:
    """Process-exit assertion: no own-pid matrix files, balanced contexts.

    Runs after ``close_all_pools`` (registered earlier, so LIFO ordering
    runs it first).  A violation prints the probe failure and exits
    non-zero — an ``atexit`` exception alone would not fail CI.
    """
    import gc
    import sys

    gc.collect()  # run __del__ closers of directly-constructed pools
    package = module_name.rsplit(".", 1)[0]
    problems: list[str] = []
    leftovers = _own_segments(_segment_prefix(package))
    if leftovers:
        problems.append(
            f"matrix file(s) leaked past interpreter exit: "
            f"{sorted(leftovers)}"
        )
    context = sys.modules.get(package + ".context")
    stack = getattr(getattr(context, "_ACTIVE", None), "stack", None)
    if stack:
        problems.append(
            f"execution-context stack unbalanced at exit: {len(stack)} "
            "frame(s) never popped"
        )
    if problems:
        print(
            "ProbeViolation: live-resource exit check failed: "
            + "; ".join(problems),
            file=sys.stderr,
        )
        os._exit(70)


def _register_exit_check(func: Callable) -> None:
    if _EXIT_CHECK["registered"]:
        return
    _EXIT_CHECK["registered"] = True
    import atexit

    atexit.register(_exit_live_resources_check, func.__module__)


_PROBE_CHECKS: dict[str, Callable] = {
    "shard_permutation": _check_shard_permutation,
    "live_resources": _check_live_resources,
}


def probe(name: str) -> Callable:
    """Decorator factory the sanitizer injects above probed kernels."""

    def decorate(func: Callable) -> Callable:
        check = _PROBE_CHECKS.get(name)
        if check is None:
            return func
        if name == "live_resources":
            _register_exit_check(func)
        state = {"checks": 0}

        @functools.wraps(func)
        def wrapper(*args: object, **kwargs: object) -> object:
            result = func(*args, **kwargs)
            if state["checks"] < PROBE_MAX_CHECKS:
                state["checks"] += 1
                check(func, args, kwargs, result)
            return result

        return wrapper

    return decorate


def contract(
    pure: bool = False,
    mutates: tuple[str, ...] = (),
    monotone: tuple[tuple[str, str], ...] = (),
) -> Callable:
    """Decorator factory the sanitizer injects above contracted kernels."""
    allowed = set(mutates)
    allowed.update(name for name, _ in monotone)

    def decorate(func: Callable) -> Callable:
        try:
            signature = inspect.signature(func)
        except (TypeError, ValueError):  # builtins/descriptors: leave as-is
            return func
        budget = _max_checks()
        label = getattr(func, "__qualname__", getattr(func, "__name__", "?"))
        state = {"checks": 0}

        @functools.wraps(func)
        def wrapper(*args: object, **kwargs: object) -> object:
            if state["checks"] >= budget:
                return func(*args, **kwargs)
            state["checks"] += 1
            try:
                bound = signature.bind(*args, **kwargs)
            except TypeError:
                # Let the call itself raise the real signature error.
                return func(*args, **kwargs)
            frozen: list[tuple[str, object, object]] = []
            for name, value in bound.arguments.items():
                if pure or name not in allowed:
                    frozen.append((name, value, _snapshot(value)))
            monotone_members: list[tuple[str, str, object, list]] = []
            for name, probe in monotone:
                if name not in bound.arguments:
                    continue
                value = bound.arguments[name]
                members = _members(value)
                if members is not _SKIP:
                    monotone_members.append((name, probe, value, members))
            result = func(*args, **kwargs)
            for name, value, before in frozen:
                if before is _SKIP:
                    continue
                if _snapshot(value) != before:
                    raise ContractViolation(
                        f"{label}: parameter {name!r} was mutated but the "
                        "contract promises it untouched"
                    )
            for name, probe, value, members in monotone_members:
                check = getattr(value, probe, None)
                if check is None:
                    continue
                for member in members:
                    if not check(member):
                        raise ContractViolation(
                            f"{label}: Monotone contract broken — "
                            f"{name}.{probe}({member!r}) no longer holds "
                            "for a member present before the call"
                        )
            return result

        return wrapper

    return decorate
