"""``repro.engine`` — the shared execution layer (DESIGN.md §8).

One :class:`ExecutionContext` per relation mediates all partition and
validation work behind a pluggable :class:`Backend`:

* :class:`PartitionStore` — LRU-cached stripped partitions keyed by
  attribute set, derived by partition product from the cheapest cached
  parent pair instead of recomputed from columns;
* :meth:`ExecutionContext.validate_many` — batched candidate validation
  that folds group keys once per distinct LHS and reuses them across
  RHSs;
* :class:`NumpyBackend` / :class:`PythonBackend` — the vectorized
  kernels over the narrow row-major label matrix and a dict-based
  pure-Python oracle, selectable per call, via ``--backend`` on the CLIs,
  or the ``REPRO_BACKEND`` environment variable;
* :class:`WorkerPool` (:mod:`repro.engine.parallel`) — the agree-set
  sweeps and validation sharded across a process pool of N workers (1
  runs inline), selected via ``--jobs`` on the CLIs or the
  ``REPRO_JOBS`` environment variable, with the label matrix written
  once to a memory-mapped temp file that each worker task maps without
  any copy (:mod:`repro.engine.shm`); chunk plans are fixed and merges
  happen by chunk index, so results are byte-identical at any worker
  count.

Callers running several algorithms over one dataset install a shared
context with :func:`use_context`; ``discover(relation)`` implementations
resolve it through :func:`acquire_context` and keep their signature.
"""

from .backends import (
    BACKEND_ENV,
    Backend,
    NumpyBackend,
    PythonBackend,
    backend_names,
    get_backend,
)
from .context import (
    ExecutionContext,
    Validation,
    acquire_context,
    current_context,
    use_context,
)
from .parallel import (
    JOBS_ENV,
    WorkerPool,
    agree_masks_sharded,
    close_all_pools,
    distinct_agree_masks_sharded,
    get_pool,
    resolve_jobs,
)
from .store import DEFAULT_CACHE_SIZE, PartitionStore

__all__ = [
    "BACKEND_ENV",
    "Backend",
    "DEFAULT_CACHE_SIZE",
    "ExecutionContext",
    "JOBS_ENV",
    "NumpyBackend",
    "PartitionStore",
    "PythonBackend",
    "Validation",
    "WorkerPool",
    "acquire_context",
    "agree_masks_sharded",
    "backend_names",
    "close_all_pools",
    "current_context",
    "distinct_agree_masks_sharded",
    "get_backend",
    "get_pool",
    "resolve_jobs",
    "use_context",
]
