"""The central name catalog (DESIGN.md §7).

Every name passed to a front-door call — each phase, counter, gauge and
series — is declared here exactly once, as a module-level constant, with
its help line in :data:`CATALOG`.  Instrumented code imports the
constant; the lint rule RPR112 (metric-name discipline) flags front-door
calls that pass ad-hoc string literals instead.  Centralizing the names
buys three things:

* exporters (Prometheus, JSONL) can attach stable ``# HELP`` text;
* renames are one-line diffs instead of greps across layers;
* dashboards and traces can rely on the spelling.

A phase name is not itself a metric: the front door derives the
registry histogram :func:`phase_seconds` and the memory gauge
:func:`phase_peak_bytes` from it, and :func:`metric_help` derives their
help text from the phase's.

The catalog is *descriptive*, not enforced at runtime — the sinks accept
any name so tests and third-party extensions stay free to record their
own series.  Discipline is static (RPR112) by design.
"""

from __future__ import annotations

# -- engine: partition store ---------------------------------------------------

PARTITION_CACHE_HIT = "engine.partition_cache.hit"
PARTITION_CACHE_MISS = "engine.partition_cache.miss"
PARTITION_CACHE_DERIVE = "engine.partition_cache.derive"
PARTITION_CACHE_EVICT = "engine.partition_cache.evict"
PARTITION_CACHE_RESIDENT_BYTES = "engine.partition_cache.resident_bytes"
PARTITION_CACHE_EVICTED_BYTES = "engine.partition_cache.evicted_bytes"

# -- engine: validation front door --------------------------------------------

VALIDATE_CANDIDATES = "engine.validate.candidates"
VALIDATE_LHS_FOLDS = "engine.validate.lhs_folds"

# -- engine: worker pool and matrix transport ---------------------------------

POOL_BUSY_SECONDS = "engine.parallel.busy_seconds"
POOL_TASKS = "engine.parallel.tasks"
POOL_CHUNKS = "engine.parallel.chunks"
POOL_QUEUE_DEPTH = "engine.parallel.queue_depth"
POOL_WORKERS = "engine.parallel.workers"
MMAP_FILES = "engine.mmap.files"
MMAP_BYTES = "engine.mmap.bytes"

# -- covers --------------------------------------------------------------------

NCOVER_ADDED = "ncover.added"
NCOVER_GENERALIZATIONS_EVICTED = "ncover.generalizations_evicted"
PCOVER_ADDED = "pcover.added"
PCOVER_REMOVED = "pcover.removed"

# -- EulerFD core --------------------------------------------------------------

GR_NCOVER = "gr_ncover"
GR_PCOVER = "gr_pcover"
INVERTER_NON_FDS_INVERTED = "inverter.non_fds_inverted"
INVERTER_CANDIDATES_REMOVED = "inverter.candidates_removed"
INVERTER_CANDIDATES_ADDED = "inverter.candidates_added"
INCREMENTAL_PAIRS_COMPARED = "incremental.pairs_compared"
INCREMENTAL_ROWS_TOTAL = "incremental.rows.total"
SAMPLER_PASSES = "sampler.passes"
SAMPLER_CLUSTER_VISITS = "sampler.cluster_visits"
SAMPLER_PAIRS_COMPARED = "sampler.pairs_compared"
SAMPLER_NEW_NON_FDS = "sampler.new_non_fds"
SAMPLER_REVIVED_CLUSTERS = "sampler.revived_clusters"
SAMPLER_WINDOW_HITS = "sampler.window_hits"
MLFQ_PROMOTIONS = "mlfq.promotions"
MLFQ_DEMOTIONS = "mlfq.demotions"
MLFQ_OCCUPANCY = "mlfq.occupancy"

# -- baseline algorithms -------------------------------------------------------

TANE_VALIDATIONS = "tane.validations"
HYFD_PAIRS_COMPARED = "hyfd.pairs_compared"
HYFD_VALIDATIONS = "hyfd.validations"
HYFD_VIOLATED_CANDIDATES = "hyfd.violated_candidates"
AIDFD_PAIRS_COMPARED = "aidfd.pairs_compared"

# -- phases: each derives phase.<name>.seconds and mem.phase.<name>.peak_bytes --

DISCOVER = "discover"
PREPROCESS = "preprocess"
APPEND_ROWS = "append_rows"
VALIDATE_MANY = "validate_many"
POOL_MAP = "engine.parallel.map"
CYCLE = "cycle"
SAMPLING = "sampling"
NCOVER = "ncover"
INVERSION = "inversion"
VALIDATION = "validation"
AGREE_SETS = "agree_sets"
TANE_LEVEL = "level"
PROFILE_BASE = "profile_base"
APPEND = "append"
APPEND_COMPARE = "append_compare"
APPEND_SNAPSHOT = "append_snapshot"

CATALOG: dict[str, str] = {
    PARTITION_CACHE_HIT: "Partition-store lookups served from cache",
    PARTITION_CACHE_MISS: "Partition-store lookups that required derivation",
    PARTITION_CACHE_DERIVE: "Stripped-partition products performed",
    PARTITION_CACHE_EVICT: "Partition-store entries evicted by the LRU",
    PARTITION_CACHE_RESIDENT_BYTES: "Estimated bytes held by the partition store (pinned included)",
    PARTITION_CACHE_EVICTED_BYTES: "Estimated bytes released by partition-store evictions",
    VALIDATE_CANDIDATES: "FD candidates submitted to validate_many",
    VALIDATE_LHS_FOLDS: "Candidate groups after LHS folding",
    POOL_BUSY_SECONDS: "Summed worker-side busy seconds",
    POOL_TASKS: "Worker-pool dispatches (one map_chunks call)",
    POOL_CHUNKS: "Chunks fanned out across all dispatches",
    POOL_QUEUE_DEPTH: "Chunks awaiting completion in the current dispatch",
    POOL_WORKERS: "Workers configured on the active pool",
    MMAP_FILES: "Live mmap-backed label-matrix files published by this process",
    MMAP_BYTES: "Bytes written to live mmap-backed label-matrix files",
    NCOVER_ADDED: "Non-FDs admitted to the negative cover",
    NCOVER_GENERALIZATIONS_EVICTED: "Generalizations evicted on non-FD insert",
    PCOVER_ADDED: "FDs admitted to the positive cover",
    PCOVER_REMOVED: "FDs removed from the positive cover",
    GR_NCOVER: "Negative-cover growth rate per sampling round",
    GR_PCOVER: "Positive-cover growth rate per inversion cycle",
    INVERTER_NON_FDS_INVERTED: "Non-FDs processed by cover inversion",
    INVERTER_CANDIDATES_REMOVED: "Candidates removed during inversion",
    INVERTER_CANDIDATES_ADDED: "Specialized candidates added during inversion",
    INCREMENTAL_PAIRS_COMPARED: "Row pairs compared by incremental updates",
    INCREMENTAL_ROWS_TOTAL: "Rows ingested through the incremental append path",
    SAMPLER_PASSES: "MLFQ sampling passes executed",
    SAMPLER_CLUSTER_VISITS: "Cluster visits across sampling passes",
    SAMPLER_PAIRS_COMPARED: "Row pairs compared by the sampler",
    SAMPLER_NEW_NON_FDS: "New non-FDs found by sampling",
    SAMPLER_REVIVED_CLUSTERS: "Retired clusters revived for a new cycle",
    SAMPLER_WINDOW_HITS: "Neighborhood-window comparisons that found a violation",
    MLFQ_PROMOTIONS: "Cluster promotions in the multi-level feedback queue",
    MLFQ_DEMOTIONS: "Cluster demotions in the multi-level feedback queue",
    MLFQ_OCCUPANCY: "Clusters resident in the MLFQ after a pass",
    TANE_VALIDATIONS: "Partition-based validations performed by Tane",
    HYFD_PAIRS_COMPARED: "Row pairs compared by HyFD sampling",
    HYFD_VALIDATIONS: "Candidate validations performed by HyFD",
    HYFD_VIOLATED_CANDIDATES: "HyFD candidates refuted by validation",
    AIDFD_PAIRS_COMPARED: "Row pairs swept by AID-FD",
    DISCOVER: "One algorithm run, from relation to FD set",
    PREPROCESS: "Label-matrix encoding of a relation",
    APPEND_ROWS: "Encoding an appended batch and resetting the partition store",
    VALIDATE_MANY: "One batch of candidate FDs validated against the relation",
    POOL_MAP: "One worker-pool dispatch, from submit to the last result",
    CYCLE: "One EulerFD double cycle: sampling rounds, then one inversion",
    SAMPLING: "One sampling pass (EulerFD) or sampling round (HyFD, AID-FD)",
    NCOVER: "Admitting one round's sampled non-FDs to the negative cover",
    INVERSION: "Inverting new non-FDs into the positive cover",
    VALIDATION: "One HyFD validation round over the candidate cover",
    AGREE_SETS: "Fdep's all-pairs agree sets",
    TANE_LEVEL: "One Tane lattice level",
    PROFILE_BASE: "The incremental profiler's base-relation profile",
    APPEND: "One incremental append, up to the refreshed result",
    APPEND_COMPARE: "Comparing an append's new rows with their cluster-mates",
    APPEND_SNAPSHOT: "Freezing the live FD set into an append's result",
}
"""Every catalogued name mapped to its one-line help text."""


def phase_seconds(phase: str) -> str:
    """The registry histogram a phase's wall times are observed into.

    Pure: string formatting only.
    """
    return f"phase.{phase}.seconds"


def phase_peak_bytes(phase: str) -> str:
    """The registry max-gauge a phase's tracemalloc peak lands on.

    Pure: string formatting only.
    """
    return f"mem.phase.{phase}.peak_bytes"


_DERIVED = (
    ("phase.", ".seconds", "Wall seconds per phase: "),
    ("mem.phase.", ".peak_bytes", "Peak tracemalloc delta inside phase: "),
)


def metric_help(name: str) -> str:
    """The help line for ``name`` (empty for uncatalogued names).

    A derived phase metric borrows its phase's catalog line.

    Pure: dictionary lookups and string slicing.
    """
    for prefix, suffix, lead in _DERIVED:
        if name.startswith(prefix) and name.endswith(suffix):
            phase = name[len(prefix) : -len(suffix)]
            if phase in CATALOG:
                return lead + CATALOG[phase]
    return CATALOG.get(name, "")
