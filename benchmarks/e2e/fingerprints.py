"""The benchmark's datasets and their exact answers.

Every workload runs on one *base instance*: a registry dataset generated
at :data:`BASE_SEED`.  A run's ``--seed`` permutes the base instance's
columns, so each seed is a different input (attribute bitmasks, cluster
order, sampling tie-breaks and inversion order all change) with the same
FD set up to renaming.  Renaming a result onto the alphabetical column
order therefore gives one exact answer per dataset, valid for every
seed, whose fingerprint is committed in ``fingerprints.json``.

Run this file to regenerate that file: it computes each dataset's exact
FD set with TANE and with Fdep and refuses to write unless they agree::

    python benchmarks/e2e/fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import Relation, create
from repro.core import DiscoveryResult
from repro.datasets import registry
from repro.engine import ExecutionContext, use_context
from repro.fd import attrset

BASE_SEED = 5
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

CanonicalFDs = frozenset[tuple[int, int]]
"""An FD set as ``(lhs_mask, rhs)`` pairs over the alphabetical column order."""


@dataclass(frozen=True)
class Dataset:
    """A registry dataset at a fixed size, generated at :data:`BASE_SEED`."""

    name: str
    rows: int
    columns: int | None = None  # None: the dataset's fixed schema

    @property
    def key(self) -> str:
        width = "" if self.columns is None else f"x{self.columns}"
        return f"{self.name}[{self.rows}{width}]@{BASE_SEED}"

    def base(self) -> Relation:
        return registry.make(
            self.name, rows=self.rows, columns=self.columns, seed=BASE_SEED
        )

    def make(self, seed: int) -> Relation:
        """The base instance with its columns permuted by ``seed``."""
        base = self.base()
        order = list(range(base.num_columns))
        random.Random(seed).shuffle(order)
        return Relation(
            tuple(base.column_names[i] for i in order),
            tuple(base.columns[i] for i in order),
            base.name,
        )


#: The dataset behind each role, per scale.  ``smoke`` is a seconds-long
#: miniature of ``full`` for the self-test.  The stream relation is the
#: append-stream's base rows followed by its appended batches.
SCALES: dict[str, dict[str, Dataset]] = {
    "full": {
        "wide": Dataset("fd-reduced-30", 2000, 30),
        "tall": Dataset("lineitem", 20000),
        "plista": Dataset("plista", 300, 20),
        "stream": Dataset("fd-reduced-30", 2076, 30),
    },
    "smoke": {
        "wide": Dataset("fd-reduced-30", 500, 15),
        "tall": Dataset("lineitem", 2000),
        "plista": Dataset("plista", 100, 20),
        "stream": Dataset("fd-reduced-30", 264, 15),
    },
}


def canonical(result: DiscoveryResult) -> CanonicalFDs:
    """``result``'s FDs over the alphabetical order of its column names.

    Every seed's schema permutation renames to the same canonical set.
    """
    position = {name: i for i, name in enumerate(sorted(result.column_names))}
    renamed = [position[name] for name in result.column_names]
    return frozenset(
        (
            attrset.from_indices(renamed[i] for i in fd.lhs_indices),
            renamed[fd.rhs],
        )
        for fd in result.fds
    )


def fingerprint(fds: CanonicalFDs) -> dict[str, object]:
    """``fd_count`` and the sha256 of the sorted ``"lhs_mask rhs"`` lines."""
    lines = "\n".join(f"{lhs} {rhs}" for lhs, rhs in sorted(fds))
    return {
        "fd_count": len(fds),
        "sha256": hashlib.sha256(lines.encode()).hexdigest(),
    }


def committed(dataset: Dataset) -> dict[str, object]:
    """The committed fingerprint of ``dataset``'s exact FD set."""
    return json.loads(FINGERPRINTS.read_text())[dataset.key]


def accuracy(found: CanonicalFDs, exact: CanonicalFDs) -> dict[str, float]:
    """Precision, recall and F1 of ``found`` against ``exact`` (Sec. V-B)."""
    hits = len(found & exact)
    precision = hits / len(found) if found else float(not exact)
    recall = hits / len(exact) if exact else 1.0
    total = precision + recall
    f1 = 2 * precision * recall / total if total else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def is_antichain(fds: CanonicalFDs, num_attributes: int) -> bool:
    """True when no LHS is a strict subset of another LHS with its RHS.

    EulerFD's output must be a set of *minimal* FDs, so for every RHS
    the LHS masks form an antichain.  Masks are tested as one uint64
    block per RHS, which needs at most 64 attributes.
    """
    if num_attributes > 64:
        raise ValueError("antichain check supports at most 64 attributes")
    by_rhs: dict[int, list[int]] = {}
    for lhs, rhs in fds:
        by_rhs.setdefault(rhs, []).append(lhs)
    for masks in by_rhs.values():
        block = np.array(sorted(masks), dtype=np.uint64)
        for start in range(0, block.size, 256):
            rows = block[start : start + 256, None]
            # inside[i, j]: block[j] is a subset of rows[i]
            inside = (block[None, :] & ~rows) == 0
            if int(inside.sum()) != rows.shape[0]:  # only the diagonal
                return False
    return True


def exact_fds(relation: Relation) -> CanonicalFDs:
    """The exact FD set by TANE, the independent oracle."""
    return canonical(create("tane").discover(relation))


def main() -> int:
    datasets = {d.key: d for scale in SCALES.values() for d in scale.values()}
    table: dict[str, dict[str, object]] = {}
    for dataset in datasets.values():
        base = dataset.base()
        tane = exact_fds(base)
        context = ExecutionContext(base, jobs="process:2")
        with use_context(context):
            fdep = canonical(create("fdep").discover(base))
        if tane != fdep:
            print(f"{dataset.key}: TANE and Fdep disagree", file=sys.stderr)
            return 1
        table[dataset.key] = fingerprint(tane)
        print(f"{dataset.key}: {table[dataset.key]}", flush=True)
    FINGERPRINTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
