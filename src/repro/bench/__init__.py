"""Experiment harness: one module per table/figure of Section V.

See DESIGN.md §3 for the experiment index mapping each module to its
paper artifact and `benchmarks/` target.
"""

from . import ablation, dms, overall, parameters, scalability
from .runner import (
    AlgorithmRun,
    GroundTruthCache,
    default_algorithms,
    print_table,
    run_algorithm,
)

__all__ = [
    "AlgorithmRun",
    "GroundTruthCache",
    "ablation",
    "default_algorithms",
    "dms",
    "overall",
    "parameters",
    "print_table",
    "run_algorithm",
    "scalability",
]
