"""Static analysis for the reproduction: lint rules & determinism audit.

The ROADMAP's mandate is aggressive refactoring toward a production-scale
system; this package is the mechanical safety net that makes that safe.
``repro-lint`` (also ``python -m repro.analysis``) walks the source tree
with six repo-specific per-file AST rules — unseeded randomness, bitmask
encapsulation, the algorithm name/kind contract, mutable defaults,
public-API annotations, numpy dtype hygiene — plus three whole-program
rules: import layering & acyclicity (RPR101), ``Pure:``/``Mutates:``
docstring contracts against inferred mutation summaries (RPR102), and
dead ``__all__`` exports (RPR103), plus three *flow-sensitive* rules
built on the CFG/dataflow layer (:mod:`repro.analysis.cfg`,
:mod:`repro.analysis.dataflow`): parallel-state escape (RPR106),
merge-order sensitivity (RPR107), and numeric-width overflow (RPR108),
and three *typestate* rules (:mod:`repro.analysis.lifecycle`) checking
the engine's must-release resource protocols — leak-on-path (RPR109),
use-after-release (RPR110), and release-order violations (RPR111) —
against ``Owns:``/``Borrows:`` ownership declarations, and metric-name
discipline (RPR112) holding every front-door call site to the central
catalog in :mod:`repro.obs.names`.
Results are memoized on content hashes (:mod:`repro.analysis.cache`;
``--no-cache`` bypasses), ``repro-lint --explain RPR107`` documents any
rule, and ``repro-lint --sanitize OUTDIR`` additionally emits a shadow
copy of the package in which every docstring contract is enforced as a
runtime assertion alongside determinism/overflow probes.  See DESIGN.md,
"Analysis & invariants", for the rule catalogue, the layer diagram, and
the suppression/baseline workflow.
"""

from .cli import explain_rule
from .engine import AnalysisResult, Finding, Module, ProjectRule, Rule, analyze
from .rules import default_rules
from .sanitize import SanitizeReport, sanitize_package

__all__ = [
    "AnalysisResult",
    "Finding",
    "Module",
    "ProjectRule",
    "Rule",
    "SanitizeReport",
    "analyze",
    "default_rules",
    "explain_rule",
    "sanitize_package",
]
