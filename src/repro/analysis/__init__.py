"""Static analysis for the reproduction: lint rules & determinism audit.

``repro-lint`` (also ``python -m repro.analysis``) walks the source tree
with repo-specific per-file AST rules — unseeded randomness, bitmask
encapsulation, the algorithm name/kind contract, mutable defaults,
public-API annotations, numpy dtype hygiene, well-formed
``Pure:``/``Mutates:``/``Monotone:`` docstring contracts (RPR102), clock
and parallelism encapsulation, metric-name discipline against the
:mod:`repro.obs.names` catalog (RPR112) and O(batch) streaming encodes —
plus two whole-program rules, import layering & acyclicity (RPR101) and
dead ``__all__`` exports (RPR103), and one flow-sensitive rule on the
CFG/dataflow layer (:mod:`repro.analysis.cfg`,
:mod:`repro.analysis.dataflow`): merge-order sensitivity (RPR107).
``repro-lint --explain RPR107`` documents any rule, and ``repro-lint
--sanitize OUTDIR`` instead emits a shadow copy of the package in which
every docstring contract is enforced as a runtime assertion alongside
the worker pool's determinism and live-resource probes.  See DESIGN.md,
"Analysis & invariants", for the rule catalogue, the layer diagram, and
the suppression pragmas.
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
