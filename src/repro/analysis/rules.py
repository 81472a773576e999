"""The repo-specific rules enforced by ``repro-lint``.

Each rule mechanically guards one invariant the EulerFD reproduction
depends on for its results to replicate (see DESIGN.md, "Analysis &
invariants"):

========  =====================================================
RPR001    determinism — no unseeded randomness, no hash-ordered
          iteration feeding FD output paths
RPR002    bitmask encapsulation — shift arithmetic on attribute
          masks belongs in ``fd/attrset.py`` or a declared kernel
RPR003    algorithm contract — algorithms declare ``name``,
          ``kind`` ("exact" / "approximate") and ``discover``
RPR004    no mutable default arguments
RPR005    exported functions carry full type annotations
RPR006    numpy constructions in ``relation/`` pin ``dtype=``
RPR102    contract declarations — every ``Pure:``/``Mutates:``/
          ``Monotone:`` docstring contract parses and names only
          real parameters (``--sanitize`` enforces what it says)
RPR104    clock discipline — outside ``obs``/``metrics``, wall
          time comes from ``repro.obs`` (monotonic/Clock), not
          direct ``time.time()``/``time.perf_counter()`` calls
RPR105    parallelism encapsulation — ``multiprocessing`` and
          ``concurrent.futures`` are imported only by
          ``engine/parallel.py`` and ``engine/shm.py``; everyone
          else goes through the :class:`WorkerPool` API
RPR114    streaming-encode discipline — no full ``preprocess()``
          re-encodes in ``core``/``engine`` outside the cold-start
          site (``engine/context.py``); append paths stay O(batch)
========  =====================================================

The whole-program rules (RPR101 import layering, RPR103 dead public
exports) live in :mod:`repro.analysis.project_rules`, and RPR107
(merge-order sensitivity) in :mod:`repro.analysis.dataflow_rules`; all
are registered here so ``default_rules()`` stays the single catalogue.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from .contracts import iter_contracted_functions
from .engine import Finding, Module, Rule

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

#: ``random``-module functions that draw from the shared global RNG.
_GLOBAL_RNG_FUNCTIONS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "shuffle",
        "choice",
        "choices",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "paretovariate",
        "vonmisesvariate",
        "weibullvariate",
        "lognormvariate",
    }
)


def _is_module(node: ast.expr, *names: str) -> bool:
    return isinstance(node, ast.Name) and node.id in names


class DeterminismRule(Rule):
    """RPR001 — every random draw must be seeded, every FD-facing
    iteration must have a defined order.

    The paper's accuracy/runtime tables only replicate when a fixed seed
    fully determines the discovery path; the global ``random`` RNG and
    ``PYTHONHASHSEED``-dependent set ordering both break that silently.
    """

    code = "RPR001"
    name = "determinism"
    rationale = (
        "unseeded randomness or hash-ordered iteration makes discovery "
        "results irreproducible across runs and interpreters"
    )
    interests = (ast.Call, ast.For, *_COMPREHENSIONS)

    #: packages whose iteration order feeds FD output paths
    _ORDERED_PACKAGES = ("core", "algorithms", "fd")

    def visit(self, node: ast.AST, module: Module) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            yield from self._check_call(node, module)
        elif isinstance(node, ast.For):
            yield from self._check_iteration(node.iter, module)
        elif isinstance(node, _COMPREHENSIONS):
            for generator in node.generators:
                yield from self._check_iteration(generator.iter, module)

    def _check_call(self, node: ast.Call, module: Module) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        # random.shuffle(...), random.random(), ... — the global RNG.
        if _is_module(func.value, "random") and func.attr in _GLOBAL_RNG_FUNCTIONS:
            yield self.finding(
                module,
                node,
                f"call to global-RNG random.{func.attr}(); construct a "
                "seeded random.Random(seed) instead",
            )
            return
        # random.Random() with no seed argument.
        if (
            _is_module(func.value, "random")
            and func.attr == "Random"
            and not node.args
            and not node.keywords
        ):
            yield self.finding(
                module,
                node,
                "random.Random() constructed without an explicit seed",
            )
            return
        # numpy's global RNG: np.random.<anything>, and the modern
        # default_rng() when called seedless.
        value = func.value
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and _is_module(value.value, "np", "numpy")
        ):
            if func.attr == "default_rng" and (node.args or node.keywords):
                return  # seeded generator: fine
            yield self.finding(
                module,
                node,
                f"numpy.random.{func.attr}() draws from global/unseeded "
                "state; pass an explicit seed",
            )

    def _check_iteration(self, source: ast.expr, module: Module) -> Iterator[Finding]:
        if not module.in_packages(*self._ORDERED_PACKAGES):
            return
        if isinstance(source, ast.Set):
            yield self.finding(
                module,
                source,
                "iteration over a set literal: order depends on "
                "PYTHONHASHSEED; sort explicitly",
            )
        elif isinstance(source, ast.Call):
            func = source.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                yield self.finding(
                    module,
                    source,
                    f"iteration over {func.id}(...): order depends on "
                    "PYTHONHASHSEED; sort explicitly",
                )
            elif isinstance(func, ast.Attribute) and func.attr == "keys":
                yield self.finding(
                    module,
                    source,
                    "iteration over .keys(): iterate the mapping in an "
                    "explicit (sorted or insertion) order instead",
                )


class BitmaskEncapsulationRule(Rule):
    """RPR002 — attribute-mask shift arithmetic lives in ``fd/attrset.py``.

    ``attrset`` names every mask idiom (``singleton``, ``contains``,
    ``lowest_bit`` …).  Plain ``&``/``|`` unions and intersections are the
    documented convention and stay legal everywhere, but raw ``<<``/``>>``
    index-to-mask conversion outside the kernel hides the encoding and is
    where off-by-one and sign bugs creep in during refactors.  Hot-loop
    modules may opt out with ``# repro-lint: disable-file=RPR002`` plus a
    justification comment.
    """

    code = "RPR002"
    name = "bitmask-encapsulation"
    rationale = (
        "raw shift arithmetic on attribute masks outside fd/attrset.py "
        "bypasses the bitmask encapsulation layer"
    )
    interests = (ast.BinOp, ast.AugAssign)

    def visit(self, node: ast.AST, module: Module) -> Iterator[Finding]:
        if module.relpath.endswith("attrset.py"):
            return
        if isinstance(node, ast.BinOp):
            op, left, right = node.op, node.left, node.right
        else:
            assert isinstance(node, ast.AugAssign)
            op, left, right = node.op, node.target, node.value
        if not isinstance(op, (ast.LShift, ast.RShift)):
            return
        # Constant << constant is a plain numeric literal (e.g. a size
        # limit), not attribute-mask arithmetic.
        if isinstance(left, ast.Constant) and isinstance(right, ast.Constant):
            return
        symbol = "<<" if isinstance(op, ast.LShift) else ">>"
        yield self.finding(
            module,
            node,
            f"raw `{symbol}` on an attribute mask; use the fd.attrset "
            "helpers (singleton/contains/...) or declare the module a "
            "mask kernel",
        )


class AlgorithmContractRule(Rule):
    """RPR003 — every discovery algorithm declares its contract.

    Public classes in ``algorithms/`` exposing ``discover`` must satisfy
    the :class:`repro.algorithms.base.FDAlgorithm` protocol: a ``name``
    string and a ``kind`` of ``"exact"`` or ``"approximate"``, so
    benchmarks and metrics can refuse to score an approximate result as
    ground truth.
    """

    code = "RPR003"
    name = "algorithm-contract"
    rationale = (
        "algorithms missing name/kind declarations break the benchmark "
        "harness's exact-vs-approximate accounting"
    )
    _KINDS = ("exact", "approximate")

    def check_module(self, module: Module) -> Iterator[Finding]:
        if not module.in_packages("algorithms"):
            return
        if Path(module.relpath).name in {"base.py", "__init__.py"}:
            return
        for statement in module.tree.body:
            if not isinstance(statement, ast.ClassDef):
                continue
            if statement.name.startswith("_"):
                continue
            methods = {
                item.name
                for item in statement.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "discover" not in methods:
                continue  # helper/value classes are not algorithms
            declared = self._class_constants(statement)
            if "name" not in declared:
                yield self.finding(
                    module,
                    statement,
                    f"algorithm class {statement.name} does not declare a "
                    "`name` string",
                )
            kind = declared.get("kind")
            if kind is None:
                yield self.finding(
                    module,
                    statement,
                    f"algorithm class {statement.name} must declare "
                    '`kind = "exact"` or `kind = "approximate"`',
                )
            elif kind not in self._KINDS:
                yield self.finding(
                    module,
                    statement,
                    f"algorithm class {statement.name} declares kind="
                    f"{kind!r}; expected one of {self._KINDS}",
                )

    @staticmethod
    def _class_constants(cls: ast.ClassDef) -> dict[str, object]:
        constants: dict[str, object] = {}
        for item in cls.body:
            if isinstance(item, ast.Assign):
                targets = item.targets
                value = item.value
            elif isinstance(item, ast.AnnAssign) and item.value is not None:
                targets = [item.target]
                value = item.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = (
                        value.value if isinstance(value, ast.Constant) else Ellipsis
                    )
        return constants


class MutableDefaultRule(Rule):
    """RPR004 — no mutable default arguments.

    A ``def f(cache={})`` default is evaluated once at definition time
    and silently shared across calls — state leaking between discovery
    runs is exactly the kind of bug the determinism audit exists to stop.
    """

    code = "RPR004"
    name = "mutable-default"
    rationale = "mutable defaults are shared across calls and leak state"
    interests = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "deque"})

    def visit(self, node: ast.AST, module: Module) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        arguments = node.args
        defaults = list(arguments.defaults) + [
            default for default in arguments.kw_defaults if default is not None
        ]
        label = getattr(node, "name", "<lambda>")
        for default in defaults:
            if self._is_mutable(default):
                yield self.finding(
                    module,
                    default,
                    f"mutable default argument in {label}(); default to "
                    "None and construct inside the body",
                )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, *_COMPREHENSIONS)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
        )


class PurityContractRule(Rule):
    """RPR102 — docstring contracts are well formed.

    The double-cycle's correctness arguments assume ``product`` and the
    cover query paths are read-only and that the negative cover only
    grows; those promises are ``Pure:``/``Mutates:``/``Monotone:`` lines
    (:mod:`repro.analysis.contracts`) that ``--sanitize`` turns into
    runtime assertions.  A contract that does not parse is skipped by
    the sanitizer, and one naming a parameter the function no longer has
    asserts nothing about it, so both are flagged here.
    """

    code = "RPR102"
    name = "purity-contracts"
    rationale = (
        "Pure:/Mutates:/Monotone: docstring contracts must parse and name "
        "only real parameters, or the sanitized build cannot enforce them"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        for function in iter_contracted_functions(module.tree):
            contract = function.contract
            for error in contract.errors:
                yield self.finding(
                    module, function.node, f"{function.qualname}: {error}"
                )
            if contract.errors:
                continue
            unknown = sorted(contract.named_params() - set(function.params))
            if unknown:
                yield self.finding(
                    module,
                    function.node,
                    f"{function.qualname}: contract names "
                    f"{', '.join(repr(name) for name in unknown)} which "
                    "is not a parameter",
                )


class PublicApiAnnotationRule(Rule):
    """RPR005 — exported functions carry full annotations.

    A function is *exported* when a package ``__init__.py`` lists it in
    ``__all__`` (directly or re-exported through a chain of packages).
    Exported signatures are the refactoring contract; full parameter and
    return annotations keep them checkable.
    """

    code = "RPR005"
    name = "public-api-annotations"
    rationale = (
        "unannotated exported functions make the public API contract "
        "unverifiable by type checkers"
    )

    def __init__(self) -> None:
        # scan-base dir -> {module relpath -> {function names exported}}
        self._export_cache: dict[Path, dict[str, set[str]]] = {}

    def check_module(self, module: Module) -> Iterator[Finding]:
        base = self._scan_base(module)
        exports = self._export_cache.get(base)
        if exports is None:
            exports = _build_export_map(base)
            self._export_cache[base] = exports
        exported_here = exports.get(module.relpath)
        if not exported_here:
            return
        for statement in module.tree.body:
            if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if statement.name not in exported_here:
                continue
            yield from self._check_signature(statement, module)

    @staticmethod
    def _scan_base(module: Module) -> Path:
        path = module.path
        for _ in module.relpath.split("/"):
            path = path.parent
        return path

    def _check_signature(
        self, function: ast.FunctionDef | ast.AsyncFunctionDef, module: Module
    ) -> Iterator[Finding]:
        arguments = function.args
        positional = arguments.posonlyargs + arguments.args
        missing = [
            argument.arg
            for argument in (*positional, *arguments.kwonlyargs)
            if argument.annotation is None and argument.arg not in ("self", "cls")
        ]
        for variadic in (arguments.vararg, arguments.kwarg):
            if variadic is not None and variadic.annotation is None:
                missing.append(variadic.arg)
        if missing:
            yield self.finding(
                module,
                function,
                f"exported function {function.name}() has unannotated "
                f"parameter(s): {', '.join(missing)}",
            )
        if function.returns is None:
            yield self.finding(
                module,
                function,
                f"exported function {function.name}() has no return "
                "annotation",
            )


class NumpyDtypeRule(Rule):
    """RPR006 — numpy constructions in ``relation/`` pin their dtype.

    The label matrices and partition arrays are the substrate every
    algorithm compares on; letting numpy infer a platform-dependent
    default (``int32`` on Windows, ``int64`` elsewhere) is a silent
    cross-platform divergence in overflow and hashing behaviour.
    """

    code = "RPR006"
    name = "numpy-dtype"
    rationale = (
        "dtype inference differs across platforms; relation arrays must "
        "pin an explicit dtype"
    )
    interests = (ast.Call,)

    _CONSTRUCTORS = frozenset({"array", "empty", "zeros", "ones", "full", "arange"})

    def visit(self, node: ast.AST, module: Module) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not module.in_packages("relation"):
            return
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in self._CONSTRUCTORS
            and _is_module(func.value, "np", "numpy")
        ):
            return
        if any(keyword.arg == "dtype" for keyword in node.keywords):
            return
        yield self.finding(
            module,
            node,
            f"np.{func.attr}(...) without an explicit dtype=; dtype "
            "inference is platform-dependent",
        )


class ClockDisciplineRule(Rule):
    """RPR104 — wall time flows through ``repro.obs``.

    The observability layer injects its clock (``SystemClock`` in
    production, ``FakeClock`` in tests) so every recorded duration is
    attributable and testable.  A stray ``time.perf_counter()`` in an
    algorithm produces timings no trace can see and no fake clock can
    control; ``repro.obs.monotonic`` (or an injected ``Clock``) is the
    sanctioned source.  ``obs`` itself and ``metrics`` (whose ``timed``
    benchmarks the real clock by design) are exempt, as is the isolated
    ``analysis`` package, which may not import ``obs``.
    """

    code = "RPR104"
    name = "clock-discipline"
    rationale = (
        "direct time.time()/time.perf_counter() calls outside repro.obs "
        "and repro.metrics bypass clock injection and make timings "
        "untraceable and untestable"
    )
    interests = (ast.Call,)

    _EXEMPT_PACKAGES = ("obs", "metrics", "analysis")
    _CLOCK_FUNCTIONS = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
        }
    )

    def visit(self, node: ast.AST, module: Module) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if module.in_packages(*self._EXEMPT_PACKAGES):
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._CLOCK_FUNCTIONS
            and _is_module(func.value, "time")
        ):
            yield self.finding(
                module,
                node,
                f"direct time.{func.attr}() call; use repro.obs.monotonic "
                "or an injected Clock so timings stay traceable and "
                "fake-clock testable",
            )


class MetricNameDisciplineRule(Rule):
    """RPR112 — front-door names come from the central catalog.

    Every phase, counter, gauge and series name is declared once in
    :mod:`repro.obs.names` with its help text; exporters, dashboards and
    traces rely on those spellings, and a phase name also spells its
    derived ``phase.<name>.seconds`` histogram.  A string literal at a
    front-door call site drifts silently — a typo mints a parallel
    metric nobody scrapes — so instrumented code must pass the imported
    constant instead (mirroring RPR104's clock discipline).  ``obs``
    itself (which defines the catalog and the front door) and the
    isolated ``analysis`` package are exempt.
    """

    code = "RPR112"
    name = "metric-name-discipline"
    rationale = (
        "ad-hoc name string literals at phase/count/gauge/gauge_add/"
        "point call sites bypass the repro.obs.names catalog; a typo "
        "silently mints an uncatalogued metric with no help text that "
        "exporters and dashboards never see"
    )
    example = (
        'count("sampler.passes")         # RPR112: ad-hoc literal\n'
        "count(SAMPLER_PASSES)           # constant from repro.obs.names"
    )
    interests = (ast.Call,)

    _EXEMPT_PACKAGES = ("obs", "analysis")
    _HELPERS = frozenset({"phase", "count", "gauge", "gauge_add", "point"})

    def visit(self, node: ast.AST, module: Module) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if module.in_packages(*self._EXEMPT_PACKAGES):
            return
        func = node.func
        if isinstance(func, ast.Name):
            helper = func.id
        elif isinstance(func, ast.Attribute) and _is_module(func.value, "obs"):
            helper = func.attr
        else:
            return
        if helper not in self._HELPERS or not node.args:
            return
        name_arg = node.args[0]
        is_literal = (
            isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)
        ) or isinstance(name_arg, ast.JoinedStr)
        if is_literal:
            rendered = (
                f'"{name_arg.value}"'
                if isinstance(name_arg, ast.Constant)
                else "an f-string"
            )
            yield self.finding(
                module,
                node,
                f"{helper}() called with {rendered}, an ad-hoc metric "
                "name; import the constant from repro.obs.names so the "
                "catalog stays the single source of metric spellings",
            )


class ParallelismEncapsulationRule(Rule):
    """RPR105 — concurrency primitives stay behind the worker pool.

    The determinism guarantee of the parallel engine (fixed chunk plans,
    merge by chunk index, stateful merges on the coordinator) only holds
    because every fan-out goes through :class:`repro.engine.WorkerPool`.
    A stray ``ProcessPoolExecutor`` in an algorithm would reintroduce
    completion-order nondeterminism and dodge the pool's matrix-transport
    lifecycle and telemetry, so raw ``multiprocessing`` /
    ``concurrent.futures`` imports are confined to the two modules that
    implement the pool and its transport: ``engine/parallel.py`` and
    ``engine/shm.py``.
    """

    code = "RPR105"
    name = "parallelism-encapsulation"
    rationale = (
        "raw multiprocessing/concurrent.futures imports outside "
        "engine/parallel.py and engine/shm.py bypass the worker pool's "
        "determinism and matrix-transport lifecycle guarantees"
    )
    interests = (ast.Import, ast.ImportFrom)

    _ALLOWED_FILES = ("engine/parallel.py", "engine/shm.py")
    _FORBIDDEN_ROOTS = frozenset({"multiprocessing", "concurrent"})

    def visit(self, node: ast.AST, module: Module) -> Iterator[Finding]:
        if module.relpath.endswith(self._ALLOWED_FILES):
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            assert isinstance(node, ast.ImportFrom)
            if node.level >= 1 or node.module is None:
                return  # relative imports never reach the stdlib
            names = [node.module]
        for name in names:
            if name.partition(".")[0] in self._FORBIDDEN_ROOTS:
                yield self.finding(
                    module,
                    node,
                    f"import of {name!r} outside the parallel engine; use "
                    "repro.engine.WorkerPool (get_pool/--jobs) so fan-out "
                    "stays deterministic and pooled",
                )


class StreamingEncodeDisciplineRule(Rule):
    """RPR114 — streaming paths never re-encode the whole relation.

    The delta execution engine (DESIGN.md §12) makes appends O(batch):
    ``PreprocessedRelation.append_rows`` extends the label dictionaries,
    the label matrix and the label → rows lists in place, and
    ``PartitionStore.apply_delta`` drops what the store built.  One
    stray ``preprocess(...)`` call on an append path silently
    reinstates the O(N) full re-encode the engine exists to avoid — and
    keeps working, so nothing but a profiler would notice.  Full encodes
    are sanctioned at exactly one cold-start site —
    ``engine/context.py`` (the context constructor) — so everywhere else
    in the ``core``/``engine`` packages the call is flagged.  The
    ``relation`` package, which *implements* the entry point, is out of
    scope by construction.
    """

    code = "RPR114"
    name = "streaming-encode-discipline"
    rationale = (
        "preprocess(...) outside the sanctioned cold-start site "
        "re-encodes the whole relation, turning the "
        "delta engine's O(batch) append into O(N) without failing any "
        "correctness test"
    )
    example = (
        "data = preprocess(self._relation())        # RPR114: O(N) per append\n"
        "data = context.data                        # delta-maintained snapshot\n"
        "delta = context.append_rows(batch)         # O(batch) change-batch API"
    )
    interests = (ast.Call,)

    _PACKAGES = ("core", "engine")
    _EXEMPT_FILES = ("engine/context.py",)
    _FULL_ENCODERS = frozenset({"preprocess"})

    def visit(self, node: ast.AST, module: Module) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not module.in_packages(*self._PACKAGES):
            return
        if module.relpath.endswith(self._EXEMPT_FILES):
            return
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        if name not in self._FULL_ENCODERS:
            return
        yield self.finding(
            module,
            node,
            f"{name}(...) re-encodes the whole relation; streaming paths "
            "must stay O(batch) — use the execution context's "
            "delta-maintained snapshot (context.data / "
            "context.append_rows), or move the cold start into "
            "engine/context.py",
        )


def _build_export_map(base: Path) -> dict[str, set[str]]:
    """Map module relpaths to the function names packages export.

    Parses every ``__init__.py`` under ``base``, reads its ``__all__``,
    and resolves each exported name through ``from . import``-style
    re-export chains to the module that actually defines it.  Only names
    that resolve to a top-level ``def`` are recorded — classes, constants
    and submodule re-exports are out of scope for RPR005.
    """
    inits: dict[Path, tuple[list[str], dict[str, tuple[Path, str]]]] = {}
    for init in sorted(base.rglob("__init__.py")):
        if "__pycache__" in init.parts:
            continue
        parsed = _parse_init(init)
        if parsed is not None:
            inits[init] = parsed

    exports: dict[str, set[str]] = {}

    def resolve(init: Path, name: str, depth: int = 0) -> tuple[Path, str] | None:
        if depth > 8 or init not in inits:
            return None
        _, imports = inits[init]
        target = imports.get(name)
        if target is None:
            # defined in the __init__ itself
            return (init, name)
        module_path, original = target
        nested = module_path / "__init__.py"
        if nested.exists():
            return resolve(nested, original, depth + 1)
        file_path = module_path.with_suffix(".py")
        if file_path.exists():
            if file_path.name == "__init__.py":
                return resolve(file_path, original, depth + 1)
            return (file_path, original)
        return None

    for init, (all_names, _) in inits.items():
        for name in all_names:
            resolved = resolve(init, name)
            if resolved is None:
                continue
            path, original = resolved
            if not _defines_function(path, original):
                continue
            relpath = path.relative_to(base).as_posix()
            exports.setdefault(relpath, set()).add(original)
    return exports


def _parse_init(init: Path) -> tuple[list[str], dict[str, tuple[Path, str]]] | None:
    """Extract (``__all__`` names, import map) from one ``__init__.py``.

    The import map sends each imported-as name to ``(module path without
    suffix, original name)``; only relative ``from``-imports are
    considered — the public API never re-exports third-party names.
    """
    try:
        tree = ast.parse(init.read_text(encoding="utf-8"))
    except (SyntaxError, OSError):
        return None
    package_dir = init.parent
    all_names: list[str] = []
    imports: dict[str, tuple[Path, str]] = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    value = statement.value
                    if isinstance(value, (ast.List, ast.Tuple)):
                        all_names = [
                            element.value
                            for element in value.elts
                            if isinstance(element, ast.Constant)
                            and isinstance(element.value, str)
                        ]
        elif isinstance(statement, ast.ImportFrom) and statement.level >= 1:
            anchor = package_dir
            for _ in range(statement.level - 1):
                anchor = anchor.parent
            module_parts = statement.module.split(".") if statement.module else []
            module_path = anchor.joinpath(*module_parts) if module_parts else anchor
            for alias in statement.names:
                exported_as = alias.asname or alias.name
                if alias.name == "*":
                    continue
                if not module_parts:
                    # ``from . import submodule`` — a module, not a function
                    continue
                imports[exported_as] = (module_path, alias.name)
    return all_names, imports


def _defines_function(path: Path, name: str) -> bool:
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (SyntaxError, OSError):
        return False
    return any(
        isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        and statement.name == name
        for statement in tree.body
    )


def default_rules() -> list[Rule]:
    """One fresh instance of every shipped rule, in code order."""
    from .dataflow_rules import MergeOrderRule
    from .project_rules import DeadExportRule, LayeringRule

    return [
        DeterminismRule(),
        BitmaskEncapsulationRule(),
        AlgorithmContractRule(),
        MutableDefaultRule(),
        PublicApiAnnotationRule(),
        NumpyDtypeRule(),
        LayeringRule(),
        PurityContractRule(),
        DeadExportRule(),
        ClockDisciplineRule(),
        ParallelismEncapsulationRule(),
        MergeOrderRule(),
        MetricNameDisciplineRule(),
        StreamingEncodeDisciplineRule(),
    ]
