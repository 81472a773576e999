"""The ``Pure:`` / ``Mutates:`` / ``Monotone:`` docstring contract grammar.

The EulerFD kernels promise a handful of mutation contracts the paper
states but plain Python cannot enforce: ``StrippedPartition.product``
must not mutate its operands, the cover query paths are read-only, and
the negative cover is append-only (its covered set of non-FDs only ever
grows).  Those promises are written *in the docstring of the function
that makes them*, one contract line each, so they live next to the prose
that explains them and survive refactors by failing loudly instead of
silently:

``Pure:``
    The function mutates none of its parameters (``self`` included).
    Anything after the colon is prose.

``Mutates: self, stats``
    The function may mutate exactly the listed parameters; every other
    parameter is promised untouched.

``Monotone: self via covers``
    Every member the named parameter contained before the call still
    satisfies ``parameter.<probe>(member)`` afterwards — the append-only
    promise of the negative cover (Algorithm 2/3: inversion may consult
    but never shrink it between cycles).

``Owns: return via call`` / ``Owns: self`` / ``Owns: segment via mmap-matrix``
    Ownership-transfer declarations for the typestate rules
    (RPR109–RPR111, :mod:`repro.analysis.lifecycle`).  ``Owns: return``
    says the caller receives a resource it must release (``via call``
    selects the ``(handle, cleanup)`` convention where the last
    tuple-unpack target is a release callable); ``Owns: self`` says the
    function parks owned resources on ``self`` for the object to release
    later; ``Owns: <param> via <protocol>`` says the function takes
    ownership of the parameter and must fully release it on every path.

``Borrows: pool, data``
    The listed parameters are used but never released or consumed — the
    caller keeps ownership (and the leak obligation) across the call.

Three consumers share this module: the static RPR102 pass
(:mod:`repro.analysis.purity`) checks declared mutation contracts
against an inferred mutation summary, the typestate pass
(:mod:`repro.analysis.lifecycle`) checks ownership declarations against
the resource state machines, and the ``--sanitize`` instrumenter
(:mod:`repro.analysis.sanitize`) rewrites each *mutation* contract into
a runtime assertion (ownership clauses stay static — their runtime
mirror is the live-resource probe).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

_CONTRACT_RE = re.compile(r"^\s*(Pure|Mutates|Monotone|Owns|Borrows):(.*)$")
_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MONOTONE_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s+via\s+([A-Za-z_][A-Za-z0-9_]*)\s*$"
)
_OWNS_RE = re.compile(
    r"^(return|self|[A-Za-z_][A-Za-z0-9_]*)(?:\s+via\s+([a-z][a-z0-9-]*))?$"
)


@dataclass(frozen=True)
class Contract:
    """A parsed contract declaration from one function docstring."""

    pure: bool = False
    mutates: tuple[str, ...] | None = None
    """Listed mutable parameters, or None when no ``Mutates:`` line."""
    monotone: tuple[tuple[str, str], ...] = ()
    """(parameter, probe method) pairs from ``Monotone:`` lines."""
    owns_return: str | None = None
    """``"plain"`` when the return value is an owned resource the caller
    must release, ``"call"`` when release happens by *calling* it (the
    ``(handle, cleanup)`` convention: on tuple unpack the last target is
    the release callable).  None when no ``Owns: return`` clause."""
    owns_self: bool = False
    """True when ``Owns: self`` declares that the function stores owned
    resources on ``self`` (the enclosing object releases them later)."""
    owns_params: tuple[tuple[str, str | None], ...] = ()
    """``(parameter, protocol-or-None)`` pairs from ``Owns: p via proto``
    clauses: the function takes ownership of the parameter and must
    release (or re-escape) it on every path."""
    borrows: tuple[str, ...] = ()
    """Parameters from ``Borrows:`` lines: used but never released, so
    callers keep ownership (and the leak obligation) across the call."""
    errors: tuple[str, ...] = ()
    """Grammar problems; a contract with errors is never enforced."""

    @property
    def declares_lifecycle_contract(self) -> bool:
        """True when any ``Owns:``/``Borrows:`` clause is present."""
        return (
            self.owns_return is not None
            or self.owns_self
            or bool(self.owns_params)
            or bool(self.borrows)
        )

    @property
    def declares_mutation_contract(self) -> bool:
        """True when the contract constrains parameter mutation at all."""
        return self.pure or self.mutates is not None

    def allowed_mutations(self) -> frozenset[str]:
        """Parameter names the contract permits the function to mutate."""
        if self.pure:
            return frozenset()
        allowed = set(self.mutates or ())
        allowed.update(name for name, _ in self.monotone)
        return frozenset(allowed)


@dataclass
class ContractedFunction:
    """One function definition carrying a contract."""

    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    contract: Contract
    params: tuple[str, ...] = field(default_factory=tuple)


def parse_contract(docstring: str | None) -> Contract | None:
    """Extract the contract from a docstring; None when it declares none."""
    if not docstring:
        return None
    pure = False
    mutates: list[str] | None = None
    monotone: list[tuple[str, str]] = []
    owns_return: str | None = None
    owns_self = False
    owns_params: list[tuple[str, str | None]] = []
    borrows: list[str] = []
    errors: list[str] = []
    for line in docstring.splitlines():
        match = _CONTRACT_RE.match(line)
        if match is None:
            continue
        keyword, rest = match.group(1), match.group(2)
        if keyword == "Pure":
            if pure:
                errors.append("duplicate `Pure:` line")
            pure = True
        elif keyword == "Owns":
            for clause in rest.split(","):
                parsed = _OWNS_RE.match(clause.strip())
                if parsed is None:
                    errors.append(
                        "`Owns:` takes `return[ via call]`, `self`, or "
                        f"`<parameter>[ via <protocol>]`, got {clause.strip()!r}"
                    )
                    continue
                target, via = parsed.group(1), parsed.group(2)
                if target == "return":
                    if via not in (None, "call"):
                        errors.append(
                            f"`Owns: return via {via}` — only `via call` "
                            "is defined for return ownership"
                        )
                    elif owns_return is not None:
                        errors.append("duplicate `Owns: return` clause")
                    else:
                        owns_return = "call" if via == "call" else "plain"
                elif target == "self":
                    if via is not None:
                        errors.append("`Owns: self` takes no `via` clause")
                    owns_self = True
                else:
                    owns_params.append((target, via))
        elif keyword == "Borrows":
            names = [token.strip() for token in rest.split(",")]
            bad = [name for name in names if not _IDENTIFIER_RE.match(name)]
            if bad or not names:
                errors.append(
                    "`Borrows:` takes a comma-separated list of parameter "
                    f"names, got {rest.strip()!r}"
                )
            else:
                borrows.extend(names)
        elif keyword == "Mutates":
            if mutates is not None:
                errors.append("duplicate `Mutates:` line")
                continue
            names = [token.strip() for token in rest.split(",")]
            bad = [name for name in names if not _IDENTIFIER_RE.match(name)]
            if bad or not names:
                errors.append(
                    "`Mutates:` takes a comma-separated list of parameter "
                    f"names, got {rest.strip()!r}"
                )
                mutates = []
            else:
                mutates = names
        else:  # Monotone
            parsed = _MONOTONE_RE.match(rest)
            if parsed is None:
                errors.append(
                    "`Monotone:` takes `<parameter> via <probe>`, got "
                    f"{rest.strip()!r}"
                )
            else:
                monotone.append((parsed.group(1), parsed.group(2)))
    if (
        not pure
        and mutates is None
        and not monotone
        and owns_return is None
        and not owns_self
        and not owns_params
        and not borrows
        and not errors
    ):
        return None
    if pure and mutates is not None:
        errors.append("`Pure:` and `Mutates:` are mutually exclusive")
    owned_names = {name for name, _ in owns_params}
    for name in borrows:
        if name in owned_names:
            errors.append(
                f"parameter {name!r} is declared both `Owns:` and `Borrows:`"
            )
    return Contract(
        pure=pure,
        mutates=tuple(mutates) if mutates is not None else None,
        monotone=tuple(monotone),
        owns_return=owns_return,
        owns_self=owns_self,
        owns_params=tuple(owns_params),
        borrows=tuple(borrows),
        errors=tuple(errors),
    )


def function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """All parameter names of a function, ``self``/``cls`` included."""
    arguments = node.args
    names = [
        argument.arg
        for argument in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        )
    ]
    for variadic in (arguments.vararg, arguments.kwarg):
        if variadic is not None:
            names.append(variadic.arg)
    return tuple(names)


def iter_contracted_functions(tree: ast.Module) -> list[ContractedFunction]:
    """Every contract-bearing function in a module, with its qualname.

    Walks top-level functions and (nested) class bodies; functions nested
    inside other functions are deliberately skipped — contracts belong on
    module- or class-level kernels, not closures.
    """
    found: list[ContractedFunction] = []

    def visit_body(body: list[ast.stmt], prefix: str) -> None:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                contract = parse_contract(ast.get_docstring(statement, clean=False))
                if contract is not None:
                    found.append(
                        ContractedFunction(
                            qualname=prefix + statement.name,
                            node=statement,
                            contract=contract,
                            params=function_params(statement),
                        )
                    )
            elif isinstance(statement, ast.ClassDef):
                visit_body(statement.body, prefix + statement.name + ".")

    visit_body(tree.body, "")
    return found
