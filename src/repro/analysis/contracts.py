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

Two consumers share this module: the per-file RPR102 rule checks that
every contract parses and names real parameters, and the ``--sanitize``
instrumenter (:mod:`repro.analysis.sanitize`) rewrites each contract
into a runtime assertion — the check that a contract actually holds.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

_CONTRACT_RE = re.compile(r"^\s*(Pure|Mutates|Monotone):(.*)$")
_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MONOTONE_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s+via\s+([A-Za-z_][A-Za-z0-9_]*)\s*$"
)


@dataclass(frozen=True)
class Contract:
    """A parsed contract declaration from one function docstring."""

    pure: bool = False
    mutates: tuple[str, ...] | None = None
    """Listed mutable parameters, or None when no ``Mutates:`` line."""
    monotone: tuple[tuple[str, str], ...] = ()
    """(parameter, probe method) pairs from ``Monotone:`` lines."""
    errors: tuple[str, ...] = ()
    """Grammar problems; a contract with errors is never enforced."""

    def named_params(self) -> frozenset[str]:
        """Every parameter name the contract mentions."""
        names = set(self.mutates or ())
        names.update(name for name, _ in self.monotone)
        return frozenset(names)


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
    if not pure and mutates is None and not monotone and not errors:
        return None
    if pure and mutates is not None:
        errors.append("`Pure:` and `Mutates:` are mutually exclusive")
    return Contract(
        pure=pure,
        mutates=tuple(mutates) if mutates is not None else None,
        monotone=tuple(monotone),
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
