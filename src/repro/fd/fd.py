"""Value types for functional dependencies and their violations.

An :class:`FD` is the immutable pair (LHS attribute set, RHS attribute).
The same value type represents both valid FDs (members of the positive
cover) and non-FDs (members of the negative cover); which cover an FD
belongs to is a property of the containing collection, exactly as in the
paper's Definition 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from . import attrset


@dataclass(frozen=True, slots=True, order=True)
class FD:
    """A functional dependency ``lhs -> rhs``.

    ``lhs`` is an attribute bitmask (see :mod:`repro.fd.attrset`), ``rhs``
    an attribute index.  Instances are hashable and totally ordered, which
    keeps result sets deterministic.
    """

    lhs: int
    rhs: int

    def __post_init__(self) -> None:
        if self.lhs < 0:
            raise ValueError(f"LHS mask must be non-negative, got {self.lhs}")
        if self.rhs < 0:
            raise ValueError(f"RHS index must be non-negative, got {self.rhs}")

    @classmethod
    def of(cls, lhs_indices: Iterable[int], rhs: int) -> "FD":
        """Build an FD from an iterable of LHS attribute indices."""
        return cls(attrset.from_indices(lhs_indices), rhs)

    @property
    def lhs_indices(self) -> tuple[int, ...]:
        """The LHS attribute indices, ascending."""
        return attrset.to_tuple(self.lhs)

    @property
    def arity(self) -> int:
        """Number of attributes on the left-hand side."""
        return attrset.size(self.lhs)

    def is_trivial(self) -> bool:
        """An FD ``X -> A`` is trivial when ``A in X`` (Definition 4)."""
        return attrset.contains(self.lhs, self.rhs)

    def generalizes(self, other: "FD") -> bool:
        """True when this FD is a generalization of ``other`` (Definition 3).

        ``Y -> A`` generalizes ``X -> A`` iff the RHSs agree and
        ``Y`` is a (non-strict) subset of ``X``.
        """
        return self.rhs == other.rhs and attrset.is_subset(self.lhs, other.lhs)

    def specializes(self, other: "FD") -> bool:
        """True when this FD is a specialization of ``other`` (Definition 3)."""
        return other.generalizes(self)

    def format(self, names: Sequence[str] | None = None) -> str:
        """Human-readable rendering, e.g. ``[Gender, Medicine] -> Blood``."""
        if names is None:
            lhs = ", ".join(str(i) for i in self.lhs_indices)
            rhs = str(self.rhs)
        else:
            lhs = ", ".join(names[i] for i in self.lhs_indices)
            rhs = names[self.rhs]
        return f"[{lhs}] -> {rhs}"

    def __str__(self) -> str:
        return self.format()


def sort_for_cover_insertion(non_fds: Iterable[FD]) -> list[FD]:
    """Order non-FDs for negative-cover construction (Algorithm 2, line 1).

    Non-FDs are sorted in decreasing order of LHS length so that, on first
    construction, no later non-FD can be a strict specialization of an
    earlier one — insertions then only need specialization checks.  Ties
    break on (rhs, lhs) to keep the order deterministic.
    """
    return sorted(non_fds, key=lambda fd: (-attrset.size(fd.lhs), fd.rhs, fd.lhs))

