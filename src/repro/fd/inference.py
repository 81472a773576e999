"""Logical inference over FD sets: closures, keys, implication, BCNF.

These routines implement Armstrong-axiom reasoning over discovered FD
sets.  They power the schema-normalization example, the data-obfuscation
workflow (finding attributes that transitively determine a sensitive
attribute), and several test-suite oracles (e.g. checking that two
discovery algorithms returned logically equivalent covers).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from . import attrset
from .fd import FD


def closure(attributes: int, fds: Iterable[FD]) -> int:
    """Attribute closure ``attributes+`` under ``fds``.

    Fixed-point iteration: add ``fd.rhs`` whenever ``fd.lhs`` is already
    contained.  Runs in O(|fds| * rounds); fine for the schema-sized FD
    sets inference is used on.
    """
    fd_list = list(fds)
    result = attributes
    changed = True
    while changed:
        changed = False
        remaining = []
        for fd in fd_list:
            if attrset.is_subset(fd.lhs, result):
                if not attrset.contains(result, fd.rhs):
                    result = attrset.add(result, fd.rhs)
                    changed = True
            else:
                remaining.append(fd)
        fd_list = remaining
    return result


def implies(fds: Iterable[FD], candidate: FD) -> bool:
    """True when ``fds`` logically implies ``candidate`` (via closure)."""
    return attrset.contains(closure(candidate.lhs, fds), candidate.rhs)


def equivalent(left: Iterable[FD], right: Iterable[FD]) -> bool:
    """True when the two FD sets imply each other."""
    left = list(left)
    right = list(right)
    return all(implies(right, fd) for fd in left) and all(
        implies(left, fd) for fd in right
    )


def candidate_keys(
    num_attributes: int, fds: Iterable[FD], limit: int | None = None
) -> list[int]:
    """Enumerate minimal keys of the schema under ``fds``.

    Breadth-first over the attribute lattice starting from the attributes
    that appear on no RHS (those must belong to every key).  ``limit``
    caps the number of keys returned since schemas with many symmetric
    attributes can have exponentially many keys.
    """
    fd_list = list(fds)
    everything = attrset.universe(num_attributes)
    determined = attrset.from_indices(fd.rhs for fd in fd_list)
    core = everything & ~determined
    if closure(core, fd_list) == everything:
        return [core]
    keys: list[int] = []
    frontier = [core]
    seen = {core}
    while frontier and (limit is None or len(keys) < limit):
        next_frontier: list[int] = []
        for base in frontier:
            for index in attrset.to_indices(everything & ~base):
                extended = attrset.add(base, index)
                if extended in seen:
                    continue
                seen.add(extended)
                if any(attrset.is_subset(key, extended) for key in keys):
                    continue
                if closure(extended, fd_list) == everything:
                    keys.append(extended)
                    if limit is not None and len(keys) >= limit:
                        return keys
                else:
                    next_frontier.append(extended)
        frontier = next_frontier
    return keys


def determinants_of(
    target: int, fds: Iterable[FD], num_attributes: int
) -> set[int]:
    """Attributes that (transitively) help determine attribute ``target``.

    This is the DMS data-obfuscation query of Section I: given a labelled
    sensitive attribute, find every attribute appearing in some LHS whose
    closure reaches the sensitive attribute.  Returns attribute indices.
    """
    fd_list = list(fds)
    involved: set[int] = set()
    for fd in fd_list:
        if fd.rhs == target or attrset.contains(
            closure(fd.lhs, fd_list), target
        ):
            involved.update(attrset.to_indices(fd.lhs))
    involved.discard(target)
    return involved


def bcnf_decompose(
    num_attributes: int, fds: Iterable[FD], max_rounds: int = 64
) -> list[int]:
    """Classic BCNF decomposition; returns sub-schema attribute masks.

    Each round finds a violating FD ``X -> A`` in some fragment ``S`` and
    splits ``S`` into ``closure(X) ∩ S`` and ``X ∪ (S - closure(X))``.
    FDs are projected by closure testing, so the procedure is lossless
    (it may not be dependency preserving — BCNF never guarantees that).
    """
    fd_list = [fd for fd in fds if not fd.is_trivial()]
    fragments = [attrset.universe(num_attributes)]
    for _ in range(max_rounds):
        violating: tuple[int, FD] | None = None
        for position, fragment in enumerate(fragments):
            for fd in _projected_fds(fragment, fd_list):
                if _violates_within(fd, fragment, fd_list):
                    violating = (position, fd)
                    break
            if violating:
                break
        if violating is None:
            return fragments
        position, fd = violating
        fragment = fragments[position]
        reach = closure(fd.lhs, fd_list) & fragment
        rest = fd.lhs | (fragment & ~reach)
        fragments[position : position + 1] = [reach, rest]
    raise RuntimeError("BCNF decomposition did not converge")


def _projected_fds(fragment: int, fds: list[FD]) -> Iterator[FD]:
    """Yield FDs with both sides inside ``fragment``, including derived ones.

    For tractability only FDs whose stated LHS lies in the fragment are
    considered; that is sufficient for the discovered minimal covers this
    library produces, where every implied in-fragment FD has an explicit
    minimal generator.
    """
    for fd in fds:
        if attrset.is_subset(fd.lhs, fragment) and attrset.contains(
            fragment, fd.rhs
        ):
            yield fd


def _violates_within(fd: FD, fragment: int, fds: list[FD]) -> bool:
    """BCNF check local to a fragment: does ``fd.lhs`` determine it all?"""
    return closure(fd.lhs, fds) & fragment != fragment
