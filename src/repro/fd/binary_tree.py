# repro-lint: disable-file=RPR002 — bitmask tree kernel: membership tests
# shift per visited node in the query paths, and the attrset helper-call
# overhead is measurable there (see fd/attrset.py).
"""The extended binary LHS tree of Section IV-D (after AID-FD [3]).

The tree stores a set of LHS bitmasks (for one fixed RHS attribute).  Each
internal node tests membership of a single attribute: LHSs that *contain*
the attribute live in the right subtree, LHSs that do not live in the left
subtree (Fig. 4 of the paper).  Leaves hold exactly one LHS.

Two masks are maintained per internal node to terminate searches early:

* ``inter`` — the intersection of every LHS stored below the node.  A
  stored LHS can only be a *subset* of a query X when ``inter ⊆ X``
  (this is the paper's "finish the unnecessary search in advance if an
  intersection is not included in the LHS being checked").
* ``union`` — the union of every LHS stored below.  A stored LHS can only
  be a *superset* of X when ``X ⊆ union``; the symmetric prune for
  specialization checks.

Compared with the classic FD-tree [11], a path is shared between LHSs only
while they agree on the tested attributes, so memory stays proportional to
the number of stored LHSs.

The library's negative cover (:class:`~repro.fd.covers.NegativeCover`)
is a flat word store that takes one agree set for all its RHSs at once;
this tree is the paper's per-RHS structure, kept for the E-IDX benchmark
and the property tests.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import attrset


class _Node:
    """A tree node; a leaf when ``attr is None`` (then ``lhs`` is set)."""

    __slots__ = ("attr", "left", "right", "lhs", "inter", "union")

    def __init__(self) -> None:
        self.attr: int | None = None
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.lhs: int = 0
        self.inter: int = 0
        self.union: int = 0

    @classmethod
    def leaf(cls, lhs: int) -> "_Node":
        node = cls()
        node.lhs = lhs
        node.inter = lhs
        node.union = lhs
        return node

    @classmethod
    def internal(cls, attr: int, left: "_Node", right: "_Node") -> "_Node":
        node = cls()
        node.attr = attr
        node.left = left
        node.right = right
        node.refresh()
        return node

    @property
    def is_leaf(self) -> bool:
        return self.attr is None

    def refresh(self) -> None:
        """Recompute ``inter``/``union`` from the (internal) node's children."""
        assert self.left is not None and self.right is not None
        self.inter = self.left.inter & self.right.inter
        self.union = self.left.union | self.right.union


class BinaryLhsTree:
    """Extended binary tree over LHS bitmasks for one RHS attribute.

    A leaf that must be split tests the lowest attribute distinguishing
    its two LHSs.  (The paper orders attributes by ascending frequency
    instead; replayed on EulerFD's intake streams that order was no
    faster.)
    """

    __slots__ = ("_root", "_size")

    def __init__(self, masks: Iterator[int] | None = None) -> None:
        self._root: _Node | None = None
        self._size = 0
        if masks is not None:
            for mask in masks:
                self.add(mask)

    # -- mutation ----------------------------------------------------------

    def add(self, lhs: int) -> bool:
        """Insert ``lhs``; return False when it was already present.

        Mutates: self
        """
        if self._root is None:
            self._root = _Node.leaf(lhs)
            self._size = 1
            return True
        path: list[_Node] = []
        node = self._root
        while not node.is_leaf:
            path.append(node)
            assert node.attr is not None
            node = node.right if attrset.contains(lhs, node.attr) else node.left
            assert node is not None
        if node.lhs == lhs:
            return False
        split = attrset.lowest_bit(node.lhs ^ lhs)
        new_leaf = _Node.leaf(lhs)
        old_leaf = _Node.leaf(node.lhs)
        # Reuse ``node`` as the new internal node so the parent pointer
        # (held implicitly via ``path``) stays valid.
        node.attr = split
        if attrset.contains(lhs, split):
            node.left, node.right = old_leaf, new_leaf
        else:
            node.left, node.right = new_leaf, old_leaf
        node.lhs = 0
        node.refresh()
        # Ancestors only gain one descendant: tighten their masks in O(1)
        # instead of recomputing from both children.
        for ancestor in path:
            ancestor.inter &= lhs
            ancestor.union |= lhs
        self._size += 1
        return True

    def remove(self, lhs: int) -> bool:
        """Remove ``lhs``; return False when it was not present.

        Mutates: self
        """
        if self._root is None:
            return False
        if self._root.is_leaf:
            if self._root.lhs != lhs:
                return False
            self._root = None
            self._size = 0
            return True
        path: list[_Node] = []
        node = self._root
        while not node.is_leaf:
            path.append(node)
            assert node.attr is not None
            node = node.right if attrset.contains(lhs, node.attr) else node.left
            assert node is not None
        if node.lhs != lhs:
            return False
        parent = path[-1]
        sibling = parent.left if parent.right is node else parent.right
        assert sibling is not None
        # Collapse the parent into the sibling, preserving object identity
        # of the parent so grandparents need no child rewiring.
        parent.attr = sibling.attr
        parent.left = sibling.left
        parent.right = sibling.right
        parent.lhs = sibling.lhs
        parent.inter = sibling.inter
        parent.union = sibling.union
        for ancestor in reversed(path[:-1]):
            ancestor.refresh()
        self._size -= 1
        return True

    # -- queries -----------------------------------------------------------

    def __contains__(self, lhs: int) -> bool:
        node = self._root
        while node is not None and not node.is_leaf:
            assert node.attr is not None
            node = node.right if attrset.contains(lhs, node.attr) else node.left
        return node is not None and node.lhs == lhs

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        yield from sorted(self._iter_all())

    def _iter_all(self) -> Iterator[int]:
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node.lhs
            else:
                assert node.left is not None and node.right is not None
                stack.append(node.left)
                stack.append(node.right)

    # The four lattice queries below are Algorithm 2's per-non-FD probes
    # (one or two per insertion, timed by E-IDX), so they are written as
    # explicit-stack loops over slot attributes rather than recursion,
    # and test bits inline instead of via attrset helpers.

    def contains_superset(self, lhs: int) -> bool:
        """Specialization check (read-only).

        Pure: a pruned traversal; no node is modified.
        """
        node = self._root
        if node is None:
            return False
        stack = [node]
        while stack:
            node = stack.pop()
            if lhs & ~node.union:
                continue
            attr = node.attr
            if attr is None:
                if lhs & ~node.lhs == 0:
                    return True
                continue
            stack.append(node.right)
            # The left subtree stores LHSs lacking ``attr``; they can only
            # be supersets when the query also lacks it.
            if not (lhs >> attr) & 1:
                stack.append(node.left)
        return False

    def contains_subset(self, lhs: int) -> bool:
        """Generalization check (read-only).

        Pure: a pruned traversal; no node is modified.
        """
        node = self._root
        if node is None:
            return False
        stack = [node]
        while stack:
            node = stack.pop()
            if node.inter & ~lhs:
                continue
            attr = node.attr
            if attr is None:
                if node.lhs & ~lhs == 0:
                    return True
                continue
            stack.append(node.left)
            if (lhs >> attr) & 1:
                stack.append(node.right)
        return False

    def find_supersets(self, lhs: int) -> list[int]:
        """All stored supersets of ``lhs``, sorted.

        Pure: builds a fresh list; the tree is only read.
        """
        found: list[int] = []
        node = self._root
        if node is None:
            return found
        stack = [node]
        while stack:
            node = stack.pop()
            if lhs & ~node.union:
                continue
            attr = node.attr
            if attr is None:
                if lhs & ~node.lhs == 0:
                    found.append(node.lhs)
                continue
            stack.append(node.right)
            if not (lhs >> attr) & 1:
                stack.append(node.left)
        found.sort()
        return found

    def find_subsets(self, lhs: int) -> list[int]:
        """All stored subsets of ``lhs``, sorted.

        Pure: builds a fresh list; the tree is only read.
        """
        found: list[int] = []
        node = self._root
        if node is None:
            return found
        stack = [node]
        while stack:
            node = stack.pop()
            if node.inter & ~lhs:
                continue
            attr = node.attr
            if attr is None:
                if node.lhs & ~lhs == 0:
                    found.append(node.lhs)
                continue
            stack.append(node.left)
            if (lhs >> attr) & 1:
                stack.append(node.right)
        found.sort()
        return found

    # -- diagnostics -------------------------------------------------------

    def depth(self) -> int:
        """Height of the tree; 0 for the empty tree, 1 for a single leaf."""

        def measure(node: _Node | None) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return 1 + max(measure(node.left), measure(node.right))

        return measure(self._root)

    def check_invariants(self) -> None:
        """Validate structural invariants; used by the test suite."""

        def walk(node: _Node, excluded: int, required: int) -> tuple[int, int]:
            if node.is_leaf:
                if node.lhs & excluded:
                    raise AssertionError("leaf stores an excluded attribute")
                if required & ~node.lhs:
                    raise AssertionError("leaf misses a required attribute")
                if node.inter != node.lhs or node.union != node.lhs:
                    raise AssertionError("leaf masks out of sync")
                return node.inter, node.union
            assert node.attr is not None
            bit = attrset.singleton(node.attr)
            assert node.left is not None and node.right is not None
            left = walk(node.left, excluded | bit, required)
            right = walk(node.right, excluded, required | bit)
            inter = left[0] & right[0]
            union = left[1] | right[1]
            if node.inter != inter or node.union != union:
                raise AssertionError("internal masks out of sync")
            return inter, union

        if self._root is not None:
            walk(self._root, 0, 0)
        count = sum(1 for _ in self._iter_all())
        if count != self._size:
            raise AssertionError(f"size {self._size} != leaf count {count}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinaryLhsTree(size={self._size}, depth={self.depth()})"
