# repro-lint: disable-file=RPR002 — bitmask tree kernel: the traversal
# loops shift per child node, and the attrset helper-call overhead is
# measurable there (see fd/attrset.py on why masks stay raw ints).
"""The classic FD-tree / set-trie index [11].

Fdep stores its covers in an *FD-tree*: a prefix tree over the sorted
attribute indices of each LHS, where a path from the root to a terminal
node spells out one stored set.  Subset and superset queries walk the
trie, skipping branches whose attribute order rules them out.

The paper replaces this structure with the extended binary tree of
Section IV-D "because the binary tree consumes less memory while quickly
searching for specializations and generalizations"; this implementation
exists as the faithful point of comparison (the E-IDX benchmark) and as
an independently derived index for the property tests to cross-check.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import attrset


class _TrieNode:
    __slots__ = ("children", "terminal", "stored")

    def __init__(self) -> None:
        self.children: dict[int, _TrieNode] = {}
        self.terminal = False
        self.stored = 0  # number of terminals in this subtree (incl. self)


class FDTreeIndex:
    """Set-trie over LHS bitmasks for one RHS attribute."""

    __slots__ = ("_root", "_size")

    def __init__(self, masks: Iterator[int] | None = None) -> None:
        self._root = _TrieNode()
        self._size = 0
        if masks is not None:
            for mask in masks:
                self.add(mask)

    # -- mutation ----------------------------------------------------------

    def add(self, lhs: int) -> bool:
        path = [self._root]
        node = self._root
        for index in attrset.to_indices(lhs):
            node = node.children.setdefault(index, _TrieNode())
            path.append(node)
        if node.terminal:
            return False
        node.terminal = True
        for visited in path:
            visited.stored += 1
        self._size += 1
        return True

    def remove(self, lhs: int) -> bool:
        path: list[tuple[_TrieNode, int]] = []
        node = self._root
        for index in attrset.to_indices(lhs):
            child = node.children.get(index)
            if child is None:
                return False
            path.append((node, index))
            node = child
        if not node.terminal:
            return False
        node.terminal = False
        node.stored -= 1
        for parent, index in reversed(path):
            child = parent.children[index]
            if child.stored == 0:
                del parent.children[index]
            parent.stored -= 1
        self._size -= 1
        return True

    # -- membership / iteration --------------------------------------------

    def __contains__(self, lhs: int) -> bool:
        node = self._root
        for index in attrset.to_indices(lhs):
            node = node.children.get(index)
            if node is None:
                return False
        return node.terminal

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        collected: list[int] = []

        def walk(node: _TrieNode, mask: int) -> None:
            if node.terminal:
                collected.append(mask)
            for index, child in node.children.items():
                walk(child, mask | (1 << index))

        walk(self._root, 0)
        yield from sorted(collected)

    # -- lattice queries ------------------------------------------------------

    def contains_superset(self, lhs: int) -> bool:
        needed = attrset.to_tuple(lhs)

        def walk(node: _TrieNode, position: int) -> bool:
            if position == len(needed):
                return node.stored > 0
            target = needed[position]
            for index, child in node.children.items():
                if index < target:
                    if walk(child, position):
                        return True
                elif index == target:
                    if walk(child, position + 1):
                        return True
                # index > target: this branch can never contain ``target``
                # again (paths are ascending), skip it.
            return False

        return walk(self._root, 0)

    def contains_subset(self, lhs: int) -> bool:
        def walk(node: _TrieNode) -> bool:
            if node.terminal:
                return True
            for index, child in node.children.items():
                if (lhs >> index) & 1 and walk(child):
                    return True
            return False

        return walk(self._root)

    def find_supersets(self, lhs: int) -> list[int]:
        needed = attrset.to_tuple(lhs)
        found: list[int] = []

        def collect(node: _TrieNode, mask: int) -> None:
            if node.terminal:
                found.append(mask)
            for index, child in node.children.items():
                collect(child, mask | (1 << index))

        def walk(node: _TrieNode, position: int, mask: int) -> None:
            if position == len(needed):
                collect(node, mask)
                return
            target = needed[position]
            for index, child in node.children.items():
                if index < target:
                    walk(child, position, mask | (1 << index))
                elif index == target:
                    walk(child, position + 1, mask | (1 << index))

        walk(self._root, 0, 0)
        found.sort()
        return found

    def find_subsets(self, lhs: int) -> list[int]:
        found: list[int] = []

        def walk(node: _TrieNode, mask: int) -> None:
            if node.terminal:
                found.append(mask)
            for index, child in node.children.items():
                if (lhs >> index) & 1:
                    walk(child, mask | (1 << index))

        walk(self._root, 0)
        found.sort()
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FDTreeIndex(size={self._size})"
