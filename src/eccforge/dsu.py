"""Union-find with caller-designated representative labels.

Internally union-by-size with path compression; the external label stored at
each root lets callers dictate which object "survives" a union without
sacrificing balance. Member enumeration uses intrusive circular lists spliced
in O(1) per union, so listing a set costs time proportional to its size. A
union clears the losing root's label, so the lists refer only to the labels
of live sets.

The public methods check every item they are given. `DecompTree`, which
checks its vertices once at its own API, reads `_parent` and `_label`
directly and runs the same find, with the same path compression, inline.

The block and cactus forests merge their nodes with the same discipline, but
on the node objects themselves rather than through a `DsuForest`:
`_set_root` climbs a node's `_up` pointers (None at a set root) with path
compression, and `_unite_nodes` links by the set size `_n` and stores the
caller's label, the merged set's live node, in the root's `_rep`. No table
lists the nodes, so a merged node is freed once neither its set's links nor
a stale pointer in its forest reaches it.
"""

from __future__ import annotations

from typing import Any


class DsuError(Exception):
    pass


class UnknownItemError(DsuError):
    pass


class NotARootError(DsuError):
    pass


class DsuForest:
    def __init__(self) -> None:
        self._parent: list[int] = []
        self._size: list[int] = []
        self._label: list[Any] = []
        self._next: list[int] = []  # circular member list
        self.num_sets = 0

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self, label: Any) -> int:
        x = len(self._parent)
        self._parent.append(x)
        self._size.append(1)
        self._label.append(label)
        self._next.append(x)
        self.num_sets += 1
        return x

    def _check(self, x: int) -> None:
        if not (0 <= x < len(self._parent)):
            raise UnknownItemError(f"unknown item {x}")

    def find(self, x: int) -> tuple[int, Any]:
        r = self.root_of(x)
        return r, self._label[r]

    def root_of(self, x: int) -> int:
        self._check(x)
        parent = self._parent
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:  # path compression
            parent[x], x = r, parent[x]
        return r

    def label_of(self, x: int) -> Any:
        return self._label[self.root_of(x)]

    def set_label(self, x: int, label: Any) -> None:
        self._label[self.root_of(x)] = label

    def unite(self, a: int, b: int, rep_label: Any) -> None:
        ra, rb = self.root_of(a), self.root_of(b)
        if ra == rb:
            self._label[ra] = rep_label
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._label[ra] = rep_label
        self._label[rb] = None
        self._next[ra], self._next[rb] = self._next[rb], self._next[ra]
        self.num_sets -= 1

    def size_of(self, x: int) -> int:
        return self._size[self.root_of(x)]

    def members(self, root: int) -> list[int]:
        self._check(root)
        if self._parent[root] != root:
            raise NotARootError(f"item {root} is not a root")
        out = [root]
        x = self._next[root]
        while x != root:
            out.append(x)
            x = self._next[x]
        return out

    def roots(self) -> list[int]:
        return [x for x in range(len(self._parent)) if self._parent[x] == x]


def _set_root(node: Any) -> Any:
    """Root of a forest node's merged set, compressing the path to it."""
    root = node
    while root._up is not None:
        root = root._up
    while node is not root:
        node._up, node = root, node._up
    return root


def _unite_nodes(a: Any, b: Any, label: Any) -> None:
    """Merge the sets of forest nodes a and b; `label` represents the union."""
    ra, rb = _set_root(a), _set_root(b)
    if ra is not rb:
        if ra._n < rb._n:
            ra, rb = rb, ra
        rb._up = ra
        rb._rep = None
        ra._n += rb._n
    ra._rep = label
