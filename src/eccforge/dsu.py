"""Union-find with caller-designated representative labels.

A weighted quick-find: `_parent[x]` is always the root of x's set, so
`root_of` is one list read, O(1). A union links by size and points every
member of the smaller set at the surviving root, walking that set's
intrusive circular member list; an item is relabelled only when its set at
least doubles, so n items are relabelled O(n log n) times in total. The
external label stored at each root lets callers dictate which object
"survives" a union without sacrificing balance. The member lists are spliced
in O(1) per union, so listing a set costs time proportional to its size. A
union clears the losing root's label, so the lists refer only to the labels
of live sets.

The public methods check every item they are given. `DecompTree`, which
checks its vertices once at its own API, reads `_parent` and `_label`
directly.

The block and cactus forests merge their nodes with union by size, but on
the node objects themselves rather than through a `DsuForest`: `_set_root`
climbs a node's `_up` pointers (None at a set root) with path compression,
and `_unite_nodes` links by the set size `_n` and stores the caller's label,
the merged set's live node, in the root's `_rep`. No table lists the nodes,
so a merged node is freed once neither its set's links nor a stale pointer
in its forest reaches it. That is why they do not relabel: member lists of
merged nodes would keep dead nodes alive. The root's `_rep` points back into
the set (at the root itself while the set has one node), a reference cycle,
so a forest that drops a set's live node clears that `_rep`
(`_release`, called by `BlockForest._drop` and `CactusForest._drop`);
reference counting then frees the whole set at once, without the cyclic
collector.
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
        return self._parent[x]

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
        parent, nxt = self._parent, self._next
        parent[rb] = ra
        x = nxt[rb]
        while x != rb:  # relabel the smaller set
            parent[x] = ra
            x = nxt[x]
        self._size[ra] += self._size[rb]
        self._label[ra] = rep_label
        self._label[rb] = None
        nxt[ra], nxt[rb] = nxt[rb], nxt[ra]
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


def _release(node: Any) -> None:
    """The forest drops `node`: if it is its set's live node, the set root's
    `_rep` stops pointing back at it."""
    root = _set_root(node)
    if root._rep is node:
        root._rep = None
