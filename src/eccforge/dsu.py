"""Union by size on the forest nodes themselves.

The block and cactus forests merge their nodes with union by size on the
node objects: `_set_root` climbs a node's `_up` pointers (None at a set
root) with path compression, and `_unite_nodes` links by the set size `_n`
and stores the caller's label, the merged set's live node, in the root's
`_rep`. No table lists the nodes, so a merged node is freed once neither its
set's links nor a stale pointer in its forest reaches it. That is why they
do not relabel, as the vertex classes of `DecompTree` do: member lists of
merged nodes would keep dead nodes alive. The root's `_rep` points back into
the set (at the root itself while the set has one node), a reference cycle,
so a forest that drops a set's live node clears that `_rep` (`_release`,
called by `BlockForest._drop` and `CactusForest._drop`); reference counting
then frees the whole set at once, without the cyclic collector.
"""

from __future__ import annotations

from typing import Any


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
