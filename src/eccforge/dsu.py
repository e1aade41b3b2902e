"""Path compression on the forest nodes themselves.

The block and cactus forests merge their nodes through `_up` links kept on
the node objects (None at a set root). A merge links each dead node straight
under the live one, which is a set root at that moment, so a set's root is
always its live node and no find runs at link time. `_set_root` climbs a
node's `_up` links and compresses the path it climbed; the forests test
`_up` first and call it only on a merged node. Without union by size
path compression alone is amortized O(log_{1+f/n} n) per find (Tarjan and
van Leeuwen, JACM 1984); the merged sets here are small. No table lists the
nodes, and links point only from dead nodes towards the live one, so a
merged node is freed once neither its set's links nor a stale pointer in its
forest reaches it, and a set whose live node the forest drops is freed by
reference counting at once. That is why the forests do not relabel, as the
vertex classes of `DecompTree` do: member lists of merged nodes would keep
dead nodes alive.
"""

from __future__ import annotations

from typing import Any


def _set_root(node: Any) -> Any:
    """Root of a forest node's merged set, its live node, compressing the
    path to it."""
    root = node
    while root._up is not None:
        root = root._up
    while node is not root:
        node._up, node = root, node._up
    return root
