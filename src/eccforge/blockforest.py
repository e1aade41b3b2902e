"""Forest of rooted trees with node merging, path compression into a single
node, and size-aware linking with edge payload handover.

`compress_path` links every other path node straight under the meet, the
live node they merge into, through an `_up` link kept on the node itself, so
a merged set's root is its live node and `dsu._set_root` resolves a stale
reference with path compression; it is called only on a node whose `_up` is
set. A parent pointer left stale by a merge is rewritten to its
representative the next time `parent_of` or the root climb reads it, and a
merged node drops its own tree links, so the forest holds no reference to a
dead node beyond the stale pointers still waiting to be read. A dropped node
(`_drop`) stays its set's root, so it still reads `is_live`, but it loses its
handle. Tree sizes live on roots. `compress_path`, `join_trees` and
`root_path` find a tree's root with one local loop, `_climb`, which also
leaves every parent pointer on the way live, so `_reroot` then reverses the
links from the new root upward without a path list. Path discovery is the
two-pointer climb of `climb.meet_paths`, shared with the cactus forest, which
records the nodes it passes in a set of its own, so it costs O(|path|)
without any depth bookkeeping or mark on the nodes.
"""

from __future__ import annotations

from typing import Any, Optional

from .climb import meet_paths
from .dsu import _set_root


class BlockTreeError(Exception):
    pass


class SameNodeError(BlockTreeError):
    pass


class NotSameTreeError(BlockTreeError):
    pass


class SameTreeError(BlockTreeError):
    pass


class BlockTreeNode:
    __slots__ = ("handle", "parent", "edge", "size", "_up")

    def __init__(self, handle: Any):
        self.handle = handle
        self.parent: Optional[BlockTreeNode] = None
        self.edge: Any = None  # payload of (self, parent); None at roots
        self.size = 1  # meaningful at roots only
        self._up: Optional[BlockTreeNode] = None  # merge link; None at the live node


class BlockForest:
    def __init__(self) -> None:
        self.reroot_touches = 0  # nodes handed over across all rerootings

    def new_node(self, handle: Any) -> BlockTreeNode:
        return BlockTreeNode(handle)

    # -- resolution helpers -------------------------------------------

    def representative(self, node: BlockTreeNode) -> BlockTreeNode:
        return _set_root(node)

    def is_live(self, node: BlockTreeNode) -> bool:
        return node._up is None

    def parent_of(self, node: BlockTreeNode) -> Optional[BlockTreeNode]:
        p = node.parent
        if p is not None and p._up is not None:
            p = node.parent = _set_root(p)
        return p

    def root_path(self, node: BlockTreeNode) -> list[BlockTreeNode]:
        """Live nodes from `node` up to its tree root, inclusive."""
        if node._up is not None:
            node = _set_root(node)
        path = [node]
        self._climb(node, path)
        return path

    # -- operations ----------------------------------------------------

    def compress_path(
        self, x: BlockTreeNode, y: BlockTreeNode
    ) -> tuple[list[BlockTreeNode], list[Any], BlockTreeNode]:
        """Merge the whole tree path from x to y into one node.

        Returns (path nodes ordered from x to y, their edge payloads in path
        order, the merged node). The merged node keeps the meet point's parent
        link and gets a fresh (unset) handle for the caller to bind.
        """
        if x._up is not None:
            x = _set_root(x)
        if y._up is not None:
            y = _set_root(y)
        if x is y:
            raise SameNodeError("path endpoints coincide")
        paths = meet_paths(x, y, self.parent_of)
        if paths is None:
            raise NotSameTreeError("nodes lie in different trees")

        up_x, up_y = paths
        meet = up_x[-1]
        nodes = up_x + up_y[-2::-1]
        # every path node but the meet carries the edge to its neighbour
        # towards the meet, so the payloads in path order are theirs
        payloads = []
        for n in nodes:
            if n is not meet:
                payloads.append(n.edge)
                n._up = meet
                n.parent = n.edge = None
        self._climb(meet).size -= len(nodes) - 1
        # the caller binds a fresh handle to the merged node; the stale one
        # stays readable so returned path nodes still identify themselves
        return nodes, payloads, meet

    def join_trees(self, x: BlockTreeNode, y: BlockTreeNode, payload: Any) -> None:
        """Link two trees with an edge (x, y) carrying `payload`.

        The smaller tree, x's when the two are equal, is rerooted at its
        endpoint (payloads handed child to parent along the way) and hung
        under the other endpoint.
        """
        if x._up is not None:
            x = _set_root(x)
        if y._up is not None:
            y = _set_root(y)
        rx = self._climb(x)
        ry = self._climb(y)
        if rx is ry:
            raise SameTreeError("nodes already in one tree")
        if rx.size <= ry.size:
            self._reroot(x)
            x.parent, x.edge = y, payload
            ry.size += rx.size
        else:
            self._reroot(y)
            y.parent, y.edge = x, payload
            rx.size += ry.size

    # -- internals -------------------------------------------------------

    def _drop(self, node: BlockTreeNode) -> None:
        """Let go of `node`, whose tree the caller has discarded: it loses its
        handle, so reference counting frees its merged set."""
        node.handle = None

    def _climb(self, node: BlockTreeNode, path: Optional[list] = None) -> BlockTreeNode:
        """Root of the live node's tree. Each stale parent pointer read on
        the way is rewritten to its live node; with `path`, every node above
        `node` is appended to it."""
        while (p := node.parent) is not None:
            if p._up is not None:
                p = node.parent = _set_root(p)
            if path is not None:
                path.append(p)
            node = p
        return node

    def _reroot(self, node: BlockTreeNode) -> None:
        # `node` becomes the root, its parents already live (`_climb`); each
        # node on the way up takes the payload of the edge to the node below
        # it, per the child-to-parent handover rule
        parent, edge = node.parent, node.edge
        node.parent = node.edge = None
        touches = 1
        while parent is not None:
            above, above_edge = parent.parent, parent.edge
            parent.parent, parent.edge = node, edge
            node, parent, edge = parent, above, above_edge
            touches += 1
        self.reroot_touches += touches
