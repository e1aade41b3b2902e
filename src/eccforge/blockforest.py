"""Forest of rooted trees with node merging, path compression into a single
node, and size-aware linking with edge payload handover.

`compress_path` links every other path node straight under the meet, the
live node they merge into, through an `_up` link kept on the node itself, so
a merged set's root is its live node and `dsu._set_root` resolves a stale
reference with path compression. A parent pointer left stale by a merge is
rewritten to its representative the next time `parent_of` reads it, and a
merged node drops its own tree links, so the forest holds no reference to a
dead node beyond the stale pointers still waiting to be read. A dropped node
(`_drop`) stays its set's root, so it still reads `is_live`, but it loses its
handle. Tree sizes live on roots. Path discovery is the two-pointer climb
of `climb.meet_paths`, shared with the cactus forest, which records the nodes
it passes in a set of its own, so it costs O(|path|) without any depth
bookkeeping or mark on the nodes.
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
        if p is not None:
            p = node.parent = _set_root(p)
        return p

    def root_path(self, node: BlockTreeNode) -> list[BlockTreeNode]:
        """Live nodes from `node` up to its tree root, inclusive."""
        path = [_set_root(node)]
        while (p := self.parent_of(path[-1])) is not None:
            path.append(p)
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
        x = _set_root(x)
        y = _set_root(y)
        if x is y:
            raise SameNodeError("path endpoints coincide")
        paths = meet_paths(x, y, self.parent_of)
        if paths is None:
            raise NotSameTreeError("nodes lie in different trees")

        up_x, up_y = paths
        meet = up_x[-1]
        nodes = up_x + up_y[-2::-1]
        payloads = [n.edge for n in up_x[:-1]] + [n.edge for n in up_y[-2::-1]]

        for n in nodes:
            if n is not meet:
                n._up = meet
                n.parent = n.edge = None
        root = self.root_path(meet)[-1]
        root.size -= len(nodes) - 1
        # the caller binds a fresh handle to the merged node; the stale one
        # stays readable so returned path nodes still identify themselves
        return nodes, payloads, meet

    def join_trees(self, x: BlockTreeNode, y: BlockTreeNode, payload: Any) -> None:
        """Link two trees with an edge (x, y) carrying `payload`.

        The smaller tree is rerooted at its endpoint (payloads handed child to
        parent along the way) and hung under the other endpoint.
        """
        x = _set_root(x)
        y = _set_root(y)
        path_x = self.root_path(x)
        path_y = self.root_path(y)
        rx, ry = path_x[-1], path_y[-1]
        if rx is ry:
            raise SameTreeError("nodes already in one tree")
        if rx.size <= ry.size:
            self._reroot(path_x)
            x.parent, x.edge = y, payload
            ry.size += rx.size
        else:
            self._reroot(path_y)
            y.parent, y.edge = x, payload
            rx.size += ry.size

    # -- internals -------------------------------------------------------

    def _drop(self, node: BlockTreeNode) -> None:
        """Let go of `node`, whose tree the caller has discarded: it loses its
        handle, so reference counting frees its merged set."""
        node.handle = None

    def _reroot(self, path: list[BlockTreeNode]) -> None:
        # path[0] becomes the root; each node on the way hands its edge
        # payload to its parent, per the child-to-parent handover rule.
        self.reroot_touches += len(path)
        for i in range(len(path) - 1, 0, -1):
            v, u = path[i], path[i - 1]
            v.parent = u
            v.edge = u.edge
        path[0].parent = None
        path[0].edge = None
