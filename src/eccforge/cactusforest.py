"""Cactus forest with cycle-path compression and cycle-joining.

Each cactus is stored as a rooted tree that alternates "real" nodes (the
cactus vertices) and "cycle" nodes. Every cycle node owns a circular doubly
linked list with one entry per cactus vertex on that cycle. Each cycle edge's
payload is stored once, on its left entry: entry.right_edge is the payload of
the edge towards entry.right, so the edge towards entry.left carries
entry.left.right_edge.

A cycle node points at the list entry of its parent real node; the parent
keeps no back pointer, since one real node may be the parent of many cycles.
Non-parent members keep a bidirectional link with their entry.

A merged real node links straight under the live node it merges into
(`_merge`), through an `_up` link kept on the node itself, so a merged set's
root is its live node. Stored real-node references must be resolved to it,
`_set_root(x)` (what `representative` returns, with path compression),
before use; the forest calls `_set_root` only on a node whose `_up` is set.
`compress_cycle_path`, `join_cactuses` and `root_path` climb to a cactus
root with one local loop, `_climb`, which resolves each cycle's parent on
the way and, for `join_cactuses` and `root_path`, records the path that a
reroot walks. `join_cactuses` takes each end's live node, path, root and
size in one pass and checks that the roots differ before it changes
anything. A dropped node stays its set's root, so it still reads
`is_live`, but it loses its handle. A cycle stores no parent of its
own: its parent is the live node of its parent entry's real node,
`representative(cyc.parent_entry.real)`, so no merge leaves a stale cycle
parent behind, and a merged node drops its own parent and entry links.
Cycle nodes never merge. A cycle leaves `cycles()` when its 2-entry list
dissolves in `_squeeze` or when the decomposition tree drops its cactus
(`_drop` on a member), so the forest refers only to live cycles. Either way
`_retire` cuts the ring once, clearing every entry's neighbour and real-node
links, so reference counting frees the cycle as soon as nothing else holds
it. The origin of each cycle keeps that join's walk budget, and
`walk_touches` counts every walk step forest-wide.

compress_cycle_path merges through one squeeze per cycle on the path,
`_squeeze(u, v, ve, cyc)`: a child member u of cyc merges into v, whose entry
on cyc is ve (v's member entry when v is a sibling, cyc.parent_entry when v
is the cycle's parent). When u's entry neighbours ve, the entry is unlinked
and its shared edge returned; a 2-entry list dissolves. Otherwise the cycle
splits: the shorter arc strictly between the two entries, closed by a fresh
entry for v, becomes a new cycle, and the rest of the list keeps ve. Only the
arc's members change cycle, so a split costs O(shorter arc).
"""

from __future__ import annotations

from typing import Any, Optional

from .climb import meet_paths
from .dsu import _set_root


class CactusError(Exception):
    pass


class SameNodeError(CactusError):
    pass


class NotSameCactusError(CactusError):
    pass


class DuplicateCactusError(CactusError):
    pass


class OriginCycle:
    """Accounting record for one cycle introduced by join_cactuses."""

    __slots__ = ("walk_touches",)

    def __init__(self) -> None:
        self.walk_touches = 0


class ListEntry:
    __slots__ = ("real", "left", "right", "right_edge")

    def __init__(self, real: "RealNode"):
        self.real = real
        self.left: "ListEntry" = self
        self.right: "ListEntry" = self
        self.right_edge: Any = None  # payload of the edge towards self.right


class RealNode:
    __slots__ = ("handle", "parent", "entry", "size", "_up")

    def __init__(self, handle: Any):
        self.handle = handle
        self.parent: Optional[CycleNode] = None
        self.entry: Optional[ListEntry] = None  # member entry in parent's list
        self.size = 1  # meaningful at roots only
        self._up: Optional[RealNode] = None  # merge link; None at the live node


class CycleNode:
    __slots__ = ("parent_entry", "origin")

    def __init__(self, origin: OriginCycle):
        self.parent_entry: Optional[ListEntry] = None
        self.origin = origin


class CactusForest:
    def __init__(self) -> None:
        self._cycles: set[CycleNode] = set()
        self.reroot_touches = 0
        self.walk_touches = 0  # list entries stepped over by split walks

    def new_node(self, handle: Any) -> RealNode:
        return RealNode(handle)

    # -- resolution helpers ---------------------------------------------

    def representative(self, node: RealNode) -> RealNode:
        return _set_root(node)

    def is_live(self, node: RealNode) -> bool:
        return node._up is None

    def root_path(self, node: RealNode) -> list:
        """Alternating real/cycle nodes from `node` up to its cactus root."""
        if node._up is not None:
            node = _set_root(node)
        path: list = [node]
        self._climb(node, path)
        return path

    def cycles(self) -> set[CycleNode]:
        return set(self._cycles)

    # -- operations -------------------------------------------------------

    def compress_cycle_path(
        self, x: RealNode, y: RealNode
    ) -> tuple[list[RealNode], list[Any], RealNode]:
        """Merge the cycle-path from x to y into a single real node.

        Returns (cycle-path nodes ordered from x to y, payloads of the cactus
        edges that directly join consecutive path members, the merged node).
        Every involved cycle is squeezed at its two path members; residual
        2-entry lists where the members coincide are dissolved.
        """
        if x._up is not None:
            x = _set_root(x)
        if y._up is not None:
            y = _set_root(y)
        if x is y:
            raise SameNodeError("cycle-path endpoints coincide")
        paths = meet_paths(x, y, self._up)
        if paths is None:
            raise NotSameCactusError("nodes lie in different cactuses")

        up_x, up_y = paths
        meet = up_x[-1]
        at_real = type(meet) is RealNode
        if at_real:
            reals_x = up_x[::2]
            reals_y = up_y[::2]
            nodes = reals_x + reals_y[-2::-1]
        else:
            reals_x = up_x[:-1:2]
            reals_y = up_y[:-1:2]
            nodes = reals_x + reals_y[::-1]

        # each (child, cycle, ancestor) step below the meet squeezes the
        # child into the ancestor; a meet cycle squeezes its two path members.
        # The climb returned live real nodes, and a squeeze merges only its
        # child, so every real node a later squeeze is given is still live
        payloads: list[Any] = []
        for part in (up_x, up_y):
            stop = len(part) - 1 if at_real else len(part) - 2
            for i in range(0, stop - 1, 2):
                cyc = part[i + 1]
                payloads += self._squeeze(part[i], part[i + 2], cyc.parent_entry, cyc)
        if not at_real:
            v = up_y[-2]
            payloads += self._squeeze(up_x[-2], v, v.entry, meet)

        merged = _set_root(x)
        assert merged is _set_root(y)
        self._climb(merged).size -= len(nodes) - 1
        # the caller binds a fresh handle to the merged node; the stale one
        # stays readable so returned path nodes still identify themselves
        return nodes, payloads, merged

    def join_cactuses(self, xs: list[RealNode], payloads: list[Any]) -> None:
        """Link k >= 2 pairwise distinct cactuses with a new cycle x1..xk.

        payloads[i] is carried by the cycle edge (x_i, x_{i+1 mod k}). Every
        cactus except a largest, the last one among equals, is rerooted at
        its attachment node.
        """
        k = len(xs)
        if k < 2 or len(payloads) != k:
            raise CactusError("need k >= 2 nodes and k payloads")
        # one pass over the ends: live node, root path, root and size, with
        # the duplicate check before anything changes
        paths = []
        roots = set()
        big = most = total = 0
        for i, x in enumerate(xs):
            if x._up is not None:
                x = _set_root(x)
            path = [x]
            root = self._climb(x, path)
            if root in roots:
                raise DuplicateCactusError("attachment nodes share a cactus")
            roots.add(root)
            paths.append(path)
            size = root.size
            total += size
            if size >= most:
                big, most = i, size

        # the cycle is made before its origin record: a dissolved cycle frees
        # its origin and then itself, so the allocator hands the cycle's
        # block to the new cycle, whose hash then lands on the dead cycle's
        # slot in `_cycles`, and that set's table does not grow with churn
        cyc = CycleNode(None)
        cyc.origin = OriginCycle()
        entries = [ListEntry(path[0]) for path in paths]
        prev = entries[-1]
        for i, e in enumerate(entries):
            prev.right = e
            e.left = prev
            e.right_edge = payloads[i]
            prev = e
            if i == big:
                cyc.parent_entry = e
                paths[i][-1].size = total
            else:
                self._reroot(paths[i])
                e.real.parent = cyc
                e.real.entry = e
        self._cycles.add(cyc)

    # -- climbing ----------------------------------------------------------

    def _climb(self, node: RealNode, path: Optional[list] = None) -> RealNode:
        """Root of the live node's cactus, resolving each cycle's parent on
        the way; with `path`, every cycle and real node above `node` is
        appended to it."""
        while (cyc := node.parent) is not None:
            node = cyc.parent_entry.real
            if node._up is not None:
                node = _set_root(node)
            if path is not None:
                path += cyc, node
        return node

    def _up(self, node):
        if type(node) is RealNode:
            return node.parent
        real = node.parent_entry.real
        return real if real._up is None else _set_root(real)

    # -- squeezing ----------------------------------------------------------

    def _merge(self, dead: RealNode, live: RealNode) -> None:
        dead._up = live
        dead.parent = dead.entry = None

    def _drop(self, node: RealNode) -> None:
        """Let go of `node`, whose cactus the caller has discarded: it loses
        its handle and the cycle it hangs from retires. Reference counting
        then frees both."""
        node.handle = None
        if node.parent in self._cycles:
            self._retire(node.parent)

    def _retire(self, cyc: CycleNode) -> None:
        """Forget cyc and cut its ring: every entry lets go of its
        neighbours and its real node, so no entry keeps another alive."""
        self._cycles.remove(cyc)
        e = cyc.parent_entry
        while e is not None:
            nxt = e.right
            e.left = e.right = e.real = None
            e = nxt

    def _squeeze(self, u: RealNode, v: RealNode, ve: ListEntry, cyc: CycleNode) -> list[Any]:
        """Merge child member u of cyc into v, whose entry on cyc is ve.

        ve is v.entry when v is a sibling of u, cyc.parent_entry when v is the
        cycle's parent. Returns the payloads of the direct u-v cycle edges.
        """
        ue = u.entry
        if ue.left is ve and ue.right is ve:
            # u was the only other member; the 2-entry list dissolves
            out = [ve.right_edge, ue.right_edge]
            self._retire(cyc)
        elif ue.left is ve:
            out = [ve.right_edge]
            ue.right.left = ve
            ve.right = ue.right
            ve.right_edge = ue.right_edge
        elif ue.right is ve:
            out = [ue.right_edge]
            ue.left.right = ve
            ve.left = ue.left
        else:
            self._split(ue, v, ve, cyc)
            out = []
        self._merge(u, v)
        return out

    def _shorter_arc(
        self, ue: ListEntry, ve: ListEntry, origin: OriginCycle
    ) -> tuple[bool, list[ListEntry]]:
        """Alternating left-walks from both entries; returns (hit v?, arc).

        The arc is the internal segment strictly between the endpoints on the
        side of whichever walker finished first: [ue.left .. ve.right] when
        the u-walker hit ve, else [ve.left .. ue.right]. The two walks cover
        the two disjoint sides of the ring, so each can only stop at the
        other endpoint. Ties favour the u-walker, so equal arcs resolve to
        the segment reached from u.
        """
        wa, wb = ue.left, ve.left
        seen_a: list[ListEntry] = []
        seen_b: list[ListEntry] = []
        while wa is not ve:
            seen_a.append(wa)
            if wb is ue:
                break
            seen_b.append(wb)
            wa, wb = wa.left, wb.left
        # every step either extended an arc or stopped the walk
        touches = len(seen_a) + len(seen_b) + 1
        origin.walk_touches += touches
        self.walk_touches += touches
        return (True, seen_a) if wa is ve else (False, seen_b)

    def _split(self, ue: ListEntry, v: RealNode, ve: ListEntry, cyc: CycleNode) -> None:
        """Split cyc between the non-adjacent entries ue and ve.

        The shorter arc between them plus a fresh entry for v becomes a new
        cycle; the rest of the list keeps ve and drops ue. The fresh entry
        goes on the arc's ring because only the arc's members are re-parented,
        which keeps the work O(shorter arc).
        """
        z_at_v, arc = self._shorter_arc(ue, ve, cyc.origin)
        new_cyc = CycleNode(cyc.origin)
        self._cycles.add(new_cyc)
        nve = ListEntry(v)
        first, last = arc[0], arc[-1]
        nve.left = first
        first.right = nve
        nve.right = last
        last.left = nve
        if z_at_v:
            # arc = [ue.left .. ve.right]
            nve.right_edge = ve.right_edge
            ue.right.left = ve
            ve.right = ue.right
            ve.right_edge = ue.right_edge
        else:
            # arc = [ve.left .. ue.right]
            nve.right_edge = ue.right_edge
            ue.left.right = ve
            ve.left = ue.left
        pe = cyc.parent_entry
        for e in arc:
            if e is not pe:
                real = e.real
                if real._up is not None:
                    real = _set_root(real)
                real.parent = new_cyc
        if pe in arc:
            # the arc takes cyc's parent; v joins it through the fresh entry
            # and cyc hangs from v through ve
            new_cyc.parent_entry = pe
            v.parent = new_cyc
            v.entry = nve
            cyc.parent_entry = ve
        else:
            new_cyc.parent_entry = nve

    # -- rerooting -----------------------------------------------------------

    def _reroot(self, path: list) -> None:
        """Make path[0] the root of its cactus tree (path from root_path)."""
        self.reroot_touches += len(path)
        if len(path) == 1:
            return
        # triples (upper real, cycle, lower real) processed top-down; each
        # real hands its member entry upward and adopts the old parent entry
        for i in range(len(path) - 1, 1, -2):
            upper, cyc, lower = path[i], path[i - 1], path[i - 2]
            old_pe = cyc.parent_entry
            cyc.parent_entry = lower.entry
            upper.parent = cyc
            upper.entry = old_pe
        path[0].parent = None
        path[0].entry = None

    # -- introspection --------------------------------------------------------

    def expanded_edges(self) -> list[tuple[RealNode, RealNode, Any]]:
        """The explicit cactus edges (live endpoints, payload), one per
        circular-list link, across the whole forest."""
        out = []
        for cyc in self._cycles:
            e = cyc.parent_entry
            while True:
                out.append(
                    (
                        self.representative(e.real),
                        self.representative(e.right.real),
                        e.right_edge,
                    )
                )
                e = e.right
                if e is cyc.parent_entry:
                    break
        return out

    def check_lists(self) -> None:
        """Ring-level invariants: link symmetry, list length >= 2, member
        entries bound bidirectionally."""
        for cyc in self._cycles:
            e = cyc.parent_entry
            length = 0
            while True:
                if e.right.left is not e or e.left.right is not e:
                    raise CactusError(f"broken ring links in {cyc}")
                r = self.representative(e.real)
                if e is not cyc.parent_entry and (r.entry is not e or r.parent is not cyc):
                    raise CactusError(f"member binding broken in {cyc}")
                length += 1
                e = e.right
                if e is cyc.parent_entry:
                    break
            if length < 2:
                raise CactusError(f"cycle {cyc} shorter than 2")
