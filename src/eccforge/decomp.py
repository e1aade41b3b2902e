"""Incremental maintenance of the maximal 3-edge-connected subgraphs.

The engine keeps a decomposition tree whose levels cycle through connected
components, 2-edge-connected components, and 3-edge-connected components, so
a node's kind is its depth mod 3: 0 for the root or a 3-ecc, 1 for a 1-ecc,
2 for a 2-ecc. Leaves are exactly the maximal 3-edge-connected subgraphs of
the inserted graph, and a node is a leaf exactly when it holds a vertex of
its class in `dsu_item`. The vertex classes form a union-find labelled by the
leaves, which answers same-subgraph queries. Non-leaf component nodes carry
a block tree of their 2-eccs, and non-leaf 2-ecc nodes carry a cactus of
their 3-eccs.

A vertex with no edge yet is only a singleton class with no leaf, no tree
node and no forest node, so `insert_vertex` is O(1). Its first edge takes the `_attach` path instead of the general
insertion: such an edge always bridges two components, so `_attach` builds
the edgeless end's 2-ecc/3-ecc pair under the other end's 1-ecc (both ends'
pairs under one fresh 1-ecc when both are edgeless) and links the two block
trees, with no common-ancestor climb and no sibling merge. The root, which
may have condensed into a leaf while edgeless vertices waited, is expanded
first.

Edge insertion locates the nearest common ancestor of the two endpoint
leaves, climbing the deeper one to the other's level and then both together,
and rewrites only that node's attached structure; interconnection edges that
fall inside a freshly merged 3-ecc go on a worklist of owed insertions, which
`insert_edge` drains before it returns. Each re-insertion pushes its edge to
a deeper level, so no call stack grows with the depth of the tree. An owed
entry is the edge's `(x, y)` tuple, the one `insert_edge` made or the payload
a merge handed back, and `_insert` passes it on whole as the payload the
forests keep, so a re-insertion builds no new tuple.

A node that leaves the tree, merged into a sibling or dropped with a
condensed subtree, lets go of its children and its forest node lets go of
it. A node dropped with a subtree also has its forest drop its forest node,
and a dropped cactus retires its cycles and cuts their rings; the forests'
merge links point only from dead nodes to live ones. No reference cycle then
holds dropped structure, so reference counting frees it at the drop, and
what the engine holds is proportional to its live tree, the paper's O(n)
space.

Vertices are checked once, where they enter through `insert_edge`,
`same_max_3ec` or `subgraph_of`: a vertex is an `int` (not a `bool`) in
1..n. The union-find is a weighted quick-find over four lists indexed by
vertex - 1: `_root[x]` is always the root of x's class, so a leaf lookup is
`_leaf[_root[v - 1]]` and a same-subgraph query compares two list reads. A
merge links by the class size `_size` and points every member of the smaller
class at the surviving root, walking that class's circular member list
`_next`; a vertex is relabelled only when its class at least doubles, so n
vertices are relabelled O(n log n) times in total. The merge names the
class's new leaf at the root and clears the loser's, so `_leaf` refers only
to live leaves. An internal node's children are a list, and each child keeps
its index in that list in `_pos`, so a merged-away child leaves in O(1): the
last child moves into its slot. A leaf holds no list: its `children` is the
shared empty tuple, and a node gets its list with its first child
(`_new_node`), so the engine keeps one list per internal node.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from .blockforest import BlockForest
from .cactusforest import CactusForest
from .graph import SelfLoopError, UnknownVertexError


class DecompError(Exception):
    pass


class DecompNode:
    __slots__ = ("parent", "children", "level", "fnode", "dsu_item", "_pos")

    def __init__(self, parent: Optional["DecompNode"]):
        self.parent = parent
        # () until the first child arrives (`_new_node`), and again once the
        # node becomes a leaf
        self.children: list[DecompNode] | tuple[()] = ()
        self.level = 0 if parent is None else parent.level + 1
        self._pos = 0  # index in parent.children
        # forest node inside the parent's forest: a 2-ecc's block-tree node,
        # a 3-ecc's cactus real node
        self.fnode = None
        self.dsu_item: Optional[int] = None  # any vertex item of a leaf's class

    def __repr__(self) -> str:
        leaf = ", leaf" if self.dsu_item is not None else ""
        return f"DecompNode(level={self.level}{leaf})"


class DecompTree:
    def __init__(self) -> None:
        self.root = DecompNode(None)
        # the vertex classes, indexed by vertex - 1 (module docstring)
        self._root: list[int] = []  # the root of each vertex's class
        self._leaf: list[Optional[DecompNode]] = []  # at a root: its class's leaf
        self._size: list[int] = []  # at a root: its class's size
        self._next: list[int] = []  # circular member list of each class
        self._classes = 0
        self._bf = BlockForest()
        self._cf = CactusForest()
        self.n_vertices = 0
        self.affecting_insertions = 0
        self.total_insert_calls = 0
        self._owed: list[tuple[int, int]] = []

    def _new_node(self, parent: DecompNode) -> DecompNode:
        node = DecompNode(parent)
        kids = parent.children
        if kids:
            node._pos = len(kids)
            kids.append(node)
        else:
            parent.children = [node]
        return node

    # -- vertex / query surface ------------------------------------------

    def insert_vertex(self) -> int:
        # an edgeless vertex is a singleton class with no leaf; its tree
        # nodes wait for its first edge (`_attach`)
        x = self.n_vertices
        self._root.append(x)
        self._leaf.append(None)
        self._size.append(1)
        self._next.append(x)
        self._classes += 1
        self.n_vertices += 1
        return self.n_vertices

    def _new_pair(self, c1: DecompNode, item: int) -> DecompNode:
        """Fresh 2-ecc/3-ecc pair below the 1-ecc `c1`, whose 3-ecc is the
        new leaf of `item`'s class; returns the 2-ecc."""
        c2 = self._new_node(c1)
        c3 = DecompNode(c2)
        c2.children = [c3]
        c2.fnode = self._bf.new_node(c2)
        c3.fnode = self._cf.new_node(c3)
        c3.dsu_item = item
        self._leaf[self._root[item]] = c3
        return c2

    def _check_vertex(self, v: int) -> None:
        if not (type(v) is int and 1 <= v <= self.n_vertices):
            raise UnknownVertexError(f"unknown vertex {v}")

    def same_max_3ec(self, x: int, y: int) -> bool:
        n = self.n_vertices
        if not (type(x) is int and type(y) is int and 1 <= x <= n and 1 <= y <= n):
            self._check_vertex(x)  # one of the two raises
            self._check_vertex(y)
        root = self._root
        return root[x - 1] == root[y - 1]

    def partition(self) -> list[set[int]]:
        roots = [r for r, rr in enumerate(self._root) if rr == r]
        return sorted((set(self._members(r)) for r in roots), key=min)

    def subgraph_of(self, x: int) -> set[int]:
        self._check_vertex(x)
        return set(self._members(self._root[x - 1]))

    def count(self) -> int:
        return self._classes

    def _members(self, r: int) -> list[int]:
        """The vertices of the class rooted at index r, along its member list."""
        nxt = self._next
        out = [r + 1]
        x = nxt[r]
        while x != r:
            out.append(x + 1)
            x = nxt[x]
        return out

    # -- edge insertion -----------------------------------------------------

    def insert_edge(self, x: int, y: int) -> None:
        n = self.n_vertices
        if not (type(x) is int and type(y) is int and 1 <= x <= n and 1 <= y <= n):
            self._check_vertex(x)  # one of the two raises
            self._check_vertex(y)
        if x == y:
            raise SelfLoopError(f"self-loop at vertex {x}")
        root, leaf = self._root, self._leaf
        rx, ry = root[x - 1], root[y - 1]
        leaf_x, leaf_y = leaf[rx], leaf[ry]
        if leaf_x is None or leaf_y is None:
            self._attach(rx, ry, (x, y))
        elif leaf_x is leaf_y:
            self.total_insert_calls += 1
        else:
            self.affecting_insertions += 1
            # edges still owed an insertion; merges push displaced edges
            # here. Each entry is the payload the forests keep for its edge
            owed = self._owed = [(x, y)]
            while owed:
                self._insert(owed.pop())

    def _insert(self, edge: tuple[int, int]) -> None:
        self.total_insert_calls += 1
        x, y = edge
        root, leaf = self._root, self._leaf
        leaf_x = leaf[root[x - 1]]
        leaf_y = leaf[root[y - 1]]
        if leaf_x is leaf_y:
            return
        # the deeper leaf climbs to the other's level, then both climb
        # together to the two children of their nearest common ancestor
        a, b = leaf_x, leaf_y
        while a.level > b.level:
            a = a.parent
        while b.level > a.level:
            b = b.parent
        while a.parent is not b.parent:
            a = a.parent
            b = b.parent
        nca = a.parent
        kind = nca.level % 3
        if kind == 0:
            # the root or a 3-ecc: the edge bridges its 1-ecc children a and
            # b, so their block trees link at the 2-eccs holding x and y
            lvl2 = a.level + 1
            while leaf_x.level > lvl2:
                leaf_x = leaf_x.parent
            while leaf_y.level > lvl2:
                leaf_y = leaf_y.parent
            self._bf.join_trees(leaf_x.fnode, leaf_y.fnode, edge)
            self._merge_siblings([a, b])
        elif kind == 1:
            self._insert_at_1ecc(nca, a, b, edge)
        else:
            # a 2-ecc: compress the cycle-path on its cactus
            q_nodes, q_payloads, z_real = self._cf.compress_cycle_path(a.fnode, b.fnode)
            if len(q_nodes) == len(nca.children):
                # the whole 2-ecc became 3-edge-connected
                self._condense(nca, z_real)
                return
            # repeat the insertion after the displaced edges; it now lands
            # strictly deeper
            self._owed.append(edge)
            self._merge3ecc([q.handle for q in q_nodes], q_payloads, z_real)

    def _attach(self, rx: int, ry: int, edge: tuple[int, int]) -> None:
        """First edge at an edgeless end, whose class roots are rx and ry:
        it bridges two components, so it is affecting and lands at the root.
        Each edgeless end gets a 2-ecc/3-ecc pair under the other end's
        1-ecc, or under one fresh 1-ecc when both are edgeless, and the block
        trees link in the caller's orientation."""
        self.total_insert_calls += 1
        self.affecting_insertions += 1
        top = self.root
        if top.dsu_item is not None:
            # the rest of the graph had condensed into the root; its class
            # moves down so the root can take the new component
            self._expand_leaf(top)
        leaf = self._leaf
        leaf_x, leaf_y = leaf[rx], leaf[ry]  # None at an edgeless end
        c2 = leaf_y if leaf_x is None else leaf_x  # the end with edges, if any
        if c2 is None:
            c1 = self._new_node(top)
        else:
            while c2.level > 2:
                c2 = c2.parent
            c1 = c2.parent
        # an edgeless vertex is its own class's root: the int stored there
        # names the class, and no new int is made
        bx = c2 if leaf_x is not None else self._new_pair(c1, rx)
        by = c2 if leaf_y is not None else self._new_pair(c1, ry)
        self._bf.join_trees(bx.fnode, by.fnode, edge)

    def _insert_at_1ecc(self, nca, c1, c2, edge: tuple[int, int]) -> None:
        """The new edge joins the 2-eccs c1 and c2 below the 1-ecc `nca`:
        compress the block-tree path, merge cycle-paths inside every 2-ecc
        along it, then merge them all and join their cactuses along the
        induced cycle."""
        b_nodes, b_payloads, z_bt = self._bf.compress_path(c1.fnode, c2.fnode)
        xs = [bn.handle for bn in b_nodes]

        # the 3-eccs of x, of both ends of each bridge on the path, and of y;
        # bridge i leaves xs[i] at the end whose 3-ecc hangs from xs[i] and
        # enters xs[i + 1] at the other, so with each bridge's pair in that
        # order d3[2i] and d3[2i + 1] are where the path enters and leaves
        # xs[i]
        root, leaf = self._root, self._leaf
        lvl3 = nca.level + 2
        d3 = []
        for v in (edge[0], *chain.from_iterable(b_payloads), edge[1]):
            d = leaf[root[v - 1]]
            while d.level > lvl3:
                d = d.parent
            d3.append(d)
        for i in range(1, len(d3) - 1, 2):
            if d3[i].parent is not xs[i >> 1]:
                d3[i], d3[i + 1] = d3[i + 1], d3[i]

        reals = []  # the cactus node of each merged 3-ecc, in path order
        for a, b in zip(d3[::2], d3[1::2]):
            if a is b:
                reals.append(a.fnode)
                continue
            q_nodes, q_payloads, z_real = self._cf.compress_cycle_path(a.fnode, b.fnode)
            self._merge3ecc([q.handle for q in q_nodes], q_payloads, z_real)
            reals.append(z_real)

        survivor = self._merge_siblings(xs)
        z_bt.handle = survivor
        survivor.fnode = z_bt
        b_payloads.append(edge)
        self._cf.join_cactuses(reals, b_payloads)

    def _merge3ecc(self, d_nodes, payloads, z_real) -> None:
        """Merge 3-ecc siblings into one node and owe a re-insertion to the
        cactus edges that became internal to it. Former leaves get a fresh
        trivial chain first, so the merged node's subtree decomposes them
        properly."""
        for d in d_nodes:
            if d.dsu_item is not None:
                self._expand_leaf(d)
        survivor = self._merge_siblings(d_nodes)
        z_real.handle = survivor
        survivor.fnode = z_real
        # stacked in reverse so they are re-inserted in payload order
        self._owed.extend(reversed(payloads))

    def _expand_leaf(self, d: DecompNode) -> None:
        item = d.dsu_item
        d.dsu_item = None
        self._new_pair(self._new_node(d), item)

    def _merge_siblings(self, nodes: list[DecompNode]) -> DecompNode:
        """Redirect children of the smaller nodes into the one with the most
        children; the others are discarded from the tree. The caller has
        merged their forest nodes and binds the merged one to the survivor,
        so none of the old forest nodes keeps its handle."""
        survivor = nodes[0]
        most = len(survivor.children)
        for nd in nodes:
            if len(nd.children) > most:
                survivor = nd
                most = len(nd.children)
        kids = survivor.children
        siblings = survivor.parent.children
        for nd in nodes:
            fnode = nd.fnode
            if fnode is not None:
                fnode.handle = None
            if nd is survivor:
                continue
            for ch in nd.children:
                ch.parent = survivor
                ch._pos = len(kids)
                kids.append(ch)
            nd.children = None
            # the last sibling takes nd's slot
            last = siblings.pop()
            if last is not nd:
                siblings[nd._pos] = last
                last._pos = nd._pos
        return survivor

    def _condense(self, nca: DecompNode, z_real) -> None:
        """The 2-ecc `nca` became 3-edge-connected: collapse per the two
        grandparent cases."""
        p1 = nca.parent
        grand = p1.parent
        if len(grand.children) == 1 and len(p1.children) == 1:
            # nca was the only 2-ecc below `grand`: grand itself is the new leaf
            leaves = self._collect_leaves(grand)
            self._unite_leaves(leaves, grand)
            grand.children = ()
        else:
            leaves = self._collect_leaves(nca, keep=z_real)
            nca.children = ()
            d = self._new_node(nca)
            self._unite_leaves(leaves, d)
            # the compressed cactus is now a single real node; rebind it
            z_real.handle = d
            d.fnode = z_real

    def _collect_leaves(self, top: DecompNode, keep=None) -> list[DecompNode]:
        """Leaves below `top`, whose subtree the caller drops: the walk
        empties the internal ones and has the forests drop the forest node of
        every dropped node but `keep`, which the caller rebinds, so the
        dropped block trees and cactuses, cycles included, are freed as soon
        as the walk lets go of them."""
        out = []
        stack = list(top.children)
        while stack:
            nd = stack.pop()
            fnode = nd.fnode
            if fnode is not None and fnode is not keep:
                (self._bf if nd.level % 3 == 2 else self._cf)._drop(fnode)
            if nd.dsu_item is not None:
                out.append(nd)
            else:
                stack.extend(nd.children)
                nd.children = None
        return out

    def _unite_leaves(self, leaves: list[DecompNode], new_leaf: DecompNode) -> None:
        """Merge the classes of `leaves` into one whose leaf is `new_leaf`."""
        root, leaf, size, nxt = self._root, self._leaf, self._size, self._next
        ra = root[leaves[0].dsu_item]
        for lf in leaves:
            rb = root[lf.dsu_item]
            lf.dsu_item = None
            if rb == ra:
                continue
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            root[rb] = ra
            x = nxt[rb]
            while x != rb:  # relabel the smaller class
                root[x] = ra
                x = nxt[x]
            size[ra] += size[rb]
            leaf[rb] = None
            nxt[ra], nxt[rb] = nxt[rb], nxt[ra]
            self._classes -= 1
        leaf[ra] = new_leaf
        new_leaf.dsu_item = ra

    # -- structural audit -------------------------------------------------------

    def validate(self) -> None:
        """Debug audit: levels, child lists (a childless node holds `()`, a
        parent a list), handle bijections, the class lists'
        quick-find invariant (every vertex points at its class's root, whose
        member list holds exactly the vertices pointing at it and whose
        `_size` counts them; `_classes` counts the roots), the leaf/class
        correspondence (every class is a leaf's or an edgeless vertex's
        singleton, and only roots keep a leaf), and that the cactus forest
        holds exactly the cycles of the live cactuses. Raises DecompError on
        any violation."""
        leaves = []
        cycles = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            kind = node.level % 3
            kids = node.children
            if node.dsu_item is not None:
                if kids:
                    raise DecompError(f"leaf {node} has children")
                if kind != 0:
                    raise DecompError(f"leaf {node} is not a 3-ecc")
                leaves.append(node)
            elif not kids and node is not self.root:
                raise DecompError(f"internal {node} has no children")
            if type(kids) is not (list if kids else tuple):
                # a childless node shares (), a parent holds a list
                raise DecompError(f"{node} holds {kids!r} as its children")
            for i, ch in enumerate(kids):
                if ch.parent is not node:
                    raise DecompError(f"parent link broken at {ch}")
                if ch._pos != i:
                    raise DecompError(f"child slot broken at {ch}")
                if ch.level != node.level + 1:
                    raise DecompError(f"level broken at {ch}")
                stack.append(ch)
            if kind == 1:
                self._check_binding(node, self._bf)
            elif kind == 2:
                self._check_binding(node, self._cf)
                cycles.update(ch.fnode.parent for ch in node.children)
        cycles.discard(None)
        if cycles != self._cf.cycles():
            raise DecompError("cactus forest cycles differ from the live cactuses'")
        root, leaf, size, nxt = self._root, self._leaf, self._size, self._next
        n = self.n_vertices
        if not len(root) == len(leaf) == len(size) == len(nxt) == n:
            raise DecompError("class lists disagree with the vertex count")
        if sorted(nxt) != list(range(n)):
            raise DecompError("member lists are not disjoint rings")
        pointing: dict[int, list[int]] = {}
        for x, r in enumerate(root):
            if root[r] != r:
                raise DecompError(f"vertex {x + 1} points at non-root vertex {r + 1}")
            if r != x and leaf[x] is not None:
                raise DecompError(f"non-root vertex {x + 1} keeps a leaf")
            pointing.setdefault(r, []).append(x + 1)
        if len(pointing) != self._classes:
            raise DecompError("class count disagrees with the class roots")
        edgeless = 0
        for r, members in pointing.items():
            if sorted(self._members(r)) != members:
                raise DecompError(f"member list of vertex {r + 1}'s class is broken")
            if size[r] != len(members):
                raise DecompError(f"size of vertex {r + 1}'s class is wrong")
            if leaf[r] is None:
                if len(members) != 1:
                    raise DecompError(f"edgeless class of vertex {r + 1} is not a singleton")
                edgeless += 1
        for lf in leaves:
            label = leaf[root[lf.dsu_item]]
            if label is None:
                raise DecompError(f"leaf {lf} holds an edgeless vertex")
            if label is not lf:
                raise DecompError(f"class label broken at leaf {lf}")
        if len(leaves) + edgeless != len(pointing):
            raise DecompError("leaf and edgeless counts disagree with class count")

    def _check_binding(self, node: DecompNode, forest) -> None:
        """The children of `node` are bound one-to-one, through `fnode`, to
        the nodes of one tree of `forest` (block trees or cactuses)."""
        roots = set()
        for ch in node.children:
            fnode = ch.fnode
            if fnode is None or not forest.is_live(fnode) or fnode.handle is not ch:
                raise DecompError(f"forest binding broken under {node}")
            roots.add(forest.root_path(fnode)[-1])
        if len(roots) != 1:
            raise DecompError(f"children of {node} span several trees")
        if roots.pop().size != len(node.children):
            raise DecompError(f"tree size mismatch under {node}")
