"""Explicit shadow structures used as oracles for the forest data structures.

The shadows store groups of the original nodes plus an explicit edge multiset
with payloads, and execute every operation by definition (breadth-first path
finding, block decomposition for cycle membership). Tests compare partitions,
payload multisets, and per-call compression answers against the live
structures after every operation.
"""

from collections import Counter


def _bfs_path(adj, start, goal):
    """(vertex path, edge-index path) in a graph given as {v: [(w, idx)]}."""
    prev = {start: (None, None)}
    queue = [start]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        if v == goal:
            break
        for w, idx in adj[v]:
            if w not in prev:
                prev[w] = (v, idx)
                queue.append(w)
    if goal not in prev:
        return None, None
    verts, eidx = [goal], []
    while prev[verts[-1]][0] is not None:
        v, idx = prev[verts[-1]]
        eidx.append(idx)
        verts.append(v)
    return verts[::-1], eidx[::-1]


class ShadowForest:
    """Reference implementation of the block-forest contract."""

    def __init__(self):
        self.group = {}  # original node -> group id
        self.members = {}  # group id -> set of original nodes
        self.edges = []  # (gid_a, gid_b, payload)
        self._next = 0

    def new_node(self, node):
        gid = self._next
        self._next += 1
        self.group[node] = gid
        self.members[gid] = {node}

    def _adj(self):
        adj = {g: [] for g in self.members}
        for idx, (a, b, _p) in enumerate(self.edges):
            adj[a].append((b, idx))
            adj[b].append((a, idx))
        return adj

    def same_tree(self, x, y):
        verts, _ = _bfs_path(self._adj(), self.group[x], self.group[y])
        return verts is not None

    def join(self, x, y, payload):
        assert not self.same_tree(x, y)
        self.edges.append((self.group[x], self.group[y], payload))

    def compress(self, x, y):
        """Returns (path as list of member frozensets, payloads in order)."""
        a, b = self.group[x], self.group[y]
        assert a != b
        verts, eidx = _bfs_path(self._adj(), a, b)
        assert verts is not None
        answer_nodes = [frozenset(self.members[g]) for g in verts]
        answer_payloads = [self.edges[i][2] for i in eidx]
        z = self._next
        self._next += 1
        merged = set()
        for g in verts:
            merged |= self.members.pop(g)
        self.members[z] = merged
        for node in merged:
            self.group[node] = z
        on_path = set(verts)
        kept = []
        for i, (ga, gb, p) in enumerate(self.edges):
            if ga in on_path and gb in on_path:
                assert i in eidx  # tree edges between path nodes are path edges
                continue
            kept.append(
                (z if ga in on_path else ga, z if gb in on_path else gb, p)
            )
        self.edges = kept
        return answer_nodes, answer_payloads

    def partition(self):
        return {frozenset(s) for s in self.members.values()}

    def edge_counter(self):
        out = Counter()
        for a, b, p in self.edges:
            key = frozenset(
                {frozenset(self.members[a]), frozenset(self.members[b])}
            )
            out[(key, p)] += 1
        return out


def _blocks(vertices, edges):
    """Biconnected blocks of a multigraph; returns block id per edge index.

    Iterative lowpoint computation; parallel edges are distinct, so a
    parallel pair forms a proper 2-edge block.
    """
    adj = {v: [] for v in vertices}
    for idx, (a, b, _p) in enumerate(edges):
        adj[a].append((b, idx))
        adj[b].append((a, idx))
    disc, low = {}, {}
    block_of = [None] * len(edges)
    counter = 0
    block_id = 0
    edge_stack = []
    for root in vertices:
        if root in disc:
            continue
        stack = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for w, idx in it:
                if idx == in_edge:
                    continue
                if w not in disc:
                    edge_stack.append(idx)
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, idx, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(idx)
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    while True:
                        idx = edge_stack.pop()
                        block_of[idx] = block_id
                        if idx == in_edge:
                            break
                    block_id += 1
    return block_of


class ShadowCactus:
    """Reference implementation of the cactus-forest contract."""

    def __init__(self):
        self.group = {}
        self.members = {}
        self.edges = []  # (gid_a, gid_b, payload) multigraph
        self._next = 0

    def new_node(self, node):
        gid = self._next
        self._next += 1
        self.group[node] = gid
        self.members[gid] = {node}

    def _adj(self):
        adj = {g: [] for g in self.members}
        for idx, (a, b, _p) in enumerate(self.edges):
            adj[a].append((b, idx))
            adj[b].append((a, idx))
        return adj

    def same_cactus(self, x, y):
        verts, _ = _bfs_path(self._adj(), self.group[x], self.group[y])
        return verts is not None

    def join(self, xs, payloads):
        gids = [self.group[x] for x in xs]
        k = len(gids)
        for i in range(k):
            for j in range(i + 1, k):
                verts, _ = _bfs_path(self._adj(), gids[i], gids[j])
                assert verts is None, "join endpoints share a cactus"
        for i in range(k):
            self.edges.append((gids[i], gids[(i + 1) % k], payloads[i]))

    def compress(self, x, y):
        """Returns (cycle-path as member frozensets, payload Counter)."""
        a, b = self.group[x], self.group[y]
        assert a != b
        verts, eidx = _bfs_path(self._adj(), a, b)
        assert verts is not None
        block_of = _blocks(list(self.members), self.edges)
        q = [verts[0]]
        for i in range(1, len(verts) - 1):
            if block_of[eidx[i - 1]] != block_of[eidx[i]]:
                q.append(verts[i])
        q.append(verts[-1])
        q_set = set(q)
        answer_nodes = [frozenset(self.members[g]) for g in q]
        z = self._next
        self._next += 1
        merged = set()
        for g in q:
            merged |= self.members.pop(g)
        self.members[z] = merged
        for node in merged:
            self.group[node] = z
        removed = Counter()
        kept = []
        for ga, gb, p in self.edges:
            if ga in q_set and gb in q_set:
                removed[p] += 1  # these become self-loops of the merged node
            else:
                kept.append(
                    (z if ga in q_set else ga, z if gb in q_set else gb, p)
                )
        self.edges = kept
        return answer_nodes, removed

    def partition(self):
        return {frozenset(s) for s in self.members.values()}

    def edge_counter(self):
        out = Counter()
        for a, b, p in self.edges:
            key = frozenset(
                {frozenset(self.members[a]), frozenset(self.members[b])}
            )
            out[(key, p)] += 1
        return out

    def check_cactus(self):
        """Every edge on exactly one simple cycle: every block is a cycle."""
        block_of = _blocks(list(self.members), self.edges)
        block_edges = Counter()
        block_verts = {}
        for idx, (a, b, _p) in enumerate(self.edges):
            bid = block_of[idx]
            block_edges[bid] += 1
            block_verts.setdefault(bid, set()).update((a, b))
        for bid, ecount in block_edges.items():
            assert ecount == len(block_verts[bid]), (
                f"block {bid} is not a simple cycle"
            )


# -- live-side extraction helpers -------------------------------------------


def live_forest_state(bf, created):
    """(partition, edge Counter, class-of map) for a BlockForest."""
    classes = {}
    for node in created:
        rep = bf.representative(node)
        classes.setdefault(rep, set()).add(node)
    frozen = {rid: frozenset(s) for rid, s in classes.items()}
    part = set(frozen.values())
    edges = Counter()
    for node in created:
        if not bf.is_live(node) or node.parent is None:
            continue
        parent = bf.parent_of(node)
        key = frozenset({frozen[node], frozen[parent]})
        edges[(key, node.edge)] += 1
    return part, edges, frozen


def live_cactus_state(cf, created):
    """(partition, expanded edge Counter, class-of map) for a CactusForest."""
    classes = {}
    for node in created:
        rep = cf.representative(node)
        classes.setdefault(rep, set()).add(node)
    frozen = {rid: frozenset(s) for rid, s in classes.items()}
    part = set(frozen.values())
    edges = Counter()
    for a, b, payload in cf.expanded_edges(*created):
        key = frozenset({frozen[a], frozen[b]})
        edges[(key, payload)] += 1
    return part, edges, frozen
