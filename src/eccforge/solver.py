"""Static maximal k-edge-connected subgraphs by repeated small-cut removal.

The graph is held as a dict adjacency, vertex -> {neighbour: multiplicity}.
`kec_classes` is the one entry: it solves an adjacency restricted to a vertex
set and leaves the adjacency as it was. `max_kec_subgraphs` turns a
`Multigraph` into an adjacency and calls it; the fully dynamic wrapper calls
it on its own live adjacency, for a class or for a quotient of classes.

A worklist of vertex sets starts from the given set. Each set is first
peeled: vertices of degree < k inside it become singleton classes, as in the
k-core step of Chang et al. (SIGMOD 2013). Each connected piece of the rest
then runs capped maximum-adjacency (MA) phases, Nagamochi and Ibaraki's
CAPFOREST (SIAM J. Discrete Math 1992), with keys capped at k: a pair whose
key reaches k is k-edge-connected inside the piece, so it is contracted. The
piece is a class once one super-vertex is left. A super-vertex of degree < k
is a cut of < k edges: the piece splits there and both sides go back on the
worklist uncontracted. No exact minimum cut is ever needed.

`global_min_cut` runs the same MA phase uncapped, as Stoer-Wagner.
"""

from __future__ import annotations

import heapq

from .graph import Cut, Multigraph
from .certificates import k_certificate


class SolverError(Exception):
    pass


class DisconnectedError(SolverError):
    pass


class TooSmallError(SolverError):
    pass


class Partition:
    """Disjoint vertex classes covering V, ordered by minimum member."""

    def __init__(self, classes: list[set[int]], class_of: dict[int, int]):
        self.classes = classes
        self.class_of = class_of

    @classmethod
    def from_classes(cls, classes) -> "Partition":
        ordered = sorted((set(c) for c in classes), key=min)
        class_of = {v: i for i, c in enumerate(ordered) for v in c}
        return cls(ordered, class_of)

    def same(self, u: int, v: int) -> bool:
        return self.class_of[u] == self.class_of[v]

    def as_sets(self) -> set[frozenset[int]]:
        return {frozenset(c) for c in self.classes}

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.as_sets() == other.as_sets()

    def __repr__(self) -> str:
        return f"Partition({[sorted(c) for c in self.classes]})"

    def refines(self, coarser: "Partition") -> bool:
        return all(
            len({coarser.class_of[v] for v in c}) == 1 for c in self.classes
        )


def _adjacency(g: Multigraph) -> dict[int, dict[int, int]]:
    """g as vertex -> {neighbour: multiplicity}, every vertex a key."""
    adj: dict[int, dict[int, int]] = {v: {} for v in g.vertex_ids()}
    for u, v in g._edges.values():  # one pass over the edge table
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    return adj


def _ma_phase(adj: dict[int, dict[int, int]], cap: int | None):
    """One maximum-adjacency scan of a connected weighted graph.

    The scan starts at adj's first vertex and next takes the unscanned vertex
    with the largest key, its edge weight to the scanned ones, capped at
    `cap` unless `cap` is None; ties go to the smaller id. Returns the scan
    order, each vertex's key when it was scanned and, with a cap, every pair
    (x, y) whose key reached the cap when x was scanned: for each such pair
    lambda(x, y) >= cap (Nagamochi-Ibaraki).
    """
    start = next(iter(adj))
    key = {start: 0}
    order: list[int] = []
    pairs: list[tuple[int, int]] = []
    scanned: set[int] = set()
    heap = [(0, start)]
    while heap:
        neg, x = heapq.heappop(heap)
        if x in scanned or -neg != key[x]:
            continue  # a stale entry: x was scanned or its key has grown
        scanned.add(x)
        order.append(x)
        for y, w in adj[x].items():
            if y in scanned:
                continue
            old = key.get(y, 0)
            r = old + w
            if cap is not None and r >= cap:
                pairs.append((x, y))
                if old == cap:
                    continue
                r = cap
            key[y] = r
            heapq.heappush(heap, (-r, y))
    return order, key, pairs


def _contract(adj: dict[int, dict[int, int]], members: dict[int, list[int]], pairs):
    """Merge each pair's two super-vertices; returns the contracted
    (adjacency, members), each merged vertex named by one of its old names."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    name = {x: find(x) for x in adj}
    new_adj: dict[int, dict[int, int]] = {}
    new_members: dict[int, list[int]] = {}
    for x, row in adj.items():
        rx = name[x]
        new_row = new_adj.setdefault(rx, {})
        new_members.setdefault(rx, []).extend(members[x])
        for y, w in row.items():
            ry = name[y]
            if ry != rx:
                new_row[ry] = new_row.get(ry, 0) + w
    return new_adj, new_members


def global_min_cut(g: Multigraph) -> Cut:
    """A minimum edge cut of a connected multigraph with >= 2 vertices."""
    if g.n < 2:
        raise TooSmallError("minimum cut needs at least two vertices")
    if len(g.connected_components()) != 1:
        raise DisconnectedError("graph is not connected")
    adj = _adjacency(g)
    members = {v: [v] for v in adj}
    value = None
    side: set[int] = set()
    while len(adj) > 1:
        # Stoer-Wagner: the last vertex's key is its whole degree, the
        # value of the cut of the phase; then merge the last two vertices
        order, key, _ = _ma_phase(adj, None)
        s, t = order[-2], order[-1]
        if value is None or key[t] < value:
            value, side = key[t], set(members[t])
        adj, members = _contract(adj, members, [(s, t)])
    items = [(eid, *g.endpoints(eid)) for eid in g.edge_ids()]
    edges = {eid for eid, u, v in items if (u in side) != (v in side)}
    if len(edges) != value:
        raise SolverError("cut side inconsistent with cut value")
    return Cut(value, edges, side)


def max_kec_subgraphs(g: Multigraph, k: int, use_certificate: bool = False) -> Partition:
    """Vertex classes of the maximal k-edge-connected subgraphs.

    k = 1 degenerates to connected components. With use_certificate the input
    is first replaced by its k-certificate (same answer, k >= 3 only).
    """
    if use_certificate:
        g = k_certificate(g, k).certificate
    adj = _adjacency(g)
    return Partition.from_classes(kec_classes(adj, set(adj), k))


def kec_classes(adj: dict[int, dict[int, int]], vertices, k: int) -> list[set[int]]:
    """The vertex sets of the maximal k-edge-connected subgraphs of adj
    (vertex -> {neighbour: multiplicity}) restricted to `vertices`, each a key
    of adj. Edges that leave `vertices` are ignored; adj is not changed."""
    if k < 1:
        raise ValueError("k must be >= 1")
    classes: list[set[int]] = []
    work = [set(vertices)]
    while work:
        core = _peel(adj, work.pop(), k, classes)
        for piece in _components(adj, core):
            sides = _small_cut_sides(adj, piece, k)
            if sides is None:
                classes.append(piece)
            else:
                work.extend(sides)
    return classes


def _peel(adj, S: set[int], k: int, classes: list[set[int]]) -> set[int]:
    """The k-core of adj[S]. Each vertex whose degree inside what is left
    falls below k is removed in turn and appended to classes alone."""
    deg = {v: sum(w for u, w in adj[v].items() if u in S) for v in S}
    low = [v for v, d in deg.items() if d < k]
    core = set(S)
    while low:
        v = low.pop()
        core.discard(v)
        classes.append({v})
        for u, w in adj[v].items():
            if u in core:
                d = deg[u]
                deg[u] = d - w
                if d >= k > d - w:
                    low.append(u)
    return core


def _components(adj, S: set[int]) -> list[set[int]]:
    """Vertex sets of the connected components of adj[S]."""
    seen: set[int] = set()
    out = []
    for s in S:
        if s in seen:
            continue
        piece = {s}
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u in S and u not in piece:
                    piece.add(u)
                    frontier.append(u)
        seen |= piece
        out.append(piece)
    return out


def _small_cut_sides(adj, piece: set[int], k: int) -> list[set[int]] | None:
    """None if adj[piece], connected with >= 2 vertices, is k-edge-connected;
    otherwise vertex sets whose boundaries inside the piece are cuts of < k
    edges, together covering the piece.

    Capped MA phases contract pairs that are k-edge-connected inside the
    piece until one super-vertex is left, or one has degree < k. Every edge
    between two returned sets lies in a cut of < k edges, so no
    k-edge-connected subgraph of the piece holds both its ends.
    """
    cadj = {v: {u: w for u, w in adj[v].items() if u in piece} for v in piece}
    members = {v: [v] for v in piece}
    # one super-vertex is tested first: alone, it has degree 0
    while len(cadj) > 1:
        low = [x for x, row in cadj.items() if sum(row.values()) < k]
        if low:
            sides = [set(members[x]) for x in low]
            rest = piece.difference(*sides)
            return sides + [rest] if rest else sides
        cadj, members = _contract(cadj, members, _ma_phase(cadj, k)[2])
    return None
