"""Static maximal k-edge-connected subgraphs by repeated small-cut removal.

The graph is held as a dict adjacency, vertex -> {neighbour: multiplicity}.
`kec_classes` is the one entry: it solves an adjacency restricted to a vertex
set and leaves the adjacency as it was. `max_kec_subgraphs` turns a
`Multigraph` into an adjacency and calls it; the fully dynamic wrapper calls
it on its own live adjacency, for a class or for a quotient of classes.

The solver runs a worklist of items. Each item owns its adjacency, so its
steps edit and read its own rows and never filter by vertex set again; an
item is uncontracted (each vertex is itself) or contracted (each vertex is a
super-vertex standing for a set of input vertices). The first item is one
copy of the input restricted to the given set. An item is first peeled:
vertices of degree < k leave it, with their edges, as classes alone, as in
the k-core step of Chang et al. (SIGMOD 2013). Each connected piece of the
rest then runs maximum-adjacency (MA) phases with keys capped at k,
Nagamochi and Ibaraki's CAPFOREST (SIAM J. Discrete Math 1992), on a bucket
queue of keys 0..k (Henzinger et al., ALENEX 2018): a pair whose key reaches
k is k-edge-connected inside the piece, so it is contracted. The piece is a
class once one super-vertex is left. Once a super-vertex has degree < k, the
contracted piece becomes an item of its own: a cut of it is a cut of the
piece with the same edges, so its classes, mapped back to input vertices,
hold the piece's classes. A class of one vertex is final; a larger one is
solved again as a fresh uncontracted item. Each contracted item is smaller
than its piece and each fresh item a strict subset of it, so the worklist
ends, with no recursion. A cycle with every edge doubled still contracts one
pair per phase, so it takes n - 1 phases. No exact minimum cut is ever
needed, and the library has none: `oracle.edge_connectivity` gives the
value between two vertices.
"""

from __future__ import annotations

from .graph import Multigraph
from .certificates import k_certificate


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


def _adjacency(g: Multigraph) -> dict[int, dict[int, int]]:
    """g as vertex -> {neighbour: multiplicity}, every vertex a key."""
    adj: dict[int, dict[int, int]] = {v: {} for v in g.vertex_ids()}
    for u, v in g._edges.values():  # one pass over the edge table
        row_u, row_v = adj[u], adj[v]
        row_u[v] = row_u.get(v, 0) + 1
        row_v[u] = row_v.get(u, 0) + 1
    return adj


def max_kec_subgraphs(g: Multigraph, k: int, use_certificate: bool = False) -> Partition:
    """Vertex classes of the maximal k-edge-connected subgraphs.

    k = 1 degenerates to connected components. With use_certificate the input
    is first replaced by its k-certificate (same answer, k >= 3 only).
    """
    if use_certificate:
        g = k_certificate(g, k).certificate
    adj = _adjacency(g)
    return Partition.from_classes(kec_classes(adj, adj.keys(), k))


def kec_classes(adj: dict[int, dict[int, int]], vertices, k: int) -> list[set[int]]:
    """The vertex sets of the maximal k-edge-connected subgraphs of adj
    (vertex -> {neighbour: multiplicity}) restricted to `vertices`, a set (or
    keys view) of keys of adj. Edges that leave `vertices` are ignored; adj
    is not changed."""
    if type(k) is not int or k < 1:
        raise ValueError("k must be an int >= 1")
    if len(vertices) == len(adj):  # all of adj
        own = {v: row.copy() for v, row in adj.items()}
    else:
        own = _restrict(adj, vertices)
    classes: list[set[int]] = []
    # items: (adjacency the solver owns, members), members None when each
    # vertex is itself, else super-vertex -> the input vertices it holds
    work: list[tuple[dict, dict | None]] = [(own, None)]
    while work:
        own, members = work.pop()
        found = [[x] if members is None else members[x] for x in _peel(own, k)]
        for piece in _components(own):
            groups = members
            while True:
                piece, groups = _contract(piece, groups, _ma_phase(piece, k))
                if len(piece) == 1:
                    found.extend(groups.values())
                    break
                if any(sum(row.values()) < k for row in piece.values()):
                    work.append((piece, groups))
                    break
        for group in found:
            if members is None or len(group) == 1:
                classes.append(set(group))
            else:  # a class of a contracted item: solve it on the input
                work.append((_restrict(adj, set(group)), None))
    return classes


def _restrict(adj, S) -> dict[int, dict[int, int]]:
    """A copy of adj[S], S a set of keys of adj."""
    return {v: {u: w for u, w in adj[v].items() if u in S} for v in S}


def _peel(own, k: int) -> list[int]:
    """Remove from own, in turn, each vertex whose degree in what is left
    falls below k, with its back-entries; returns the removed vertices."""
    deg = {v: sum(row.values()) for v, row in own.items()}
    low = [v for v, d in deg.items() if d < k]
    removed = []
    while low:
        v = low.pop()
        removed.append(v)
        for u, w in own.pop(v).items():
            del own[u][v]
            d = deg[u]
            deg[u] = d - w
            if d >= k > d - w:
                low.append(u)
    return removed


def _components(own) -> list[dict[int, dict[int, int]]]:
    """The connected components of own, each an adjacency that shares own's
    rows."""
    seen: set[int] = set()
    out = []
    for s in own:
        if s in seen:
            continue
        piece = {s: own[s]}
        stack = [s]
        while stack:
            for u in piece[stack.pop()]:
                if u not in piece:
                    piece[u] = own[u]
                    stack.append(u)
        seen.update(piece)
        out.append(piece)
    return out


def _ma_phase(adj: dict[int, dict[int, int]], k: int) -> list[tuple[int, int]]:
    """One maximum-adjacency scan of a connected weighted graph, keys capped
    at k: the scan starts at adj's first vertex and next takes an unscanned
    vertex of the largest key, its edge weight to the scanned ones, capped at
    k. The keys live in buckets 0..k; an entry whose vertex was scanned or
    has a larger key is skipped when popped. Returns every pair (x, y) whose
    key reached k when x was scanned: lambda(x, y) >= k for each
    (Nagamochi-Ibaraki)."""
    start = next(iter(adj))
    done = k + 1  # the key of a scanned vertex
    key = {start: 0}
    buckets: list[list[int]] = [[] for _ in range(done)]
    buckets[0].append(start)
    top = 0
    pairs: list[tuple[int, int]] = []
    while top >= 0:
        bucket = buckets[top]
        if not bucket:
            top -= 1
            continue
        x = bucket.pop()
        if key[x] != top:
            continue
        key[x] = done
        for y, w in adj[x].items():
            old = key.get(y, 0)
            if old >= k:
                if old == k:
                    pairs.append((x, y))
                continue
            r = old + w
            if r >= k:
                pairs.append((x, y))
                r = k
            key[y] = r
            buckets[r].append(y)
            if r > top:
                top = r
    return pairs


def _contract(adj, members, pairs):
    """Merge the ends of each pair. Returns the contracted adjacency and its
    members, super-vertex -> the input vertices it holds (with members None,
    each vertex of adj holds itself); a merged vertex keeps one old name."""
    parent: dict[int, int] = {}
    for x, y in pairs:
        while x in parent:  # path halving
            parent[x] = x = parent.get(parent[x], parent[x])
        while y in parent:
            parent[y] = y = parent.get(parent[y], parent[y])
        if x != y:
            parent[y] = x
    for x, r in parent.items():  # point every merged vertex at its root
        while r in parent:
            r = parent[r]
        parent[x] = r
    new_adj: dict[int, dict[int, int]] = {}
    new_members: dict[int, list[int]] = {}
    for x, row in adj.items():
        rx = parent.get(x, x)
        new_row = new_adj.get(rx)
        if new_row is None:
            new_row = new_adj[rx] = {}
            new_members[rx] = []
        new_members[rx].extend((x,) if members is None else members[x])
        for y, w in row.items():
            ry = parent.get(y, y)
            if ry != rx:
                new_row[ry] = new_row.get(ry, 0) + w
    return new_adj, new_members
